"""A fixed reference job that the benchmark times next to every command.

It uses no ``parsedisamb`` code, so its time depends only on how fast the
machine runs at that moment.  Like a CLI command it starts an interpreter
and imports numpy, then does work of each kind the pipeline does:
interpreted work on JSON records, tuples and strings (loading and property
extraction) and on a heap larger than the caches; numpy on small arrays
(scoring) and on arrays larger than the caches (the trainer's matrix); and
weighted ``bincount`` (the clustering EM step).  run.py divides the
pipeline's wall times by the median wall time of this process.

    python3 perfbench/calibrate.py
"""

import json
import random

import numpy as np


def main() -> None:
    records = [{"tokens": [f"w{(i * j) % 397}" for j in range(12)],
                "parses": [{"id": k, "relations": [["subj", i % 31, k]]}
                           for k in range(4)]}
               for i in range(2_000)]
    for record in json.loads(json.dumps(records)):
        tuple(sorted(set(record["tokens"])))
        [tuple(map(tuple, parse["relations"])) for parse in record["parses"]]

    # A heap of small objects visited in random order, like the commands'
    # corpora and registries, which do not fit in the caches.
    objects = [[i, str(i), (i, i + 1)] for i in range(60_000)]
    order = list(range(len(objects)))
    random.Random(0).shuffle(order)
    sum(objects[i][0] + len(objects[i][1]) + objects[i][2][1] for i in order)

    rng = np.random.default_rng(0)
    matrix, vector = rng.random((200, 400)), rng.random(400)
    for _ in range(250):
        scores = matrix @ vector
        np.exp(scores - scores.max()).sum()
        np.log1p(matrix).sum(axis=0)

    big, other = rng.random(2_500_000), rng.random(2_500_000)
    for _ in range(2):
        (big * other + big).sum()
        np.exp(-big).sum()

    index, weights = rng.integers(0, 200, 17_000), rng.random((16, 17_000))
    for _ in range(50):
        for row in weights:
            np.bincount(index, weights=row, minlength=200)
        (weights * weights[::-1]).sum(axis=0)


if __name__ == "__main__":
    main()
