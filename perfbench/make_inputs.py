"""Input writers that the benchmark runs as child processes.

Linux seeds a child's peak-RSS counter with its parent's resident size at
``exec``, so every corpus the bench process itself loaded would inflate
the ``train_rss_mb``/``eval_rss_mb`` it measures.  Set-up therefore runs
here, in its own process:

    python3 perfbench/make_inputs.py structural --seed N --sizes JSON --out-dir DIR
    python3 perfbench/make_inputs.py pairs --corpus TRAIN.jsonl --out PAIRS.tsv
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from parsedisamb import load_corpus, pair_counts_from_corpus, save_pair_counts  # noqa: E402

import structural  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    p = sub.add_parser("structural", help="write the structural workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sizes", type=json.loads, required=True)
    p.add_argument("--out-dir", required=True)
    p = sub.add_parser("pairs", help="write a corpus's (verb, noun) pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.what == "structural":
        structural.write_inputs(args.seed, args.out_dir, args.sizes)
    else:
        save_pair_counts(pair_counts_from_corpus(load_corpus(args.corpus)),
                         args.out)


if __name__ == "__main__":
    main()
