"""The benchmark's generated inputs, pinned by content.

Both generators the benchmark runs, ``generate_synthetic`` (behind
``parsedisamb synth``) and ``perfbench/structural.py`` (which draws its gold
parses from ``structural_values``), must write the same bytes for a seed
whatever the library does inside.  A change to the extractor's key order,
to the draws of the synthetic generator or to the corpus encoding moves
these digests; such a change also moves the benchmark's inputs, so it
belongs with a change to the benchmark.

The outputs of the lexicalized pipeline on the seed-1 structural inputs
are pinned the same way (``PIPELINE_DIGESTS``).
"""

import hashlib
import importlib.util
import os

import pytest

from parsedisamb import (SyntheticConfig, generate_synthetic, load_corpus,
                         save_corpus)
from parsedisamb.cli import main
from parsedisamb.corpus import write_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The structural-lex workload's sizes, with fewer sentences and pair draws.
STRUCTURAL_SIZES = {"sentences": 40, "tokens": [8, 16], "parses": [2, 8],
                    "split": 0.4, "token_types": 400, "verbs": 200,
                    "nouns": 1500, "classes": 16, "pair_draws": 2000}

SYNTHETIC_DIGESTS = {
    1: {"corpus": "83116fc1fcdedb6fde8af4aac54b7e0390aacf8435e9797fbe91f58b58cc9f26",
        "hidden_model": "17ebea5a52933c164073225fd49a280eb590c7c900f510db98324197aa39cc33"},
    2: {"corpus": "82f50ba3275d59a97376d4b11ae988eb544656e6f378c7d12d81fb3a778ef3ad",
        "hidden_model": "71b90045a900f5cb8bd9ca9f03c8e165b165fef77f7e38d0dc687763a9eefe31"},
}
STRUCTURAL_DIGESTS = {
    1: {"train": "f159c979da94d70fcb87720d3a6acdd7d4c02709f73ab24a55fca95203d90ecd",
        "test": "ac5dd5e1a881a7968abcf340fcaaab7e604c3ccabf8383dec8e7a771c3670344",
        "pairs": "5d20dcf6d8c01892c2e7bb4580fa0ebd240072f3a857ce00f3fefab38dc78ab1"},
    2: {"train": "776c18e426e3ca2305f2574742a7857c5e6a80d978a3ec2b9910f38a1122801b",
        "test": "9484bfdc062b391699183ca06b4da8532b2945c75c880d2dcf3990e2333a2735",
        "pairs": "6c7b377d2458fc36a8cc4b1d3bcd7ed87965142e40af5a4296b6e990438b73d0"},
}

# sha256 of the outputs of cluster -> train --lexicalized -> eval on the
# seed-1 structural inputs, per command directory.
PIPELINE_DIGESTS = {
    "cluster": {
        "cluster_model.json": "a1422fcf3e40737dfa5cb360b69ca22f60a7763b95579450165d0ccfe884b90e",
        "freq_table.json": "6581ed27b2dc7c261a37f4f2322e21a693d487f1189d8cf5264390959c647b6a"},
    "train": {
        "registry.json": "efd7e0ca1364d07270d81d69e6d0a4f84c066c2b640647c01082c18cd8c70326",
        "model.json": "3585dd362454cd86c9caed9791b1c6dd2aad242c832dbf3c52edf406ef0110a4",
        "trace.jsonl": "667749d403d28e34c5164cbf9415f3c86fb143a627a165361867aba98eae7bb8"},
    "eval": {
        "report_exact_match.json": "2c3f7670807bb6564e7a6ad1e042adddf3e9d528b56e949b5485ec83e3ccfdb9",
        "report_frame_match.json": "2abce8cd5cb8921464b2cb584e7f931419a48f7698ca2f4b8b873765f09b1747"},
}


def _sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _structural_module():
    """``perfbench/structural.py``, imported from its file."""
    spec = importlib.util.spec_from_file_location(
        "bench_structural", os.path.join(ROOT, "perfbench", "structural.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", sorted(SYNTHETIC_DIGESTS))
def test_synthetic_corpus_is_pinned(tmp_path, seed):
    corpus, description = generate_synthetic(SyntheticConfig(
        n_sentences=60, ambiguity_range=(2, 10), n_features=50, seed=seed))
    save_corpus(corpus, tmp_path / "corpus.jsonl")
    write_json(description, tmp_path / "hidden_model.json")
    assert {"corpus": _sha256(tmp_path / "corpus.jsonl"),
            "hidden_model": _sha256(tmp_path / "hidden_model.json")} \
        == SYNTHETIC_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(STRUCTURAL_DIGESTS))
def test_structural_inputs_are_pinned(tmp_path, seed):
    paths = _structural_module().write_inputs(seed, str(tmp_path),
                                              STRUCTURAL_SIZES)
    assert {name: _sha256(path) for name, path in paths.items()} \
        == STRUCTURAL_DIGESTS[seed]


def _saved_again(path, tmp_path) -> bytes:
    """The bytes ``save_corpus`` writes for the corpus loaded from ``path``."""
    again = tmp_path / f"again-{os.path.basename(path)}"
    save_corpus(load_corpus(path), again)
    return again.read_bytes()


@pytest.mark.parametrize("seed", sorted(SYNTHETIC_DIGESTS))
def test_synthetic_corpus_survives_load_and_save(tmp_path, seed):
    corpus, _ = generate_synthetic(SyntheticConfig(
        n_sentences=60, ambiguity_range=(2, 10), n_features=50, seed=seed))
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    assert _saved_again(path, tmp_path) == path.read_bytes()


@pytest.mark.parametrize("seed", sorted(STRUCTURAL_DIGESTS))
def test_structural_corpora_survive_load_and_save(tmp_path, seed):
    paths = _structural_module().write_inputs(seed, str(tmp_path),
                                              STRUCTURAL_SIZES)
    for name in ("train", "test"):
        with open(paths[name], "rb") as handle:
            assert _saved_again(paths[name], tmp_path) == handle.read()


def test_lexicalized_pipeline_outputs_are_pinned(tmp_path):
    """``cluster -> train --lexicalized -> eval``, with the flags of the
    benchmark's structural-lex workload and seed 1, writes pinned bytes.

    Every step of the class-based lexicalization runs here: cluster EM, the
    frequency table, lexicalized lookups of seen and unseen pairs, property
    selection, training and evaluation on two tasks.  A change that moves
    one of these digests changes what the program writes; it must say why
    in CHANGES.md.
    """
    inputs = _structural_module().write_inputs(1, str(tmp_path / "in"),
                                               STRUCTURAL_SIZES)
    out = {command: str(tmp_path / command) for command in PIPELINE_DIGESTS}
    table = os.path.join(out["cluster"], "freq_table.json")
    seed = ["--seed", "1"]
    assert main(["cluster", "--pairs", inputs["pairs"], "--classes", "16",
                 *seed, "--out-dir", out["cluster"]]) == 0
    assert main(["train", "--corpus", inputs["train"], "--select-cutoff", "5",
                 "--max-iterations", "30", "--checkpoint-every", "30",
                 "--lexicalized", table, *seed, "--out-dir", out["train"]]) == 0
    assert main(["eval", "--model", os.path.join(out["train"], "model.json"),
                 "--corpus", inputs["test"], "--task", "exact", "--task",
                 "frame", "--lex-table", table, *seed,
                 "--out-dir", out["eval"]]) == 0
    assert {command: {name: _sha256(os.path.join(out[command], name))
                      for name in names}
            for command, names in PIPELINE_DIGESTS.items()} == PIPELINE_DIGESTS
