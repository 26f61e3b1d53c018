"""The benchmark's generated inputs, pinned by content.

Both generators the benchmark runs, ``generate_synthetic`` (behind
``parsedisamb synth``) and ``perfbench/structural.py`` (which draws its gold
parses from ``structural_values``), must write the same bytes for a seed
whatever the library does inside.  A change to the extractor's key order,
to the draws of the synthetic generator or to the corpus encoding moves
these digests; such a change also moves the benchmark's inputs, so it
belongs with a change to the benchmark.
"""

import hashlib
import importlib.util
import os

import pytest

from parsedisamb import (SyntheticConfig, generate_synthetic, load_corpus,
                         save_corpus)
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
