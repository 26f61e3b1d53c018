"""The benchmark's generated inputs, pinned by content.

Both generators the benchmark runs, ``generate_synthetic`` (behind
``parsedisamb synth``) and ``perfbench/structural.py`` (which draws its gold
parses from ``structural_values``), must write the same bytes for a seed
whatever the library does inside.  A change to the extractor's key order,
to the draws of the synthetic generator or to the corpus encoding moves
these digests; such a change also moves the benchmark's inputs, so it
belongs with a change to the benchmark.

The outputs and stdout of the CLI pipeline of each workload, on seed-1
inputs, are pinned the same way (``PIPELINE_DIGESTS``, ``TRAIN_TOL_DIGESTS``).
Training's outputs also depend on the SIMD kernels numpy dispatches to:
``np.exp`` and ``np.log`` round differently in their AVX-512 kernels.  With
numpy 2.4, the pins above hold where numpy reports X86_V4, AVX512_ICL and
AVX512_SPR, and the ``*_WITHOUT_AVX512`` pins where it reports none of
them, as on a CPU with AVX2 at most.  CPUs with X86_V4 but not all of its
later AVX-512 subsets are unverified.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import parsedisamb
from parsedisamb import (SyntheticConfig, generate_synthetic, load_corpus,
                         pair_counts_from_corpus, save_corpus,
                         save_pair_counts)
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
# seed-1 structural inputs, per command: every file written but the
# manifest, and the command's stdout.
PIPELINE_DIGESTS = {
    "cluster": {
        "cluster_model.json": "a1422fcf3e40737dfa5cb360b69ca22f60a7763b95579450165d0ccfe884b90e",
        "freq_table.json": "6581ed27b2dc7c261a37f4f2322e21a693d487f1189d8cf5264390959c647b6a",
        "stdout": "5a2fa1841f42d942a0e32d12cf2c62e8d021fc4f632f3562f71bad4ef2d3bc2d",
        "trace.jsonl": "3c6d9bf3738e44d9fc636a07de2ede2d7c5fd519ece9a5df66e6fc42855eaf8f"},
    "train": {
        "checkpoints/checkpoint_0000.json": "a577f346116a85fe6d1a2286afb4294b94c66903907f77b14d0d4969c14002c8",
        "checkpoints/checkpoint_0030.json": "3585dd362454cd86c9caed9791b1c6dd2aad242c832dbf3c52edf406ef0110a4",
        "model.json": "3585dd362454cd86c9caed9791b1c6dd2aad242c832dbf3c52edf406ef0110a4",
        "registry.json": "efd7e0ca1364d07270d81d69e6d0a4f84c066c2b640647c01082c18cd8c70326",
        "stdout": "6946c1f63080ff57456f8aa61e3e89f6253fdd8b3a6f1cf1286f04f7e824945c",
        "trace.jsonl": "77dc97000a28a478feb7641adddf55e9313201c8c60f8ff2f044dd35edfa392b"},
    "eval": {
        "report_exact_match.json": "2c3f7670807bb6564e7a6ad1e042adddf3e9d528b56e949b5485ec83e3ccfdb9",
        "report_frame_match.json": "2abce8cd5cb8921464b2cb584e7f931419a48f7698ca2f4b8b873765f09b1747",
        "stdout": "ee57ff7cf5db056a743bbe4dd2c5a24522be2cb475171436d509f2ba9bea93b7"}}

# The same for synth -> pairs -> cluster -> train -> eval with the flags of
# the benchmark's train-tol workload, on a smaller synthetic corpus.
TRAIN_TOL_DIGESTS = {
    "synth": {
        "hidden_model.json": "00809c33e97c162e2b187af411682541436d910a49b5c27f73457f6b500e91a3",
        "stdout": "6596c5fa65552b9a9fe4f19872897038f53e686b2ab966a7376f083e3ad3b158",
        "test.jsonl": "5735e5024f1a3aeb6aa6c91ba72c3143def31f496dc389e58a88610d2bc334c5",
        "train.jsonl": "1a71279a122ec3a46083751e54f571c3b425ea38696fa6cdff58c7b513d4da3d"},
    "pairs": {
        "pairs.tsv": "e20ed4301e9514d5aea17de49a8d263d75e315e985c2b307570fe0fafc0c8e81"},
    "cluster": {
        "cluster_model.json": "c50510abfbecee0942fadde531fe26196e7a910fb7a036a665aa2315cf8e7b79",
        "freq_table.json": "8411076150b55d43220e45cde0870f71e1ccd374c16bb89195d1c0ebecde7e29",
        "stdout": "f6710bb51e7e677dc7fd7ce5a5864546ec9a464f948dce74460d914525399df2",
        "trace.jsonl": "875b8565df380e4dae6723dd91f5ea4860819960f918277c69276078ee901d81"},
    "train": {
        "checkpoints/checkpoint_0000.json": "f88d48b1fecc3b0f1a3b0c7f7afe0688b78d3e03456b676bc15af3bdd4dbb011",
        "checkpoints/checkpoint_0433.json": "0ee51f00d060a3c461064ead105ec3954163d1a9d93b672ae7aa0590b50665af",
        "model.json": "0ee51f00d060a3c461064ead105ec3954163d1a9d93b672ae7aa0590b50665af",
        "registry.json": "27176dc0ac7c7075f30eac69b02f17c0738a53f3260383c687746c907db2c6c4",
        "stdout": "739b400a0754234cafeac8499f34220aa0c0a7aef0194f76938323efde145680",
        "trace.jsonl": "c10617e40a3627787beddcd0ce3951f41d64b876f42cf9d81b5f1dfef2ab3bcb"},
    "eval": {
        "baseline_exact_match.json": "03a64af62b1c46868e80613a5226d181f3abf15194b75c4ae6352dcc5850755d",
        "report_exact_match.json": "226e87f72c95db5a81663c88d54a36ca2671b155b6bd53438713e6551418728d",
        "stdout": "4c1c32b503432657e957c2d15832e2745e97d914240f80b5109c3d5f36252676",
        "sweep_exact_match.csv": "a20e5c4c9d88d1c655f09e28598705cdc7a7e6e3af3b6ad0a8a9df2e7f35db3d"}}


# The train outputs of each pipeline where numpy dispatches to no AVX-512
# kernel (``WITHOUT_AVX512``).  Only the model, the trace and the last
# checkpoint differ from the pins above.
PIPELINE_TRAIN_WITHOUT_AVX512 = {
    "checkpoints/checkpoint_0000.json": "a577f346116a85fe6d1a2286afb4294b94c66903907f77b14d0d4969c14002c8",
    "checkpoints/checkpoint_0030.json": "1e171c6c1215ccddaad0266f7cf805ef6b275ff9ff16533e70a6881dac819332",
    "model.json": "1e171c6c1215ccddaad0266f7cf805ef6b275ff9ff16533e70a6881dac819332",
    "registry.json": "efd7e0ca1364d07270d81d69e6d0a4f84c066c2b640647c01082c18cd8c70326",
    "stdout": "6946c1f63080ff57456f8aa61e3e89f6253fdd8b3a6f1cf1286f04f7e824945c",
    "trace.jsonl": "703e7e49de02cb6977f33b7fecb133a9590247318b89cdf1aae04082b1055714"}
TRAIN_TOL_TRAIN_WITHOUT_AVX512 = {
    "checkpoints/checkpoint_0000.json": "f88d48b1fecc3b0f1a3b0c7f7afe0688b78d3e03456b676bc15af3bdd4dbb011",
    "checkpoints/checkpoint_0433.json": "3a166a5478403635968e11c835973f990d7ca18a69288ec58d0ce2d20ee082e4",
    "model.json": "3a166a5478403635968e11c835973f990d7ca18a69288ec58d0ce2d20ee082e4",
    "registry.json": "27176dc0ac7c7075f30eac69b02f17c0738a53f3260383c687746c907db2c6c4",
    "stdout": "739b400a0754234cafeac8499f34220aa0c0a7aef0194f76938323efde145680",
    "trace.jsonl": "b231558a29d815808f257004f6c6105302866af068bb88a88d2368ecb5bd3e7d"}


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


# Makes numpy in a child process dispatch as on a CPU without AVX-512.
WITHOUT_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def _pinned(digests: dict, train_without_avx512: dict) -> dict:
    """``digests`` with the train outputs of the dispatch class numpy runs
    in here."""
    if __cpu_features__.get("X86_V4"):
        return digests
    return {**digests, "train": train_without_avx512}


def _pinned_run(argv, out_dir) -> dict:
    """sha256 of the stdout of ``main(argv)`` and of each file it writes
    under ``out_dir``, the manifest aside (it holds a timestamp)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([*argv, "--out-dir", out_dir]) == 0
    digests = {"stdout": hashlib.sha256(
        stdout.getvalue().encode("utf-8")).hexdigest()}
    for root, _, names in os.walk(out_dir):
        for name in names:
            if name != "manifest.json":
                path = os.path.join(root, name)
                digests[os.path.relpath(path, out_dir)] = _sha256(path)
    return digests


def lexicalized_pipeline() -> dict:
    """Digests of ``cluster -> train --lexicalized -> eval`` on the seed-1
    structural inputs, written under the working directory."""
    inputs = _structural_module().write_inputs(1, "in", STRUCTURAL_SIZES)
    table = os.path.join("cluster", "freq_table.json")
    seed = ["--seed", "1"]
    argv = {
        "cluster": ["cluster", "--pairs", inputs["pairs"], "--classes", "16",
                    *seed],
        "train": ["train", "--corpus", inputs["train"], "--select-cutoff", "5",
                  "--max-iterations", "30", "--checkpoint-every", "30",
                  "--lexicalized", table, *seed],
        "eval": ["eval", "--model", os.path.join("train", "model.json"),
                 "--corpus", inputs["test"], "--task", "exact", "--task",
                 "frame", "--lex-table", table, *seed]}
    return {command: _pinned_run(argv[command], command) for command in argv}


def train_tol_pipeline() -> dict:
    """Digests of ``synth -> pairs -> cluster -> train -> eval`` with the
    train-tol flags and seed 1, written under the working directory."""
    seed = ["--seed", "1"]
    got = {"synth": _pinned_run(
        ["synth", "--sentences", "200", "--ambiguity", "2", "10",
         "--features", "8", "--split", "0.8", *seed], "synth")}
    save_pair_counts(pair_counts_from_corpus(
        load_corpus(os.path.join("synth", "train.jsonl"))), "pairs.tsv")
    got["pairs"] = {"pairs.tsv": _sha256("pairs.tsv")}
    got["cluster"] = _pinned_run(
        ["cluster", "--pairs", "pairs.tsv", "--classes", "16", *seed],
        "cluster")
    got["train"] = _pinned_run(
        ["train", "--corpus", os.path.join("synth", "train.jsonl"),
         "--tolerance", "1e-8", "--max-iterations", "4000",
         "--checkpoint-every", "2000", *seed], "train")
    got["eval"] = _pinned_run(
        ["eval", "--model", os.path.join("train", "model.json"),
         "--corpus", os.path.join("synth", "test.jsonl"), "--task", "exact",
         "--baseline", "10", "--checkpoints",
         os.path.join("train", "checkpoints"), *seed], "eval")
    return got


def test_lexicalized_pipeline_outputs_are_pinned(tmp_path, monkeypatch):
    """``cluster -> train --lexicalized -> eval``, with the flags of the
    benchmark's structural-lex workload and seed 1, writes pinned bytes.

    Every step of the class-based lexicalization runs here: cluster EM, the
    frequency table, lexicalized lookups of seen and unseen pairs, property
    selection, training and evaluation on two tasks.  A change that moves
    one of these digests changes what the program writes; it must say why
    in CHANGES.md.
    """
    monkeypatch.chdir(tmp_path)
    assert lexicalized_pipeline() == _pinned(
        PIPELINE_DIGESTS, PIPELINE_TRAIN_WITHOUT_AVX512)


def test_unlexicalized_pipeline_outputs_are_pinned(tmp_path, monkeypatch):
    """``synth -> pairs -> cluster -> train -> eval`` with the flags of the
    benchmark's train-tol workload and seed 1, at 200 sentences: training
    to tolerance (433 iterations), checkpoints, the random baseline and the
    checkpoint sweep write pinned bytes."""
    monkeypatch.chdir(tmp_path)
    assert train_tol_pipeline() == _pinned(
        TRAIN_TOL_DIGESTS, TRAIN_TOL_TRAIN_WITHOUT_AVX512)


def test_pipelines_are_pinned_without_avx512(tmp_path):
    """Both pinned pipelines, run in a child process whose numpy dispatches
    to no AVX-512 kernel, write the other dispatch class's pins."""
    script = "\n".join([
        "import json, os, test_bench_inputs as pins",
        "found = [pins.__cpu_features__.get('X86_V4', False)]",
        "for name in ('lexicalized', 'train_tol'):",
        "    os.mkdir(name)",
        "    os.chdir(name)",
        "    found.append(getattr(pins, name + '_pipeline')())",
        "    os.chdir('..')",
        "print(json.dumps(found))"])
    path = os.pathsep.join([
        os.path.dirname(os.path.dirname(parsedisamb.__file__)),
        os.path.dirname(os.path.abspath(__file__))])
    child = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
        text=True, env={**os.environ, **WITHOUT_AVX512, "PYTHONPATH": path})
    assert child.returncode == 0, child.stderr
    avx512, lexicalized, train_tol = json.loads(child.stdout)
    assert avx512 is False
    assert lexicalized == {**PIPELINE_DIGESTS,
                           "train": PIPELINE_TRAIN_WITHOUT_AVX512}
    assert train_tol == {**TRAIN_TOL_DIGESTS,
                         "train": TRAIN_TOL_TRAIN_WITHOUT_AVX512}
