"""Loader fuzz: one JSON value at a time replaced by a value of another shape.

Every variant of a corpus line (structural and passthrough), the corpus
header, a model with its embedded registry, and a frequency table either
loads or raises a DataError naming the file, and for corpora the line.
An object of any of these documents, or of a cluster model, that gains a key
no loader knows is rejected the same way.
A variant whose new value has another JSON type than the old one (integers
and fractions are one number type) is rejected, with three exceptions: null,
which optional fields take; an integer sentence or parse id; and a string
leaf in place of a c-structure node.  Through the CLI (``stats`` and
``eval``) the exit code is 0 or 2; any other exception would escape
``main`` and fail the test.  A config file of any command, one value
replaced, exits 0, 1 or 2.

Byte-level faults: a corpus, a model, a frequency table, a pair file and a
config file, each with one byte replaced by 0xff (never UTF-8), with CRLF
line ends and with lone-CR line ends, run through every command that reads
them.  The 0xff byte is a data error (a configuration error in a config
file) naming the file, and for a corpus or a pair file the line.  CRLF line
ends give the stdout and outputs of LF ones.  Lone CRs leave one line,
which a corpus or a pair file rejects at line 1 and a JSON document reads
as whitespace.  No run prints a traceback.
"""

import contextlib
import copy
import io
import json
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parsedisamb import (DataError, load_corpus, load_model,
                         pair_counts_from_corpus, save_pair_counts)
from parsedisamb import cli
from parsedisamb import corpus as corpus_module
from parsedisamb.cli import main
from parsedisamb.corpus import read_json
from parsedisamb.lexicalization import (CLUSTER_KEYS, FREQ_TABLE_KEYS,
                                        ClusterModel, load_freq_table)
from parsedisamb.model import MODEL_KEYS
from parsedisamb.properties import DESCRIPTOR_KEYS, REGISTRY_KEYS

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# Replacement values: null, numbers, strings, lists and objects.  Numeric
# strings and small fractions probe loaders that convert or truncate.
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.5, 1.5, 2.9, "1", "0.5", "1_0", " 1"]),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(0, 2), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=2))

# Keys that no object of a document may carry: not a field name of any
# record, and not an integer, which a precomputed feature takes.
FIELDS = (corpus_module._SENTENCE_KEYS | corpus_module._PARSE_KEYS
          | corpus_module._FSTRUCTURE_KEYS | corpus_module._HEADER_KEYS
          | MODEL_KEYS | REGISTRY_KEYS | DESCRIPTOR_KEYS | CLUSTER_KEYS
          | FREQ_TABLE_KEYS)
EXTRA_KEYS = st.one_of(
    st.sampled_from(["wieght", "gold_idx", "cstructur", "function",
                     "activation_cout", "universe_sise", "Weight", "entires",
                     "n_clases", "verison", ""]),
    st.text(max_size=6)).filter(
        lambda key: key not in FIELDS and not key.lstrip("-").isdigit())

HEADER = {"format": "forest-corpus", "version": 1}
STRUCTURAL_LINE = {
    "sentence_id": "fuzzed", "tokens": ["a", "b"], "weight": 1.0,
    "gold_index": 0,
    "parses": [
        {"parse_id": "p0",
         "cstructure": ["S", [["NP", ["a"]], ["VP", ["b"]]]],
         "fstructure": {"pairs": [["TENSE", "past"]],
                        "functions": ["SUBJ", "ADJUNCT"]},
         "relations": [["subj", "v0", "n1", "active", 1]], "frame": "f0"},
        {"parse_id": "p1", "cstructure": ["S", ["a", ["VP", ["b"]]]],
         "fstructure": {"pairs": [], "functions": ["OBJ"]},
         "relations": [["dobj", "v0", "n2", "passive", 1]], "frame": "f1"}]}


def _paths(value, prefix=()):
    """Every location in a JSON document, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _paths(value[key], prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _variants(doc):
    return st.tuples(st.sampled_from(list(_paths(doc))), VALUES)


def _extra_keys(doc):
    """Variants that add a key no loader knows to one object of ``doc``."""
    objects = [path for path in _paths(doc) if isinstance(_at(doc, path), dict)]
    return st.tuples(st.tuples(st.sampled_from(objects), EXTRA_KEYS).map(
        lambda drawn: drawn[0] + (drawn[1],)), VALUES)


def _json_type(value):
    return float if value.__class__ is int else value.__class__


def _retyped(doc, path, value):
    """Whether the variant changes the JSON type of a value that must keep
    it (see the module docstring)."""
    old = _at(doc, path)
    return not (value is None or old is None
                or _json_type(value) is _json_type(old)
                or (path[-1:] in (("sentence_id",), ("parse_id",))
                    and value.__class__ is int)
                or ("cstructure" in path and value.__class__ is str))


def _check_load(load, path, prefix, must_fail):
    try:
        load(path)
    except DataError as exc:
        assert str(exc).startswith(prefix), str(exc)
    else:
        assert not must_fail, "a value of another JSON type loaded"


def _load_cluster_model(path):
    return read_json(path, ClusterModel.from_json_dict)


def _write_json(path, doc):
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A small synthetic corpus, its cluster model and frequency table, and
    a lexicalized model trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--sentences", "24", "--ambiguity", "1", "4",
                 "--features", "5", "--seed", "3", "--split", "0.75",
                 "--out-dir", str(root / "synth")]) == 0
    save_pair_counts(pair_counts_from_corpus(
        load_corpus(root / "synth" / "train.jsonl")), root / "pairs.tsv")
    assert main(["cluster", "--pairs", str(root / "pairs.tsv"),
                 "--classes", "2", "--max-iterations", "5",
                 "--out-dir", str(root / "clusters")]) == 0
    assert main(["train", "--corpus", str(root / "synth" / "train.jsonl"),
                 "--lexicalized", str(root / "clusters" / "freq_table.json"),
                 "--max-iterations", "3",
                 "--out-dir", str(root / "model")]) == 0
    return root


def _eval(artifacts, model, corpus, table):
    return main(["eval", "--model", str(model), "--corpus", str(corpus),
                 "--lex-table", str(table),
                 "--out-dir", str(artifacts / "eval")])


def _check_corpus(artifacts, lines, fuzzed_line, must_fail):
    path = artifacts / "fuzzed.jsonl"
    path.write_text("".join(json.dumps(line, sort_keys=True) + "\n"
                            for line in lines))
    _check_load(load_corpus, path, f"{path}: line {fuzzed_line}: ", must_fail)
    codes = (2,) if must_fail else (0, 2)
    assert main(["stats", "--corpus", str(path)]) in codes
    assert _eval(artifacts, artifacts / "model" / "model.json", path,
                 artifacts / "clusters" / "freq_table.json") in codes


def _test_lines(artifacts):
    text = (artifacts / "synth" / "test.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines()[1:3]]


class TestLoaderFuzz:
    @FUZZ
    @given(_variants(STRUCTURAL_LINE))
    def test_structural_corpus_line(self, artifacts, variant):
        other = _test_lines(artifacts)[0]
        _check_corpus(artifacts, [HEADER, _replaced(STRUCTURAL_LINE, *variant),
                                  other], 2,
                      _retyped(STRUCTURAL_LINE, *variant))

    @FUZZ
    @given(st.data())
    def test_passthrough_corpus_line(self, artifacts, data):
        line, other = _test_lines(artifacts)
        variant = data.draw(_variants(line))
        _check_corpus(artifacts, [HEADER, _replaced(line, *variant), other], 2,
                      _retyped(line, *variant))

    @FUZZ
    @given(st.data())
    def test_extra_key(self, artifacts, data):
        line, other = _test_lines(artifacts)
        name = data.draw(st.sampled_from(
            ["header", "structural line", "passthrough line", "model",
             "freq_table", "cluster_model"]))
        if name == "header":
            _check_corpus(artifacts,
                          [_replaced(HEADER, *data.draw(_extra_keys(HEADER))),
                           line, other], 1, True)
            return
        if name.endswith("line"):
            doc = STRUCTURAL_LINE if name == "structural line" else line
            _check_corpus(artifacts,
                          [HEADER, _replaced(doc, *data.draw(_extra_keys(doc))),
                           other], 2, True)
            return
        load, directory = {"model": (load_model, "model"),
                           "freq_table": (load_freq_table, "clusters"),
                           "cluster_model": (_load_cluster_model, "clusters")
                           }[name]
        doc = json.loads((artifacts / directory / f"{name}.json").read_text())
        path = artifacts / f"fuzzed_{name}.json"
        _write_json(path, _replaced(doc, *data.draw(_extra_keys(doc))))
        _check_load(load, path, f"{path}: ", True)
        model = artifacts / "model" / "model.json"
        table = artifacts / "clusters" / "freq_table.json"
        if name != "cluster_model":  # no command reads a cluster model
            assert _eval(artifacts, path if name == "model" else model,
                         artifacts / "synth" / "test.jsonl",
                         path if name == "freq_table" else table) == 2

    @pytest.mark.parametrize("name, key", [("header", "verison"),
                                           ("freq_table", "entires"),
                                           ("cluster_model", "n_clases")])
    def test_misspelled_key(self, artifacts, capsys, name, key):
        if name == "header":
            path = artifacts / "fuzzed.jsonl"
            path.write_text("".join(json.dumps(line) + "\n" for line in [
                {**HEADER, key: 2}, *_test_lines(artifacts)]))
            assert main(["stats", "--corpus", str(path)]) == 2
            assert capsys.readouterr().err == (
                f"data error: {path}: line 1: forest-corpus document has "
                f"unknown keys: {key!r}\n")
            return
        doc = json.loads(
            (artifacts / "clusters" / f"{name}.json").read_text())
        path = artifacts / f"fuzzed_{name}.json"
        _write_json(path, {**doc, key: []})
        load = load_freq_table if name == "freq_table" else _load_cluster_model
        _check_load(load, path, f"{path}: ", True)

    @FUZZ
    @given(_variants(HEADER))
    def test_corpus_header(self, artifacts, variant):
        _check_corpus(artifacts, [_replaced(HEADER, *variant),
                                  *_test_lines(artifacts)], 1,
                      _retyped(HEADER, *variant))

    @FUZZ
    @given(st.data())
    def test_model(self, artifacts, data):
        doc = json.loads((artifacts / "model" / "model.json").read_text())
        path = artifacts / "fuzzed_model.json"
        variant = data.draw(_variants(doc))
        _write_json(path, _replaced(doc, *variant))
        _check_load(load_model, path, f"{path}: ", _retyped(doc, *variant))
        assert _eval(artifacts, path, artifacts / "synth" / "test.jsonl",
                     artifacts / "clusters" / "freq_table.json") in (0, 2)

    @FUZZ
    @given(st.data())
    def test_freq_table(self, artifacts, data):
        doc = json.loads(
            (artifacts / "clusters" / "freq_table.json").read_text())
        path = artifacts / "fuzzed_table.json"
        variant = data.draw(_variants(doc))
        _write_json(path, _replaced(doc, *variant))
        _check_load(load_freq_table, path, f"{path}: ", _retyped(doc, *variant))
        assert _eval(artifacts, artifacts / "model" / "model.json",
                     artifacts / "synth" / "test.jsonl", path) in (0, 2)


def _configs(artifacts):
    """A config file of each command that sets every key."""
    synth, model = artifacts / "synth", artifacts / "model"
    table = str(artifacts / "clusters" / "freq_table.json")
    return {
        "train": {"corpus": str(synth / "train.jsonl"), "parsebank": False,
                  "max_parses": 4, "select_cutoff": 1, "lexicalized": table,
                  "init": "random", "init_range": 0.5, "max_iterations": 3,
                  "tolerance": 1e-8, "checkpoint_every": 2,
                  "complete_data": False, "seed": 1, "out_dir": "unused"},
        "eval": {"model": str(model / "model.json"),
                 "corpus": str(synth / "test.jsonl"),
                 "task": ["exact", "frame"], "tie_epsilon": 1e-9,
                 "baseline": 2, "lambda_range": 1.0,
                 "checkpoints": str(model / "checkpoints"),
                 "lex_table": table, "seed": 1, "out_dir": "unused"},
        "cluster": {"pairs": str(artifacts / "pairs.tsv"), "classes": 2,
                    "max_iterations": 5, "tolerance": 1e-6, "seed": 1,
                    "out_dir": "unused"},
        "synth": {"sentences": 20, "ambiguity": [1, 4], "features": 5,
                  "relations": 2, "split": 0.5, "seed": 1,
                  "out_dir": "unused"},
        "stats": {"corpus": str(synth / "test.jsonl"), "out_dir": "unused"}}


def _main_with_config(artifacts, command, doc):
    # The explicit --out-dir wins, so a fuzzed out_dir writes nowhere.
    path = artifacts / "fuzzed_config.json"
    _write_json(path, doc)
    return main([command, "--config", str(path),
                 "--out-dir", str(artifacts / "config_out")])


class TestConfigFuzz:
    def test_every_key_of_every_command_runs(self, artifacts):
        for command, doc in _configs(artifacts).items():
            assert set(doc) == set(getattr(cli, f"{command.upper()}_DEFAULTS"))
            assert _main_with_config(artifacts, command, doc) == 0

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_one_value_replaced(self, artifacts, data):
        configs = _configs(artifacts)
        command = data.draw(st.sampled_from(sorted(configs)))
        key = data.draw(st.sampled_from(sorted(configs[command])))
        doc = {**configs[command], key: data.draw(VALUES)}
        assert _main_with_config(artifacts, command, doc) in (0, 1, 2)


def _readers(artifacts, kind, path):
    """argv of each command that reads a file of ``kind``, with ``path`` in
    its place."""
    model = str(artifacts / "model" / "model.json")
    corpus = str(artifacts / "synth" / "test.jsonl")
    table = str(artifacts / "clusters" / "freq_table.json")
    out = ["--out-dir", str(artifacts / "bytes_out")]
    path = str(path)
    return {
        "corpus": [["stats", "--corpus", path, *out],
                   ["eval", "--model", model, "--corpus", path,
                    "--lex-table", table, *out],
                   ["train", "--corpus", path, "--lexicalized", table,
                    "--max-iterations", "2", *out]],
        "model": [["eval", "--model", path, "--corpus", corpus,
                   "--lex-table", table, *out]],
        "table": [["eval", "--model", model, "--corpus", corpus,
                   "--lex-table", path, *out],
                  ["train", "--corpus", corpus, "--lexicalized", path,
                   "--max-iterations", "2", *out]],
        "pairs": [["cluster", "--pairs", path, "--classes", "2",
                   "--max-iterations", "5", *out]],
        "config": [["eval", "--config", path, *out]]}[kind]


def _byte_source(artifacts, kind) -> bytes:
    if kind == "config":  # indented, so that it has line ends
        return json.dumps(_configs(artifacts)["eval"], indent=1).encode()
    return (artifacts / {"corpus": "synth/test.jsonl",
                         "model": "model/model.json",
                         "table": "clusters/freq_table.json",
                         "pairs": "pairs.tsv"}[kind]).read_bytes()


def _run_quietly(argv, out_dir):
    """(exit code, stderr, stdout, every output but the manifest) of
    ``main(argv)``, which writes under ``out_dir``; an exception escapes."""
    shutil.rmtree(out_dir, ignore_errors=True)
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    outputs = {os.path.relpath(os.path.join(root, name), out_dir):
               open(os.path.join(root, name), "rb").read()
               for root, _, names in os.walk(out_dir) for name in names
               if name != "manifest.json"}
    return code, err.getvalue(), out.getvalue(), outputs


BYTE_KINDS = ["corpus", "model", "table", "pairs", "config"]
NEWLINE = b"\n"


class TestByteFuzz:
    @pytest.mark.parametrize("kind", BYTE_KINDS)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(at=st.floats(0, 1, exclude_max=True))
    def test_one_byte_replaced_by_0xff(self, artifacts, kind, at):
        data = _byte_source(artifacts, kind)
        at = int(at * len(data))
        path = artifacts / f"bytes_{kind}"
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        where = str(path)
        if kind in ("corpus", "pairs"):
            where += f": line {data.count(NEWLINE, 0, at) + 1}"
        error = "configuration" if kind == "config" else "data"
        for argv in _readers(artifacts, kind, path):
            code, err, _, _ = _run_quietly(argv, artifacts / "bytes_out")
            assert code == (1 if kind == "config" else 2)
            assert err.startswith(f"{error} error: {where}: not UTF-8 text (")

    @pytest.mark.parametrize("kind", BYTE_KINDS)
    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
    def test_line_ends(self, artifacts, kind, ending):
        data = _byte_source(artifacts, kind)
        path, original = (artifacts / f"bytes_{kind}",
                          artifacts / f"bytes_{kind}_lf")
        path.write_bytes(data.replace(NEWLINE, ending))
        original.write_bytes(data)
        out_dir = artifacts / "bytes_out"
        for argv, original_argv in zip(_readers(artifacts, kind, path),
                                       _readers(artifacts, kind, original)):
            run = _run_quietly(argv, out_dir)
            if ending == b"\r" and kind in ("corpus", "pairs"):
                fault = ("invalid JSON" if kind == "corpus"
                         else "expected verb<TAB>noun<TAB>count")
                assert run[:2] == (2, f"data error: {path}: line 1: {fault}\n")
            else:
                assert run[:2] == (0, "")
                assert run == _run_quietly(original_argv, out_dir)
