"""Artifact files: atomic writes, older formats, bit-exact round-trips."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsedisamb import (ConfigError, DataError, PairCounts,
                         build_feature_matrix, build_freq_table, evaluate,
                         load_model, new_model, normalize, save_corpus,
                         save_model, save_registry, train_clusters)
from parsedisamb.cli import main
from parsedisamb.corpus import atomic_write, read_json, write_json
from parsedisamb.lexicalization import ClusterModel, load_freq_table
from parsedisamb.model import LogLinearModel
from parsedisamb.properties import (ALL_KINDS, PropertyDescriptor,
                                    PropertyRegistry)
from conftest import corrected_registry, passthrough_corpus


class TestAtomicWrite:
    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"kept": True}, path)
        before = path.read_bytes()
        # The unencodable value raises inside the atomic block.
        with pytest.raises(TypeError):
            write_json({"a": list(range(1000)), "b": object()}, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.json"]

    def test_exception_in_the_block(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write("partial\n")
                raise RuntimeError("interrupted")
        assert os.listdir(tmp_path) == []

    def test_bytes_and_mode_match_a_plain_write(self, tmp_path):
        doc = {"b": [1.5, -0.1, 1e-300, 2**60], "a": "é", "c": {"z": None}}
        # Unindented documents are encoded by json's C encoder.
        for indent in (None, 1):
            write_json(doc, tmp_path / "atomic.json", indent=indent)
            with open(tmp_path / "plain.json", "w", encoding="utf-8") as handle:
                json.dump(doc, handle, sort_keys=True, indent=indent)
                handle.write("\n")
            assert (tmp_path / "atomic.json").read_bytes() == \
                (tmp_path / "plain.json").read_bytes()
            assert os.stat(tmp_path / "atomic.json").st_mode == \
                os.stat(tmp_path / "plain.json").st_mode


# A model and its registry as written before models dropped the reference
# kind and registries the "frozen" flag and each descriptor's "index".
OLDER_REGISTRY = {
    "correction_K": 3.0, "format": "property-registry", "frozen": True,
    "properties": [
        {"activation_count": 3, "index": 0, "key": "000000",
         "kind": "passthrough"},
        {"activation_count": 2, "index": 1, "key": "000001",
         "kind": "passthrough"},
        {"activation_count": 2, "index": 2, "key": "000002",
         "kind": "passthrough"},
        {"activation_count": 3, "index": 3, "key": "K", "kind": "correction"}],
    "version": 1}
OLDER_MODEL = {
    "format": "loglinear-model", "lambda": [0.5, -0.25, 0.125, 0.0],
    "reference_kind": "uniform", "registry": OLDER_REGISTRY,
    "universe": "9a7b6e7221830e97ee7c223ea973d91500e543886dd8ac8c8deebfa24ea98bc6",
    "universe_size": 5, "version": 1}


def _older_corpus():
    return passthrough_corpus([[{0: 1, 1: 2}, {1: 1}],
                               [{0: 2}, {0: 1, 2: 1}, {2: 3}]], golds=[0, 2])


def _decisions(model, corpus):
    return [(v.decision_kind, v.chosen_parse_ids)
            for v in evaluate(model, corpus).verdicts]


class TestOlderFormats:
    def test_older_model_and_registry_load(self, tmp_path):
        corpus = _older_corpus()
        registry = corrected_registry(corpus)
        features = build_feature_matrix(corpus, registry)
        model = new_model(features, lam=np.array(OLDER_MODEL["lambda"]))
        write_json(OLDER_MODEL, tmp_path / "model.json")
        write_json(OLDER_REGISTRY, tmp_path / "registry.json", indent=1)

        older = load_model(tmp_path / "model.json")
        # Older models record the corpus content digest as their universe:
        # they evaluate as before, but normalize rejects them against the
        # compiled universe, whose digest covers the matrix.
        assert older.universe == corpus.content_digest() != model.universe
        with pytest.raises(ConfigError, match="universe"):
            normalize(older, features)
        assert older.registry == registry
        assert read_json(tmp_path / "registry.json",
                         PropertyRegistry.from_json_dict) == registry
        assert _decisions(older, corpus) == _decisions(model, corpus)
        # Saving again writes none of these keys.
        save_model(older, tmp_path / "again.json")
        doc = json.loads((tmp_path / "again.json").read_text())
        assert "reference_kind" not in doc
        assert "frozen" not in doc["registry"]
        assert all(set(d) == {"kind", "key", "activation_count"}
                   for d in doc["registry"]["properties"])

    def test_explicit_reference_is_a_data_error(self, tmp_path):
        doc = dict(OLDER_MODEL, reference_kind="explicit",
                   reference_weights=[0.2] * 5)
        write_json(doc, tmp_path / "model.json")
        with pytest.raises(DataError, match="reference"):
            load_model(tmp_path / "model.json")

    def test_eval_of_an_explicit_reference_exits_2(self, tmp_path, capsys):
        save_corpus(_older_corpus(), tmp_path / "test.jsonl")
        doc = dict(OLDER_MODEL, reference_kind="explicit",
                   reference_weights=[0.2] * 5)
        write_json(doc, tmp_path / "model.json")
        code = main(["eval", "--model", str(tmp_path / "model.json"),
                     "--corpus", str(tmp_path / "test.jsonl"),
                     "--out-dir", str(tmp_path / "eval")])
        assert code == 2
        assert "reference" in capsys.readouterr().err

    def test_eval_of_a_wrong_index_exits_2(self, tmp_path, capsys):
        save_corpus(_older_corpus(), tmp_path / "test.jsonl")
        doc = json.loads(json.dumps(OLDER_MODEL))
        doc["registry"]["properties"][1]["index"] = 2
        write_json(doc, tmp_path / "model.json")
        code = main(["eval", "--model", str(tmp_path / "model.json"),
                     "--corpus", str(tmp_path / "test.jsonl"),
                     "--out-dir", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{tmp_path / 'model.json'}: descriptor 1 records index 2" in err
        assert "Traceback" not in err

        registry = dict(OLDER_REGISTRY, properties=doc["registry"]["properties"])
        write_json(registry, tmp_path / "registry.json")
        with pytest.raises(DataError, match="descriptor 1 records index 2") \
                as info:
            read_json(tmp_path / "registry.json",
                      PropertyRegistry.from_json_dict)
        assert str(tmp_path / "registry.json") in str(info.value)


class TestBadDocuments:
    @pytest.mark.parametrize("change", [
        pytest.param(lambda doc: doc.pop("lambda"), id="missing-lambda"),
        pytest.param(lambda doc: doc["lambda"].pop(), id="short-lambda"),
        pytest.param(lambda doc: doc.update(universe_size="five"),
                     id="malformed-size"),
        pytest.param(lambda doc: doc["lambda"].__setitem__(0, float("nan")),
                     id="nan-lambda"),
        pytest.param(lambda doc: doc.update(universe_size="5"),
                     id="numeric-string-size"),
        pytest.param(lambda doc: doc.update(universe_size=5.7),
                     id="fractional-size"),
        pytest.param(lambda doc: doc.update(universe_size=True),
                     id="boolean-size"),
        pytest.param(lambda doc: doc["lambda"].__setitem__(0, "1.5"),
                     id="string-lambda"),
        pytest.param(lambda doc: doc["lambda"].__setitem__(0, True),
                     id="boolean-lambda"),
        pytest.param(lambda doc: doc["registry"].update(correction_K=True),
                     id="boolean-correction-K"),
        pytest.param(lambda doc: doc["registry"]["properties"][1].update(
            kind="bogus"), id="unknown-kind"),
        pytest.param(lambda doc: doc["registry"]["properties"][1].update(
            key=3), id="integer-key"),
        pytest.param(lambda doc: doc["registry"]["properties"][1].update(
            activation_count="x"), id="string-activation-count"),
        pytest.param(lambda doc: doc["registry"]["properties"][1].update(
            activation_cout=2), id="misspelled-activation-count"),
        pytest.param(lambda doc: doc["registry"].update(correction_k=3.0),
                     id="misspelled-correction-K"),
        pytest.param(lambda doc: doc.update(universe_sise=5),
                     id="misspelled-universe-size")])
    def test_eval_of_a_bad_model_exits_2(self, tmp_path, capsys, change):
        save_corpus(_older_corpus(), tmp_path / "test.jsonl")
        doc = json.loads(json.dumps(OLDER_MODEL))
        change(doc)
        write_json(doc, tmp_path / "model.json")
        code = main(["eval", "--model", str(tmp_path / "model.json"),
                     "--corpus", str(tmp_path / "test.jsonl"),
                     "--out-dir", str(tmp_path / "eval")])
        assert code == 2
        assert str(tmp_path / "model.json") in capsys.readouterr().err

    def test_overflowing_lambda(self, tmp_path):
        text = json.dumps(OLDER_MODEL).replace('"lambda": [0.5',
                                               '"lambda": [1e400')
        (tmp_path / "model.json").write_text(text)
        with pytest.raises(DataError, match="non-finite"):
            load_model(tmp_path / "model.json")

    def test_overflowing_integer_lambda(self, tmp_path):
        text = json.dumps(OLDER_MODEL).replace('"lambda": [0.5',
                                               '"lambda": [1' + "0" * 400)
        (tmp_path / "model.json").write_text(text)
        with pytest.raises(DataError, match="too large") as info:
            load_model(tmp_path / "model.json")
        assert str(tmp_path / "model.json") in str(info.value)

    def test_duplicate_model_key_names_the_file(self, tmp_path):
        text = json.dumps(OLDER_MODEL).replace(
            '"universe_size": 5', '"universe_size": 5, "universe_size": 6')
        (tmp_path / "model.json").write_text(text)
        with pytest.raises(DataError, match="duplicate key 'universe_size'") \
                as info:
            load_model(tmp_path / "model.json")
        assert str(tmp_path / "model.json") in str(info.value)

    def test_misspelled_descriptor_key_names_the_file(self, tmp_path):
        doc = json.loads(json.dumps(OLDER_REGISTRY))
        first = doc["properties"][0]
        first["activation_cout"] = first.pop("activation_count")
        write_json(doc, tmp_path / "registry.json", indent=1)
        with pytest.raises(DataError, match="descriptor 0 has unknown keys: "
                           "'activation_cout'") as info:
            read_json(tmp_path / "registry.json",
                      PropertyRegistry.from_json_dict)
        assert str(tmp_path / "registry.json") in str(info.value)

    @pytest.mark.parametrize("field, value", [
        pytest.param(2, "1e400", id="inf"),
        pytest.param(2, "-1.0", id="negative"),
        pytest.param(2, "1" + "0" * 400, id="overflowing-integer"),
        pytest.param(2, '"0.5"', id="numeric-string"),
        pytest.param(2, "true", id="boolean"),
        pytest.param(0, "7", id="integer-verb")])
    def test_freq_table_entry_must_be_finite_and_nonnegative(
            self, tmp_path, capsys, field, value):
        pairs = PairCounts(counts={("v0", "n0"): 2, ("v1", "n1"): 1})
        clusters, _ = train_clusters(pairs, n_classes=2, seed=1)
        doc = build_freq_table(clusters, pairs).to_json_dict()
        doc["entries"][0][field] = "VALUE"
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc).replace('"VALUE"', value))
        with pytest.raises(DataError) as info:
            load_freq_table(path)
        assert str(info.value).startswith(f"{path}: ")

        corpus = _older_corpus()
        save_corpus(corpus, tmp_path / "corpus.jsonl")
        save_model(new_model(build_feature_matrix(
            corpus, corrected_registry(corpus))), tmp_path / "model.json")
        for argv in (["train", "--corpus", str(tmp_path / "corpus.jsonl"),
                      "--lexicalized", str(path)],
                     ["eval", "--model", str(tmp_path / "model.json"),
                      "--corpus", str(tmp_path / "corpus.jsonl"),
                      "--lex-table", str(path)]):
            assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert str(path) in err and "Traceback" not in err

    def test_freq_table_without_entries(self, tmp_path):
        pairs = PairCounts(counts={("v", "n"): 2})
        clusters, _ = train_clusters(pairs, n_classes=1)
        doc = build_freq_table(clusters, pairs).to_json_dict()
        del doc["entries"]
        path = tmp_path / "table.json"
        write_json(doc, path)
        with pytest.raises(DataError, match="entries") as info:
            load_freq_table(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("change", [
        pytest.param(lambda doc: doc.update(priors=0.5), id="scalar-priors"),
        pytest.param(lambda doc: doc.update(priors=[[0.5, 0.5]]),
                     id="nested-priors"),
        pytest.param(lambda doc: doc.update(priors=[], verb_emissions=[],
                                            noun_emissions=[]),
                     id="no-classes"),
        pytest.param(lambda doc: doc.update(verb_emissions=[
            row + [0.0] for row in doc["verb_emissions"]]), id="wide-emissions"),
        pytest.param(lambda doc: doc["nouns"].append("n9"),
                     id="long-vocabulary")])
    def test_misshapen_cluster_arrays_exit_2(self, tmp_path, capsys, change):
        pairs = PairCounts(counts={("v0", "n0"): 2, ("v1", "n1"): 1})
        clusters, _ = train_clusters(pairs, n_classes=2, seed=1)
        table = build_freq_table(clusters, pairs).to_json_dict()
        change(table["model"])
        write_json(table, tmp_path / "table.json")
        write_json(table["model"], tmp_path / "clusters.json")
        with pytest.raises(DataError, match="mismatched shapes") as info:
            read_json(tmp_path / "clusters.json", ClusterModel.from_json_dict)
        assert str(tmp_path / "clusters.json") in str(info.value)

        save_corpus(_older_corpus(), tmp_path / "train.jsonl")
        code = main(["train", "--corpus", str(tmp_path / "train.jsonl"),
                     "--lexicalized", str(tmp_path / "table.json"),
                     "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(tmp_path / "table.json") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("change, message", [
        pytest.param(lambda doc: doc["entries"].append(["v0", "n0", 84.0]),
                     "entries list the pair ('v0', 'n0') twice",
                     id="repeated-entry"),
        pytest.param(lambda doc: doc["model"]["verbs"].__setitem__(1, "v0"),
                     "verbs lists 'v0' twice", id="repeated-verb"),
        pytest.param(lambda doc: doc["model"]["nouns"].__setitem__(1, "n0"),
                     "nouns lists 'n0' twice", id="repeated-noun")])
    def test_repeated_lexical_entries_exit_2(self, tmp_path, capsys, change,
                                             message):
        # A later f_c would replace an earlier one, and a repeated word
        # would read the emission column of its last index.
        pairs = PairCounts(counts={("v0", "n0"): 2, ("v1", "n1"): 1})
        clusters, _ = train_clusters(pairs, n_classes=2, seed=1)
        table = build_freq_table(clusters, pairs).to_json_dict()
        change(table)
        path = tmp_path / "table.json"
        write_json(table, path)
        with pytest.raises(DataError) as info:
            load_freq_table(path)
        assert str(info.value) == f"{path}: {message}"
        if "entries" not in message:
            write_json(table["model"], tmp_path / "clusters.json")
            with pytest.raises(DataError) as info:
                read_json(tmp_path / "clusters.json",
                          ClusterModel.from_json_dict)
            assert str(info.value) == \
                f"{tmp_path / 'clusters.json'}: {message}"

        save_corpus(_older_corpus(), tmp_path / "train.jsonl")
        assert main(["train", "--corpus", str(tmp_path / "train.jsonl"),
                     "--lexicalized", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"data error: {path}: {message}\n"


FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def registries(draw):
    keys = draw(st.lists(st.tuples(st.sampled_from(ALL_KINDS[:-1]), st.text()),
                         min_size=1, max_size=8, unique=True))
    counts = draw(st.lists(st.integers(0, 10**6), min_size=len(keys),
                           max_size=len(keys)))
    properties = [PropertyDescriptor(kind=kind, key=key, activation_count=c)
                  for (kind, key), c in zip(keys, counts)]
    K = draw(st.one_of(st.none(), st.floats(min_value=1e-300, max_value=1e300)))
    if K is not None:
        properties.append(PropertyDescriptor(
            kind="correction", key="K",
            activation_count=draw(st.integers(0, 10**6))))
    return PropertyRegistry(properties=properties, correction_K=K)


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(registries())
    def test_registry(self, tmp_path_factory, registry):
        path = tmp_path_factory.mktemp("registry") / "registry.json"
        save_registry(registry, path)
        again = read_json(path, PropertyRegistry.from_json_dict)
        assert again == registry
        assert again.correction_K == registry.correction_K
        data = path.read_bytes()
        save_registry(again, path)
        assert path.read_bytes() == data

    @settings(max_examples=60, deadline=None)
    @given(registries(), st.data())
    def test_model(self, tmp_path_factory, registry, data):
        lam = np.array(data.draw(st.lists(FLOATS, min_size=registry.size,
                                          max_size=registry.size)))
        model = LogLinearModel(lam=lam, registry=registry,
                               universe=data.draw(st.text()),
                               universe_size=data.draw(st.integers(1, 10**9)))
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert np.array_equal(again.lam, model.lam)
        assert np.array_equal(np.signbit(again.lam), np.signbit(model.lam))
        assert again.registry == registry
        assert (again.universe, again.universe_size) == \
            (model.universe, model.universe_size)
        data_bytes = path.read_bytes()
        save_model(again, path)
        assert path.read_bytes() == data_bytes
