"""Sentence/parse-set data model, corpus I/O, filtering and synthetic generation.

A corpus is a list of sentences, each carrying a finite set of candidate
parses.  Sentences have an empirical weight (normalized to sum to one on
load), and optionally a gold parse index for evaluation or complete-data
training.  Corpus objects are treated as immutable after construction and
are safe for concurrent reads.

``load_corpus`` and the ``train``, ``eval`` and ``stats`` commands read a
file through one reader, ``_Sentences``, which validates every line, merges
equal sentences and applies ``max_parses``; the commands compile or count
the sentences as they are read and keep none.  A read keeps one table of
feature values, in which a float item, once checked, is found again; it
interns nothing else, so equal strings, subtrees and relations on
different lines are distinct objects.

File format ("forest-corpus"): UTF-8 JSON Lines, each line ending at a line
feed (a CR before it is JSON whitespace).  The first line is a header
``{"format": "forest-corpus", "version": 1}``; every following line is one
sentence entry::

    {"sentence_id": "s0", "tokens": [...], "weight": 0.5, "gold_index": 0,
     "parses": [{"parse_id": "p0", "cstructure": [...], "fstructure": {...},
                 "relations": [[name, verb, noun, voice, position], ...],
                 "frame": "...", "precomputed_features": {"3": 1.0}}, ...]}

c-structures are nested ``[label, [children...]]`` arrays with string leaves;
leaves align one-to-one with the sentence tokens.  f-structures carry a list
of ``[attribute-path, atomic-value]`` pairs and a list of grammatical-function
names.  Either the structural fields or ``precomputed_features`` must be
present on every parse.  A weight, 1.0 when absent, must be positive and
finite, and so must the weights' sum.
"""

from __future__ import annotations

import codecs
import hashlib
import json
import math
import os
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError

CORPUS_FORMAT = "forest-corpus"
CORPUS_VERSION = 1

VOICES = ("active", "passive")

# Relation-name inventory, in registration order: the names the generator
# draws from and the relations of the lexicalized pre-disambiguation slots.
SYNTHETIC_RELATIONS = ("subj", "dobj", "iobj", "inf-obj",
                       "obl-dat", "obl-acc", "adj-dat", "adj-acc")


@dataclass(frozen=True, slots=True)
class Relation:
    """A head-to-head grammatical relation annotation of one parse."""

    name: str
    verb: str
    noun: str
    voice: str
    position: int  # 1-based index of the verb occurrence within the parse


@dataclass(frozen=True, slots=True)
class FStructure:
    """Simplified feature structure: atomic attribute/value pairs plus
    grammatical-function entries (both may repeat)."""

    pairs: tuple[tuple[str, str], ...] = ()
    functions: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class ParseRecord:
    """One candidate analysis of a sentence.

    ``cstructure`` is a nested ``(label, (children...))`` tuple with string
    leaves.  ``precomputed_features`` holds the sparse (index, value)
    pairs of a parse, usable in place of structural extraction, sorted by
    strictly increasing index, so equal features are equal tuples.
    """

    parse_id: str
    cstructure: Optional[tuple] = None
    fstructure: Optional[FStructure] = None
    relations: tuple[Relation, ...] = ()
    frame: Optional[str] = None
    precomputed_features: Optional[tuple[tuple[int, float], ...]] = None

    @property
    def has_structure(self) -> bool:
        return self.cstructure is not None and self.fstructure is not None


@dataclass(frozen=True, slots=True)
class SentenceEntry:
    """A sentence with its finite candidate parse set and empirical weight."""

    sentence_id: str
    tokens: tuple[str, ...]
    parses: tuple[ParseRecord, ...]
    weight: float = 1.0
    gold_index: Optional[int] = None


@dataclass(frozen=True)
class CorpusStats:
    n_sentences: int
    mean_ambiguity: float
    mean_length: float
    universe_size: int


@dataclass(frozen=True)
class Corpus:
    """An immutable sequence of sentence entries.

    Every weight is positive, so the parse universe is every parse of every
    entry.
    """

    entries: tuple[SentenceEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def content_digest(self) -> str:
        """SHA-256 over the canonical serialization, the lines
        ``save_corpus`` writes: equal corpora have equal digests.  A model
        records ``FeatureMatrix.digest`` as its universe, not this."""
        payload = "\n".join(json.dumps(_entry_to_json(e), sort_keys=True)
                            for e in self.entries)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Validation

def _check_leaves(parse_id: str, n_leaves: int, n_tokens: int) -> None:
    """DataError unless a c-structure has one leaf per sentence token."""
    if n_leaves != n_tokens:
        raise DataError(
            f"parse {parse_id!r} has {n_leaves} c-structure leaves but the "
            f"sentence has {n_tokens} tokens"
        )


def _validate_parse(parse: ParseRecord, where: str) -> None:
    """Every check of a parse but its leaf count, which ``_parse_from_json``
    makes while it decodes the tree and ``build_corpus`` makes on its own."""
    if parse.precomputed_features is None and not parse.has_structure:
        raise DataError(
            f"{where}: parse {parse.parse_id!r} has neither structural "
            "information nor precomputed_features"
        )
    position_verb: dict[int, str] = {}
    for rel in parse.relations:
        if rel.voice not in VOICES:
            raise DataError(
                f"{where}: parse {parse.parse_id!r} relation {rel.name!r} has "
                f"undefined voice {rel.voice!r}"
            )
        if rel.position < 1:
            raise DataError(
                f"{where}: parse {parse.parse_id!r} relation {rel.name!r} has "
                f"verb position {rel.position} (positions start at 1)"
            )
        seen = position_verb.setdefault(rel.position, rel.verb)
        if seen != rel.verb:
            raise DataError(
                f"{where}: parse {parse.parse_id!r} assigns verb position "
                f"{rel.position} to both {seen!r} and {rel.verb!r}"
            )
    features = parse.precomputed_features
    if features is None:
        return
    if features.__class__ is not tuple:
        raise DataError(
            f"{where}: parse {parse.parse_id!r} precomputed_features must be "
            f"a tuple of (index, value) pairs, not {features!r:.40}")
    last = -1
    for idx, value in features:
        # One test per pair on the way through; a fault is then named.
        if not (idx > last and 0 <= value < math.inf):
            if not math.isfinite(value):
                fault = "has a non-finite precomputed feature"
            elif idx < 0 or value < 0:
                fault = "has a negative precomputed feature"
            else:
                fault = ("has a repeated or out-of-order precomputed feature "
                         f"index (after {last})")
            raise DataError(f"{where}: parse {parse.parse_id!r} {fault} "
                            f"({idx}: {value})")
        last = idx


def _validate_entry(entry: SentenceEntry, where: str) -> None:
    if not entry.parses:
        raise DataError(f"{where}: sentence {entry.sentence_id!r} has no parses")
    if not 0 < entry.weight < math.inf:
        fault = "zero" if entry.weight == 0 else "negative or non-finite"
        raise DataError(
            f"{where}: sentence {entry.sentence_id!r} has a {fault} "
            f"weight ({entry.weight})"
        )
    ids = [p.parse_id for p in entry.parses]
    if len(set(ids)) != len(ids):
        raise DataError(
            f"{where}: sentence {entry.sentence_id!r} has duplicate parse_ids"
        )
    if entry.gold_index is not None and not (0 <= entry.gold_index < len(entry.parses)):
        raise DataError(
            f"{where}: sentence {entry.sentence_id!r} gold_index "
            f"{entry.gold_index} out of range"
        )
    for parse in entry.parses:
        _validate_parse(parse, where)


# ---------------------------------------------------------------------------
# Trees

def count_leaves(node) -> int:
    """Leaves of a nested (label, (children...)) tree."""
    if isinstance(node, str):
        return 1
    total = 0
    for child in node[1]:
        total += 1 if isinstance(child, str) else count_leaves(child)
    return total


def tree_from_json(obj) -> tuple[object, int]:
    """Decode a nested [label, [children...]] array into tuples; returns
    the tree and its number of leaves, counted in the same walk."""
    if obj.__class__ is str:
        return obj, 1
    if not (obj.__class__ is list and len(obj) == 2
            and obj[0].__class__ is str):
        raise DataError(f"malformed c-structure node: {obj!r}")
    label, children = obj
    if children.__class__ is not list:
        raise DataError(f"malformed c-structure children of {label!r}")
    decoded = []
    leaves = 0
    for child in children:
        if child.__class__ is str:
            leaves += 1
        else:
            child, n = tree_from_json(child)
            leaves += n
        decoded.append(child)
    return (label, tuple(decoded)), leaves


# ---------------------------------------------------------------------------
# JSON encoding / decoding

def _parse_to_json(parse: ParseRecord) -> dict:
    # Dumped with sort_keys; json writes tuples, the nested ones of a
    # c-structure included, as arrays.
    fs, features = parse.fstructure, parse.precomputed_features
    return {
        "parse_id": parse.parse_id,
        "cstructure": parse.cstructure,
        "fstructure": None if fs is None else {"pairs": fs.pairs,
                                               "functions": fs.functions},
        "relations": [[r.name, r.verb, r.noun, r.voice, r.position]
                      for r in parse.relations],
        "frame": parse.frame,
        "precomputed_features": None if features is None else {
            str(k): v for k, v in features},
    }


def _entry_to_json(entry: SentenceEntry) -> dict:
    return {
        "sentence_id": entry.sentence_id,
        "tokens": entry.tokens,
        "weight": entry.weight,
        "gold_index": entry.gold_index,
        "parses": [_parse_to_json(p) for p in entry.parses],
    }


def _relation_from_json(item) -> Relation:
    """The relation of ``item``, four strings and an int checked at once."""
    if item.__class__ is list and len(item) == 5:
        name, verb, noun, voice, position = item
        if (name.__class__ is verb.__class__ is noun.__class__
                is voice.__class__ is str and position.__class__ is int):
            return Relation(name, verb, noun, voice, position)
    # Not four strings and an int: the typed readers name the fault.
    name, verb, noun, voice, position = typed(item, list, "relation")
    return Relation(*strings([name, verb, noun, voice], "relation fields"),
                    typed(position, int, "relation position"))


# The keys each record may carry; any other key, a misspelling say, is a
# DataError rather than a field that silently keeps its default.
_SENTENCE_KEYS = frozenset({"sentence_id", "tokens", "weight", "gold_index",
                            "parses"})
_PARSE_KEYS = frozenset({"parse_id", "cstructure", "fstructure", "relations",
                         "frame", "precomputed_features"})
_FSTRUCTURE_KEYS = frozenset({"pairs", "functions"})
_HEADER_KEYS = frozenset({"format", "version"})

def _feature_values(features, table: dict) -> tuple[tuple[int, float], ...]:
    """The (index, value) pairs of a ``precomputed_features`` object, sorted
    by index.  ``table`` maps each decoded (key, value) item with a nonzero
    value to its checked pair, so a float item is checked once per table.
    An item with a zero value is not looked up, as ``0.0 == -0.0``."""
    if features.__class__ is not dict:
        typed(features, dict, "field 'precomputed_features'")
    pairs = []
    for item in features.items():
        pair = table.get(item) if item[1].__class__ is float else None
        if pair is None:
            pair = (canonical_int(item[0], "precomputed feature index"),
                    typed(item[1], float, "precomputed feature value"))
            if pair[1]:
                # An integer value, 2 say, finds the pair of 2.0.
                pair = table.setdefault(item, pair)
        pairs.append(pair)
    pairs.sort()
    return tuple(pairs)


def _parse_from_json(rec, n_tokens: int, values: dict) -> ParseRecord:
    parse_id = identifier(record(rec, _PARSE_KEYS, "parse record")["parse_id"],
                          "field 'parse_id'")
    cstructure = rec.get("cstructure")
    if cstructure is not None:
        cstructure, n_leaves = tree_from_json(cstructure)
        _check_leaves(parse_id, n_leaves, n_tokens)
    fstructure = rec.get("fstructure")
    if fstructure is not None:
        record(fstructure, _FSTRUCTURE_KEYS, "field 'fstructure'")
        pairs = tuple(strings(pair, "fstructure pair", 2) for pair in
                      typed(fstructure.get("pairs", []), list,
                            "fstructure pairs"))
        fstructure = FStructure(pairs=pairs, functions=strings(
            fstructure.get("functions", []), "fstructure functions"))
    relations = rec.get("relations")
    relations = () if relations is None else tuple(
        map(_relation_from_json, typed(relations, list, "field 'relations'")))
    frame = rec.get("frame")
    if frame is not None:
        frame = typed(frame, str, "field 'frame'")
    features = rec.get("precomputed_features")
    return ParseRecord(
        parse_id=parse_id,
        cstructure=cstructure,
        fstructure=fstructure,
        relations=relations,
        frame=frame,
        precomputed_features=(None if features is None
                              else _feature_values(features, values)),
    )


def _entry_from_json(rec, values: dict) -> SentenceEntry:
    """The sentence of ``rec``, its precomputed features read through
    ``values`` (see ``_feature_values``)."""
    sentence_id = identifier(
        record(rec, _SENTENCE_KEYS, "sentence record")["sentence_id"],
        "field 'sentence_id'")
    tokens = strings(rec["tokens"], "field 'tokens'")
    parses = tuple(_parse_from_json(p, len(tokens), values)
                   for p in typed(rec["parses"], list, "field 'parses'"))
    gold = rec.get("gold_index")
    return SentenceEntry(
        sentence_id=sentence_id,
        tokens=tokens,
        parses=parses,
        weight=typed(rec.get("weight", 1.0), float, "field 'weight'"),
        gold_index=None if gold is None else typed(gold, int,
                                                   "field 'gold_index'"),
    )


# ---------------------------------------------------------------------------
# Loading / saving

def build_corpus(entries: Iterable[SentenceEntry]) -> Corpus:
    """Validate entries and assemble a corpus, weights normalized to sum to
    one.  Distinct entries reusing a sentence_id are an error.
    """
    entries = list(entries)
    for entry in entries:
        where = f"sentence {entry.sentence_id!r}"
        _validate_entry(entry, where)
        try:
            for parse in entry.parses:
                if parse.cstructure is not None:
                    _check_leaves(parse.parse_id, count_leaves(parse.cstructure),
                                  len(entry.tokens))
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from None
    return _assemble(entries)


def _normalized(ids: Sequence[str], weights: Sequence[float]):
    """``weights`` divided by their sum, or ``weights`` itself when they sum
    to one within 1e-12, so that renormalizing is idempotent at the last
    ulp.  No sentence, a repeated sentence id or a sum that overflows is a
    DataError."""
    if not ids:
        raise DataError("corpus has no entries")
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise DataError(f"duplicate sentence_id(s): {dup}")
    total = sum(weights)
    if not math.isfinite(total):
        raise DataError("total corpus weight overflows; cannot normalize")
    return weights if abs(total - 1.0) <= 1e-12 else [w / total
                                                       for w in weights]


def _assemble(entries: Sequence[SentenceEntry]) -> Corpus:
    """Corpus of validated entries: unique sentence ids, weights summing to
    one."""
    weights = [e.weight for e in entries]
    normalized = _normalized([e.sentence_id for e in entries], weights)
    if normalized is not weights:
        entries = [replace(e, weight=w) for e, w in zip(entries, normalized)]
    return Corpus(entries=tuple(entries))


def check_max_parses(max_parses: Optional[int]) -> None:
    """ConfigError for a parse cap below 1 (None sets none)."""
    if max_parses is not None and max_parses < 1:
        raise ConfigError(f"max_parses must be >= 1, not {max_parses}")


def _read(path) -> Iterator[tuple[int, int, SentenceEntry]]:
    """(line number, offset, sentence) of each sentence line of the
    forest-corpus file at ``path``, in order: the offset is the byte where
    the line starts, for ``_read_at``, and the sentence is decoded and
    validated.  Lines end at b"\\n"; the JSON decoder reads a b"\\r" before
    it as whitespace.  One table of feature values (``_feature_values``)
    serves every line.  A fault is a DataError that names the file and the
    line."""
    values: dict = {}
    with open(path, "rb") as handle:
        header_line = handle.readline()
        if not header_line.strip():
            raise DataError(f"{path}: empty file")
        _decode_json(f"{path}: line 1", header_line, lambda doc: check_envelope(
            doc, CORPUS_FORMAT, CORPUS_VERSION, _HEADER_KEYS))
        offset = len(header_line)
        for lineno, line in enumerate(handle, start=2):
            start, offset = offset, offset + len(line)
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            entry = _decode_json(where, line,
                                 lambda rec: _entry_from_json(rec, values))
            _validate_entry(entry, where)
            yield lineno, start, entry


def _read_at(path, offset: int) -> SentenceEntry:
    """The sentence of the line that starts at ``offset``, as ``_read``
    decoded it."""
    with open(path, "rb") as handle:
        handle.seek(offset)
        return _decode_json(path, handle.readline(),
                            lambda rec: _entry_from_json(rec, {}))


def _merges(kept: SentenceEntry, entry: SentenceEntry) -> bool:
    """Whether ``entry`` merges into ``kept``: the same tokens, gold index
    and parses."""
    return (kept.tokens == entry.tokens and kept.gold_index == entry.gold_index
            and kept.parses == entry.parses)


class _Sentences:
    """The sentences ``load_corpus`` keeps from a forest-corpus file, read
    anew on each iteration.

    Iterating reads every line (``_read``) and yields each kept sentence
    once, where it first occurs, as read.  A sentence with more than
    ``max_parses`` parses is dropped, and one equal to an earlier kept
    sentence (the same tokens, gold index and parses) adds its weight to
    that one, which is read again from the file, so that no sentence need
    be kept.  Before the iteration ends, the faults ``_assemble`` finds,
    and with ``gold`` a kept sentence without a gold index (named by its
    line), raise a DataError; ``weights`` then holds the kept sentences'
    summed weights, normalized by ``_normalized``.
    """

    def __init__(self, path, max_parses: Optional[int] = None, *,
                 gold: bool = False):
        check_max_parses(max_parses)
        self.path, self.max_parses, self.gold = path, max_parses, gold
        self.weights: Optional[np.ndarray] = None

    def __iter__(self) -> Iterator[SentenceEntry]:
        path, cap = self.path, self.max_parses
        ids, weights, offsets = [], array("d"), array("q")
        # The last kept sentence with each hash of (tokens, gold index);
        # ``chain[k]`` is the one before sentence k with its hash, or -1.
        last, chain = {}, array("q")
        no_gold = None
        for lineno, offset, entry in _read(path):
            if cap is not None and len(entry.parses) > cap:
                continue
            key = hash((entry.tokens, entry.gold_index))
            k = last.get(key, -1)
            # The sentence read again is freed once it is compared.
            while k >= 0 and not _merges(_read_at(path, offsets[k]), entry):
                k = chain[k]
            if k >= 0:
                weights[k] += entry.weight
                continue
            chain.append(last.get(key, -1))
            last[key] = len(ids)
            offsets.append(offset)
            ids.append(entry.sentence_id)
            weights.append(entry.weight)
            if no_gold is None and entry.gold_index is None:
                no_gold = f"line {lineno}: sentence {entry.sentence_id!r}"
            yield entry
        if cap is not None and not ids:
            raise DataError(
                f"{path}: no sentences left after max_parses={cap} cutoff")
        try:
            self.weights = np.array(_normalized(ids, weights), dtype=float)
        except DataError as exc:  # no entries, duplicate ids or overflow
            raise DataError(f"{path}: {exc}") from None
        if self.gold and no_gold is not None:
            raise DataError(f"{path}: {no_gold} has no gold_index annotation")


def load_corpus(path, max_parses: Optional[int] = None) -> Corpus:
    """Load a forest-corpus file, optionally dropping high-ambiguity entries.

    Entries with identical tokens, parses and gold_index are merged: the
    first keeps its position and sentence_id and takes the summed weight.
    Entries with more than ``max_parses`` candidate parses are removed
    before weight normalization.  Raises DataError with the offending line number on
    malformed input, non-finite numbers included, and when filtering leaves
    the corpus empty; a ``max_parses`` below 1 is a ConfigError.
    """
    sentences = _Sentences(path, max_parses)
    entries = list(sentences)
    weights = sentences.weights
    if array("d", (e.weight for e in entries)).tobytes() != weights.tobytes():
        entries = [replace(e, weight=w)
                   for e, w in zip(entries, weights.tolist())]
    return Corpus(entries=tuple(entries))


@contextmanager
def atomic_write(path, newline: Optional[str] = None):
    """Open ``path`` for writing text, all or nothing.

    The block writes to a temporary file in the target directory, which
    replaces ``path`` only when the block succeeds; on failure it is removed
    and any previous file at ``path`` is left intact.
    """
    directory, name = os.path.split(os.fspath(path))
    temp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(temp, "x", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.remove(temp)
        raise


def write_json(doc, path, indent: Optional[int] = None) -> None:
    """Write ``doc`` as key-sorted JSON plus a newline, atomically."""
    # json round-trips float64 exactly (shortest-repr decimal encoding).
    # json.dumps encodes an unindented document in C; Python encodes an
    # indented one either way, so json.dump streams it, with no whole string.
    with atomic_write(path) as handle:
        if indent is None:
            handle.write(json.dumps(doc, sort_keys=True) + "\n")
        else:
            json.dump(doc, handle, sort_keys=True, indent=indent)
            handle.write("\n")


def check_envelope(doc, fmt: str, version: int, keys: frozenset) -> None:
    """DataError unless ``doc`` is a ``fmt`` document at ``version`` with no
    key outside ``keys``, the keys its writer emits."""
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise DataError(f"not a {fmt} document")
    # A JSON integer: true and 1.0 compare equal to 1 but are not versions.
    if type(doc.get("version")) is not int or doc["version"] != version:
        raise DataError(f"unsupported {fmt} version {doc.get('version')!r}")
    record(doc, keys, f"{fmt} document")


def _repeated(items):
    """The first of ``items`` equal to an earlier one (None if none is)."""
    seen = set()
    return next((x for x in items if x in seen or seen.add(x)), None)


def _unique_keys(pairs: list) -> dict:
    """The JSON object of ``pairs``; a key that repeats is a DataError
    (``json.loads`` would keep its last value)."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise DataError(f"duplicate key {_repeated(k for k, _ in pairs)!r}")
    return doc


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _utf8(data: bytes) -> str:
    """``data`` decoded from UTF-8; a byte that is not is a DataError."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"not UTF-8 text ({exc.reason} at byte "
                        f"{exc.start})") from None


def _decode_json(where, data: bytes, from_json):
    """``from_json`` of the UTF-8 JSON document ``data``.

    Every way the document can be bad (a byte that is not UTF-8, invalid
    JSON, a repeated key, a non-finite number, a missing key, a malformed
    value, a value its constructor rejects) is a DataError that starts with
    ``where``, the file and for a corpus the line.  A leading byte-order
    mark, which JSON does not allow, is named.
    """
    try:
        return from_json(_DECODER.decode(_utf8(data)))
    except json.JSONDecodeError as exc:
        mark = (" (it starts with a UTF-8 byte-order mark)"
                if data.startswith(codecs.BOM_UTF8) else "")
        raise DataError(f"{where}: invalid JSON{mark}") from exc
    except (DataError, ConfigError) as exc:
        raise DataError(f"{where}: {exc}") from exc
    except KeyError as exc:
        raise DataError(f"{where}: missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataError(f"{where}: malformed value ({exc})") from exc


def read_json(path, from_json_dict):
    """``from_json_dict`` of the JSON document at ``path``; see _decode_json."""
    with open(path, "rb") as handle:
        return _decode_json(path, handle.read(), from_json_dict)


# The typed readers, through which every loader reads decoded JSON values.
_JSON_TYPES = {str: "a string", int: "an integer", float: "a number",
               list: "a list", dict: "an object"}


def typed(value, cls, what, low=None):
    """``value`` if of JSON type ``cls`` (the one class json.loads gives it,
    so a bool is no int; float takes any finite number) and >= ``low``."""
    if cls is float and value.__class__ is int:
        value = float(value)
    if value.__class__ is not cls:
        raise DataError(f"{what} must be {_JSON_TYPES[cls]}, not {value!r:.40}")
    if cls is float and not math.isfinite(value):
        raise DataError(f"{what} is a non-finite number ({value})")
    if low is not None and value < low:
        raise DataError(f"{what} {value!r} is below {low}")
    return value


def record(value, keys: frozenset, what) -> dict:
    """A JSON object with no key outside ``keys``."""
    if not keys.issuperset(typed(value, dict, what)):
        unknown = ", ".join(map(repr, sorted(value.keys() - keys)))
        raise DataError(f"{what} has unknown keys: {unknown:.80}")
    return value


# The item class of a flat JSON list of strings or of floats.
_ONLY_STR, _ONLY_FLOAT = frozenset({str}), frozenset({float})


def strings(value, what, length=None) -> tuple[str, ...]:
    """A JSON list of strings, of ``length`` items when given, as a tuple."""
    if (value.__class__ is not list
            or (length is not None and len(value) != length)
            or not _ONLY_STR.issuperset(map(type, value))):
        raise DataError(f"{what} must be a list of {length or 'only'} "
                        f"strings, not {value!r:.40}")
    return tuple(value)


def floats(value, what) -> np.ndarray:
    """Finite JSON numbers, nested in lists, as a float array of any shape."""
    if value.__class__ is not list:
        return np.array(typed(value, float, what))
    if _ONLY_FLOAT.issuperset(map(type, value)):  # a row, checked at once
        row = np.array(value, dtype=float)
        if np.isfinite(row).all():
            return row
    return np.array([floats(v, what) if v.__class__ is list
                     else typed(v, float, what) for v in value], dtype=float)


def identifier(value, what) -> str:
    """A sentence or parse id: a string, or an integer as its decimal text."""
    return str(value) if value.__class__ is int else typed(value, str, what)


def canonical_int(text: str, what) -> int:
    """``int(text)`` when ``text`` is its one ``str()`` spelling."""
    try:
        value = int(text)
        if str(value) == text:
            return value
    except ValueError:
        pass
    raise DataError(f"{what} {text!r} is not an integer")


def save_corpus(corpus: Corpus, path) -> None:
    with atomic_write(path) as handle:
        handle.write(json.dumps(
            {"format": CORPUS_FORMAT, "version": CORPUS_VERSION},
            sort_keys=True) + "\n")
        for entry in corpus.entries:
            handle.write(json.dumps(_entry_to_json(entry), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Filtering and statistics

def corpus_stats(sentences: Iterable[SentenceEntry]) -> CorpusStats:
    """Counts of ``sentences``, a ``Corpus`` or any iterable of sentences,
    such as ``_Sentences``, which keeps none; the universe is every parse."""
    n_sentences = n_parses = n_tokens = 0
    for entry in sentences:
        n_sentences += 1
        n_parses += len(entry.parses)
        n_tokens += len(entry.tokens)
    if not n_sentences:
        raise DataError("cannot compute statistics of an empty corpus")
    return CorpusStats(
        n_sentences=n_sentences,
        mean_ambiguity=n_parses / n_sentences,
        mean_length=n_tokens / n_sentences,
        universe_size=n_parses,
    )


# ---------------------------------------------------------------------------
# Synthetic generation

def seeded_rng(seed: Optional[int]) -> np.random.Generator:
    """numpy's generator for ``seed`` (None draws fresh entropy).  numpy
    takes no negative seed, so one is a ConfigError."""
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator settings for a desk-scale corpus with a hidden gold model;
    a setting out of range is a ConfigError."""

    n_sentences: int
    ambiguity_range: tuple[int, int] = (1, 6)
    n_features: int = 20
    n_relations: int = 4
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.ambiguity_range
        if self.n_sentences < 1:
            raise ConfigError("n_sentences must be >= 1")
        if not (1 <= lo <= hi <= 50):
            raise ConfigError("ambiguity_range must lie within [1, 50]")
        if self.n_features < 1:
            raise ConfigError("n_features must be >= 1")
        if not (1 <= self.n_relations <= len(SYNTHETIC_RELATIONS)):
            raise ConfigError(
                f"n_relations must be in [1, {len(SYNTHETIC_RELATIONS)}]")


# Per-feature value domain of a synthetic parse: 0 (inactive) or a small count.
_FEATURE_VALUES = np.array([0.0, 1.0, 2.0, 3.0])


def _feature_base_weights(n_features: int) -> np.ndarray:
    """Base probabilities over the value domain, per feature (all equal).

    A feature is active with probability ~3/n so a parse carries about three
    nonzero counts; active values are uniform over {1, 2, 3}.
    """
    q = min(0.75, 3.0 / n_features)
    weights = np.empty((n_features, len(_FEATURE_VALUES)))
    weights[:, 0] = 1.0 - q
    weights[:, 1:] = q / 3.0
    return weights


def _pick(rng: np.random.Generator, items: Sequence[str]) -> str:
    """``rng.choice(items)`` without the array conversion: the same single
    bounded-integer draw, so the random stream is unchanged."""
    return items[int(rng.integers(0, len(items)))]


def generate_synthetic(config: SyntheticConfig,
                       true_params: Optional[Sequence[float]] = None
                       ) -> tuple[Corpus, dict]:
    """Generate a corpus whose gold parses follow a hidden log-linear model.

    Each sentence receives a parse set of size drawn from ``ambiguity_range``;
    parses carry sparse nonnegative integer feature counts, relation
    annotations over synthetic verb/noun vocabularies, and a frame drawn from
    a small per-sentence pool.

    Features factorize per index.  Distractor parses draw every feature from
    a base distribution; the gold parse draws its features from the same
    distribution exponentially tilted by ``true_params``, and the gold
    position is a uniform shuffle.  By Bayes' rule the gold index given the
    realized parse set is then distributed exactly as the hidden model's
    conditional, softmax of ``true_params . features`` over the sentence's
    parses: with all-zero parameters the gold index is uniform, and unlike a
    construction that picks the gold among i.i.d. candidates, the candidate
    sets themselves carry a learnable trace of the hidden model.

    Relation annotations mirror an attachment ambiguity with selectional
    preference: within a sentence every parse fills one shared relation slot
    with its own head noun, the gold parse usually choosing from the verb's
    affinity set while distractors choose freely (plus occasional extra
    random relations).  Class-based lexicalization therefore has a real,
    per-sentence contrast to pick up.

    Deterministic in ``config.seed``.  Returns the corpus and a description
    sufficient to recompute the hidden model.
    """
    rng = seeded_rng(config.seed)
    if true_params is None:
        theta = rng.uniform(-1.5, 1.5, size=config.n_features)
    else:
        theta = np.asarray(true_params, dtype=float)
        if theta.shape != (config.n_features,):
            raise ConfigError(
                f"true_params must have length {config.n_features}, "
                f"got {theta.shape}")

    base = _feature_base_weights(config.n_features)
    base = base / base.sum(axis=1, keepdims=True)
    tilted = base * np.exp(np.outer(theta, _FEATURE_VALUES))
    tilted = tilted / tilted.sum(axis=1, keepdims=True)
    cum_base = base.cumsum(axis=1)
    cum_tilted = tilted.cumsum(axis=1)

    relation_names = SYNTHETIC_RELATIONS[:config.n_relations]
    lo, hi = config.ambiguity_range
    n_verbs, n_nouns, n_frames = 30, 80, 6
    entries = []
    for s in range(config.n_sentences):
        k = int(rng.integers(lo, hi + 1))
        length = int(rng.integers(5, 13))
        tokens = tuple(f"w{int(t)}" for t in rng.integers(0, 200, size=length))
        # A small per-sentence pool keeps frames shared across some parses,
        # so the frame-match task has lower effective ambiguity.
        pool_size = max(1, (k + 1) // 2)
        frame_pool = [f"f{int(i)}" for i in rng.integers(0, n_frames, size=pool_size)]
        verb_pool = [f"v{int(i)}" for i in rng.integers(0, n_verbs, size=2)]

        # One relation slot is contested by every parse of the sentence.
        shared_name = _pick(rng, relation_names)
        shared_voice = "passive" if rng.random() < 0.25 else "active"
        shared_position = int(rng.integers(1, len(verb_pool) + 1))
        shared_verb = verb_pool[shared_position - 1]
        shared_verb_id = int(shared_verb[1:])

        gold = int(rng.integers(0, k))
        parses = []
        for j in range(k):
            cum = cum_tilted if j == gold else cum_base
            u = rng.random(config.n_features)
            # Inverse CDF against the inner thresholds only: the final
            # cumulative sum may round below 1, and the index must stay
            # within the value domain.
            drawn = _FEATURE_VALUES[(u[:, None] >= cum[:, :-1]).sum(axis=1)]
            active = np.flatnonzero(drawn)
            features = tuple(zip(active.tolist(), drawn[active].tolist()))
            if j == gold and rng.random() < 0.85:
                # Selectional preference: one of the nouns whose index is
                # congruent to the verb's index modulo 5.
                noun = f"n{(shared_verb_id % 5) + 5 * int(rng.integers(0, n_nouns // 5))}"
            else:
                noun = f"n{int(rng.integers(0, n_nouns))}"
            relations = [Relation(name=shared_name, verb=shared_verb,
                                  noun=noun, voice=shared_voice,
                                  position=shared_position)]
            if rng.random() < 0.4:
                position = int(rng.integers(1, len(verb_pool) + 1))
                relations.append(Relation(
                    name=_pick(rng, relation_names),
                    verb=verb_pool[position - 1],
                    noun=f"n{int(rng.integers(0, n_nouns))}",
                    voice="passive" if rng.random() < 0.25 else "active",
                    position=position,
                ))
            parses.append(ParseRecord(
                parse_id=f"p{j}",
                relations=tuple(relations),
                frame=_pick(rng, frame_pool),
                precomputed_features=features,
            ))
        entries.append(SentenceEntry(
            sentence_id=f"s{s}",
            tokens=tokens,
            parses=tuple(parses),
            gold_index=gold,
        ))

    corpus = build_corpus(entries)
    description = {
        "n_features": config.n_features,
        "true_params": [float(v) for v in theta],
        "conditional": "softmax of true_params . features within each parse set",
        "seed": config.seed,
    }
    return corpus, description
