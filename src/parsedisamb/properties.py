"""Property-function vector: templates, compilation, correction, selection.

Properties are nonnegative real-valued functions of a parse.  A registry
holds the ordered property inventory; templates are instantiated from a
defining corpus, a correction property is appended to make the total feature
mass constant, and low-activation properties can be dropped.

A corpus is compiled once, in one walk over its parses, into a sparse
``FeatureMatrix``.  Registry activation counts, the correction constant,
selection, training and evaluation all work on that matrix, and every
function that compiles a corpus takes the matrix in its place.

Structural property semantics implemented here (all computed from the
simplified parse record):

* production: occurrence count of each local tree ``label -> child labels``
  signature (leaf children contribute their token string).
* subtree-attachment: two keys, "argument" and "adjunct"; counts of
  grammatical-function entries classified by a fixed adjunct-function set.
* fstr-attribute: occurrence count of each grammatical-function name.
* fstr-atomic-pair: occurrence count of each atomic ``path=value`` pair.
* attachment-complexity: for every internal child of a node with at least
  two children, the token count the child dominates, bucketed into
  {1, 2-3, 4-7, 8+}; values are counts per bucket.
* non-right-branching: number of internal nodes that have a sibling to
  their right.
* coord-non-parallel: number of coordination nodes (a child is a
  coordinating conjunction) whose conjunct category labels differ.

Lexical pre-disambiguation properties and the correction property are
registered here but valued elsewhere: lexicalized values depend on a whole
sentence's competitor set (see lexicalization), and the correction value is
``K - sum(other values)`` with K fixed by the defining corpus.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .corpus import (Corpus, ParseRecord, SentenceEntry, check_envelope,
                     record, typed, write_json)
from .errors import ConfigError, DataError
from .lexicalization import LexFrequencyTable, lexicalized_properties

REGISTRY_FORMAT = "property-registry"
REGISTRY_VERSION = 1

STRUCTURAL_KINDS = (
    "production",
    "subtree-attachment",
    "fstr-attribute",
    "fstr-atomic-pair",
    "attachment-complexity",
    "non-right-branching",
    "coord-non-parallel",
)
ALL_KINDS = STRUCTURAL_KINDS + ("lexicalized-relation", "passthrough", "correction")

TREE_KINDS = frozenset({
    "production", "subtree-attachment", "attachment-complexity",
    "non-right-branching", "coord-non-parallel",
})
FSTR_KINDS = frozenset({"subtree-attachment", "fstr-attribute", "fstr-atomic-pair"})

# Grammatical functions treated as adjuncts by the attachment classifier;
# every other function entry counts as an argument attachment.
ADJUNCT_FUNCTIONS = frozenset({"ADJUNCT", "ADJ", "MOD"})

# Child labels marking a coordination node.
COORDINATION_MARKERS = frozenset({"CC", "CONJ", "KON"})

CORRECTION_KEY = "K"

# The keys a registry and its descriptors may carry.  Older registries also
# carry "frozen", which repeats correction_K, and record each descriptor's
# position as "index".
REGISTRY_KEYS = frozenset({"format", "version", "correction_K", "properties",
                           "frozen"})
DESCRIPTOR_KEYS = frozenset({"kind", "key", "activation_count", "index"})

# Column and row indices of the compiled matrix: numpy's native index type,
# so gathers and bincounts use them without a cast.
INDEX_DTYPE = np.intp


@dataclass(frozen=True)
class PropertyDescriptor:
    kind: str
    key: str
    activation_count: int = 0


@dataclass
class PropertyRegistry:
    """Ordered property inventory; complete once the correction property is
    appended, which sets ``correction_K``.  A descriptor's column is its
    position."""

    properties: list[PropertyDescriptor]
    correction_K: Optional[float] = None
    _by_key: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self._by_key = {(d.kind, d.key): i
                        for i, d in enumerate(self.properties)}
        if len(self._by_key) != len(self.properties):
            raise ConfigError("registry descriptors must be unique by (kind, key)")

    @property
    def size(self) -> int:
        return len(self.properties)

    def index_of(self, kind: str, key: str) -> Optional[int]:
        return self._by_key.get((kind, key))

    def kinds(self) -> set[str]:
        return {d.kind for d in self.properties}

    @property
    def correction_index(self) -> Optional[int]:
        if self.correction_K is None:
            return None
        return self.size - 1

    def to_json_dict(self) -> dict:
        return {
            "format": REGISTRY_FORMAT,
            "version": REGISTRY_VERSION,
            "correction_K": self.correction_K,
            "properties": [
                {"kind": d.kind, "key": d.key,
                 "activation_count": d.activation_count}
                for d in self.properties
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PropertyRegistry":
        check_envelope(doc, REGISTRY_FORMAT, REGISTRY_VERSION, REGISTRY_KEYS)
        props = []
        for i, p in enumerate(typed(doc["properties"], list, "properties")):
            what = f"descriptor {i}"
            if typed(record(p, DESCRIPTOR_KEYS, what).get("index", i), int,
                     what) != i:
                raise DataError(f"{what} records index {p['index']!r}")
            kind = typed(p["kind"], str, f"{what} kind")
            if kind not in ALL_KINDS:
                raise DataError(f"{what} has unknown kind {kind!r}")
            props.append(PropertyDescriptor(
                kind=kind, key=typed(p["key"], str, f"{what} key"),
                activation_count=typed(p.get("activation_count", 0), int,
                                       f"{what} activation_count", low=0)))
        K = doc.get("correction_K")
        if K is not None and typed(K, float, "correction_K") <= 0:
            raise DataError(f"correction_K {K!r} is not a positive number")
        return cls(properties=props, correction_K=K)


def save_registry(registry: PropertyRegistry, path) -> None:
    write_json(registry.to_json_dict(), path, indent=1)


# ---------------------------------------------------------------------------
# Structural value computation

def _preorder(node, nodes: list) -> int:
    """Append ``(label, symbols, leaves)`` for every internal node of the
    tree in depth-first pre-order: its children's labels (a leaf's is its
    token) and leaf counts (None for a leaf).  Returns the leaf count."""
    label, children = node
    symbols, leaves = [], []
    nodes.append((label, symbols, leaves))
    total = 0
    for child in children:
        if child.__class__ is str:
            symbols.append(child)
            leaves.append(None)
            total += 1
        else:
            symbols.append(child[0])
            leaves.append(_preorder(child, nodes))
            total += leaves[-1]
    return total


def structural_values(parse: ParseRecord, kinds: Iterable[str]) -> dict:
    """Map (kind, key) -> value for the requested structural kinds.

    Keys are in order of first occurrence: for each internal node in
    pre-order, its production, attachment-complexity, non-right-branching
    and coord-non-parallel keys, then the f-structure's keys.  The
    benchmark's generator sums its hidden weights in this order.
    """
    kinds = set(kinds)
    keys = []
    add = keys.append
    tree = parse.cstructure
    if tree is not None and tree.__class__ is not str and kinds & TREE_KINDS:
        production = "production" in kinds
        complexity = "attachment-complexity" in kinds
        branching = "non-right-branching" in kinds
        coordination = "coord-non-parallel" in kinds
        nodes = []
        _preorder(tree, nodes)
        for label, symbols, leaves in nodes:
            if production:
                add(("production", f"{label} -> {' '.join(symbols)}"))
            if complexity and len(leaves) >= 2:
                for n in leaves:
                    if n is not None:
                        add(("attachment-complexity", "1" if n <= 1 else
                             "2-3" if n <= 3 else "4-7" if n <= 7 else "8+"))
            if branching:
                for n in leaves[:-1]:
                    if n is not None:
                        add(("non-right-branching", "count"))
            if (coordination and not COORDINATION_MARKERS.isdisjoint(symbols)
                    and len(set(symbols) - COORDINATION_MARKERS) > 1):
                add(("coord-non-parallel", "count"))
    fstr = parse.fstructure
    if fstr is not None and kinds & FSTR_KINDS:
        for function in fstr.functions:
            if "fstr-attribute" in kinds:
                add(("fstr-attribute", function))
            if "subtree-attachment" in kinds:
                add(("subtree-attachment", "adjunct"
                     if function in ADJUNCT_FUNCTIONS else "argument"))
        if "fstr-atomic-pair" in kinds:
            for path, value in fstr.pairs:
                add(("fstr-atomic-pair", f"{path}={value}"))
    values: dict[tuple[str, str], float] = {}
    get = values.get
    for key in keys:
        values[key] = get(key, 0.0) + 1.0
    return values


def _passthrough_key(index: int) -> str:
    return f"{index:06d}"


# ---------------------------------------------------------------------------
# The compiled feature matrix

@dataclass(eq=False)
class FeatureMatrix:
    """Property rows of a corpus, compiled once, in CSR form and corpus order.

    Sentence ``s`` is ``sentence_ids[s]``; ``offsets[s]:offsets[s+1]``
    delimits its rows, one per parse, in order.  Row ``r`` is the parse
    ``parse_ids[r]``, whose frame is ``frames[r]``: a code, equal for equal
    frames within one compile, or -1 for none.  It holds the nonzero values
    ``data[indptr[r]:indptr[r+1]]`` at the columns ``indices[...]``
    of ``registry``, increasing within a row: every compile sorts its rows
    once, in ``_walk``, after the columns are mapped to the registry's (for
    templates, once the registry is ordered), and ``project`` sorts them
    again only when it reorders columns.  ``indices`` and ``rows`` are
    ``INDEX_DTYPE``; ``rows`` is built on first use.  ``gold`` is -1 where
    no gold index is annotated.
    ``clamped_corrections`` counts parses whose feature total exceeded K
    (possible outside the defining corpus); their correction value was
    clamped to zero.  Values are checked to be finite and nonnegative here,
    once, so no consumer rescans them.
    ``digest`` identifies the matrix as a parse universe (see there).
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    registry: PropertyRegistry
    offsets: np.ndarray
    weights: np.ndarray
    gold: np.ndarray
    sentence_ids: tuple[str, ...] = field(repr=False)
    parse_ids: tuple[str, ...] = field(repr=False)
    frames: np.ndarray = field(repr=False)
    clamped_corrections: int = 0

    def __post_init__(self):
        if self.data.size and not (self.data.min() >= 0
                                   and self.data.max() < np.inf):
            raise DataError("negative or non-finite feature value encountered")

    @property
    def n_sentences(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_parses(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_features(self) -> int:
        return self.registry.size

    @cached_property
    def digest(self) -> str:
        """SHA-256 over everything scoring the matrix depends on: ``indptr``,
        ``indices`` and ``offsets`` as little-endian int64, ``data`` and
        ``weights`` as little-endian float64, and the registry's (kind, key)
        columns.  A model records it as its universe."""
        h = hashlib.sha256()
        for part, dtype in ((self.indptr, "<i8"), (self.indices, "<i8"),
                            (self.offsets, "<i8"), (self.data, "<f8"),
                            (self.weights, "<f8")):
            h.update(part.size.to_bytes(8, "little"))
            h.update(np.ascontiguousarray(part, dtype=dtype).data)
        h.update(json.dumps([[d.kind, d.key] for d in self.registry.properties],
                            ensure_ascii=False).encode("utf-8"))
        return h.hexdigest()

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of each nonzero."""
        return np.repeat(np.arange(self.n_parses, dtype=INDEX_DTYPE),
                         np.diff(self.indptr))

    @cached_property
    def parse_weights(self) -> np.ndarray:
        """Each row's sentence weight."""
        return np.repeat(self.weights, np.diff(self.offsets))

    @property
    def values(self) -> np.ndarray:
        """Dense (parses x features) copy, built on demand."""
        dense = np.zeros((self.n_parses, self.n_features))
        dense[self.rows, self.indices] = self.data
        return dense

    def gold_rows(self) -> np.ndarray:
        """Absolute row index of each sentence's gold parse."""
        if np.any(self.gold < 0):
            missing = [self.sentence_ids[i]
                       for i in np.flatnonzero(self.gold < 0)]
            raise DataError(f"sentences without gold_index: {missing[:5]}")
        return self.offsets[:-1] + self.gold

    def dot(self, lam: np.ndarray) -> np.ndarray:
        """Row scores ``X @ lam``."""
        terms = lam[self.indices]
        terms *= self.data
        return np.bincount(self.rows, weights=terms, minlength=self.n_parses)

    def weighted_sum(self, row_weights: np.ndarray) -> np.ndarray:
        """Column sums of the rows scaled by ``row_weights``: ``w @ X``."""
        terms = row_weights[self.rows]
        terms *= self.data
        return np.bincount(self.indices, weights=terms,
                           minlength=self.n_features)

    def row_totals(self) -> np.ndarray:
        return np.bincount(self.rows, weights=self.data, minlength=self.n_parses)

    def project(self, registry: PropertyRegistry) -> "FeatureMatrix":
        """The same rows over the columns of ``registry``.

        Columns the registry lacks are dropped; a registry column the matrix
        lacks, the correction aside, is a ConfigError.  When the registry
        carries the correction property, each row gets ``K - total`` in the
        last column; a row whose total exceeds K is clamped to zero and
        counted.  A matrix with ``registry``'s columns is its own projection.
        """
        if same_columns(self.registry, registry):
            return self
        K = registry.correction_K
        colmap = np.full(self.n_features, -1, dtype=INDEX_DTYPE)
        for i, d in enumerate(self.registry.properties):
            target = registry.index_of(d.kind, d.key)
            if target is not None and d.kind != "correction":
                colmap[i] = target
        if np.count_nonzero(colmap >= 0) < registry.size - (K is not None):
            raise ConfigError("the registry has columns the matrix lacks")
        # A registry that keeps every column in place needs no remapped copy.
        in_place = np.array_equal(colmap, np.arange(self.n_features))
        n = self.n_parses
        cols = self.indices if in_place else colmap[self.indices]
        keep = cols >= 0
        if keep.all():
            rows, data, per_row = self.rows, self.data, np.diff(self.indptr)
        else:
            # A row keeps the kept nonzeros between its two indptr bounds.
            kept_before = np.concatenate(([0], np.cumsum(keep)))
            per_row = np.diff(kept_before[self.indptr])
            cols, data = cols[keep], self.data[keep]
            rows = np.repeat(np.arange(n, dtype=INDEX_DTYPE), per_row)
        # Rows are sorted by column; a map that keeps the column order keeps
        # them sorted.
        if np.any(np.diff(colmap[colmap >= 0]) <= 0):
            order = np.lexsort((cols, rows))
            rows, cols, data = rows[order], cols[order], data[order]

        clamped = 0
        if K is not None:
            slack = K - np.bincount(rows, weights=data, minlength=n)
            clamped = int(np.count_nonzero(slack < 0))
            # The correction is the last column: it goes at the end of its row.
            fill = slack > 0
            ends = np.cumsum(per_row)[fill]
            cols = np.insert(cols, ends, registry.correction_index)
            data = np.insert(data, ends, slack[fill])
            per_row = per_row + fill
        return FeatureMatrix(
            indptr=np.concatenate(([0], np.cumsum(per_row))),
            indices=cols, data=data, registry=registry, offsets=self.offsets,
            weights=self.weights, gold=self.gold,
            sentence_ids=self.sentence_ids, parse_ids=self.parse_ids,
            frames=self.frames, clamped_corrections=clamped)


def _template_registry(vocab: dict[tuple[str, str], int], cols: np.ndarray,
                       passthrough: bool
                       ) -> tuple[PropertyRegistry, np.ndarray]:
    """The registry of the templates in ``vocab`` (key -> column in order of
    first occurrence), ordered by (kind, key), with the activation counts of
    the nonzero columns ``cols``; and the registry column of each ``vocab``
    column."""
    activation = dict(zip(vocab, np.bincount(cols, minlength=len(vocab))
                          .tolist()))
    if passthrough:
        # The passthrough registry spans the whole index range.
        width = 1 + max((int(key) for kind, key in activation
                         if kind == "passthrough"), default=-1)
        if width <= 0:
            raise DataError("precomputed features are empty on every parse")
        for i in range(width):
            activation.setdefault(("passthrough", _passthrough_key(i)), 0)
    if not activation:
        raise DataError("no property template was observed in the corpus")
    registry = PropertyRegistry(properties=[
        PropertyDescriptor(kind=kind, key=key, activation_count=count)
        for (kind, key), count in sorted(activation.items())])
    return registry, np.array([registry._by_key[key] for key in vocab],
                              dtype=INDEX_DTYPE)


def _walk(sentences: Iterable[SentenceEntry], kinds: set[str],
          lex_table: Optional[LexFrequencyTable],
          registry: Optional[PropertyRegistry] = None) -> FeatureMatrix:
    """Compile ``sentences`` in one pass over their parses, as they come.

    With a ``registry`` (no correction property) the columns are its own
    and unregistered templates are dropped.  Without one, the columns are
    the templates observed, including lexicalized slots whose only values
    are zero, registered as ``_template_registry`` orders them.  Nonzeros
    are appended in walk order, each in the column of its template's first
    occurrence when there is no registry; once the columns are final, one
    stable sort puts each row in column order.  ``lex_table`` enables the
    lexicalized slots, computed once per sentence.  No sentence is kept:
    the matrix holds their ids, weights and gold indices, and its parses'
    ids and frame codes.
    """
    structural = kinds & set(STRUCTURAL_KINDS)
    passthrough = "passthrough" in kinds
    vocab: dict[tuple[str, str], int] = {}
    passthrough_cols: dict[int, int] = {}
    indptr, indices, data = array("q", [0]), array("q"), array("d")
    offsets, weights, gold = array("q", [0]), array("d"), array("q")
    sentence_ids, parse_ids, frames = [], [], array("q")
    # One string per parse id and one code per frame in the whole compile.
    share_id, codes = {}.setdefault, {}

    def put(key: tuple[str, str], value: float) -> int:
        if registry is None:
            col = vocab.setdefault(key, len(vocab))
        else:
            col = registry._by_key.get(key, -1)
        if col >= 0 and value != 0:
            indices.append(col)
            data.append(value)
        return col

    for entry in sentences:
        lex_rows = (None if lex_table is None else
                    lexicalized_properties(entry, lex_table))
        for j, parse in enumerate(entry.parses):
            if structural:
                for key, value in structural_values(parse, structural).items():
                    put(key, value)
            if passthrough and parse.precomputed_features:
                for idx, value in parse.precomputed_features:
                    col = passthrough_cols.get(idx)
                    if col is None:
                        passthrough_cols[idx] = put(
                            ("passthrough", _passthrough_key(idx)), value)
                    elif col >= 0 and value != 0:
                        indices.append(col)
                        data.append(value)
            if lex_rows is not None:
                for slot, value in lex_rows[j].items():
                    put(("lexicalized-relation", slot), value)
            indptr.append(len(indices))
            parse_ids.append(share_id(parse.parse_id, parse.parse_id))
            frames.append(-1 if parse.frame is None
                          else codes.setdefault(parse.frame, len(codes)))
        offsets.append(len(indptr) - 1)
        sentence_ids.append(entry.sentence_id)
        weights.append(entry.weight)
        gold.append(-1 if entry.gold_index is None else entry.gold_index)

    indptr = np.frombuffer(indptr, dtype=np.int64)
    cols = np.frombuffer(indices, dtype=np.int64).astype(INDEX_DTYPE,
                                                          copy=False)
    del indices
    if registry is None:
        registry, colmap = _template_registry(vocab, cols, passthrough)
        cols = colmap[cols]
    # A row holds a column at most once, so one stable sort of row *
    # n_columns + column orders the rows; each buffer is freed once used.
    key = np.repeat(np.arange(len(indptr) - 1, dtype=INDEX_DTYPE)
                    * registry.size, np.diff(indptr))
    key += cols
    order = np.argsort(key, kind="stable")
    del key
    cols = cols[order]
    values = np.frombuffer(data, dtype=float)[order]
    del data, order
    return FeatureMatrix(
        indptr=indptr, indices=cols, data=values, registry=registry,
        offsets=np.frombuffer(offsets, dtype=np.int64),
        weights=np.frombuffer(weights, dtype=float),
        gold=np.frombuffer(gold, dtype=np.int64),
        sentence_ids=tuple(sentence_ids), parse_ids=tuple(parse_ids),
        frames=np.frombuffer(frames, dtype=np.int64))


def _walk_for(corpus: Corpus | FeatureMatrix, registry: PropertyRegistry,
              lex_table: Optional[LexFrequencyTable]) -> FeatureMatrix:
    """``_walk`` over the columns of ``registry`` except the correction; a
    compiled ``corpus``, for the caller to project, as it is."""
    if isinstance(corpus, FeatureMatrix):
        return corpus
    kinds = registry.kinds()
    if "lexicalized-relation" not in kinds:
        lex_table = None
    elif lex_table is None:
        raise ConfigError(
            "registry has lexicalized properties but no frequency table "
            "was provided")
    if registry.correction_K is not None:
        registry = PropertyRegistry(properties=registry.properties[:-1])
    return _walk(corpus, kinds, lex_table, registry)


# ---------------------------------------------------------------------------
# Compilation and registry construction

class _Unstructured(Exception):
    """A structural template walk met a parse without structure."""


def _checked(sentences: Iterable[SentenceEntry], structural: bool):
    """``sentences`` as they come, checked for the templates of one walk.

    Templates need a c- and an f-structure on every parse (structural) or
    precomputed features on every parse (passthrough).  A corpus with a
    parse of each lack is a DataError naming the first of each, raised once
    ``sentences`` is exhausted, so that any fault found while reading the
    rest comes first.  Otherwise, with ``structural``, the first parse
    without structure raises ``_Unstructured``.
    """
    def where(parse, entry):
        return f"parse {parse.parse_id!r} of sentence {entry.sentence_id!r}"

    unstructured = featureless = None
    sentences = iter(sentences)
    for entry in sentences:
        for parse in entry.parses:
            if parse.precomputed_features is None:
                featureless = featureless or where(parse, entry)
            if not parse.has_structure:
                unstructured = unstructured or where(parse, entry)
        if unstructured is not None:
            if featureless is not None:
                for _ in sentences:
                    pass
                raise DataError(
                    "the corpus mixes parses with only c-/f-structure "
                    f"({featureless}) and parses with only precomputed "
                    f"features ({unstructured}); templates need one or the "
                    "other on every parse")
            if structural:
                raise _Unstructured
        yield entry


def compile_templates(corpus: Corpus | Iterable[SentenceEntry],
                      lex_table: Optional[LexFrequencyTable] = None
                      ) -> FeatureMatrix:
    """Compile every sentence over every template observed in the corpus.

    The templates are every structural kind while every parse has a c- and
    an f-structure; from the first that does not, the corpus is compiled
    again, from its start, over passthrough templates.  So ``corpus`` may
    be any iterable of sentences that can be iterated twice, and the matrix
    takes each sentence's weight as it comes.  The matrix's registry is the
    one ``build_registry`` returns; a ``lex_table`` adds the lexicalized
    slots.
    """
    if iter(corpus) is corpus:  # an iterator, which a restart cannot reread
        corpus = tuple(corpus)
    try:
        return _walk(_checked(corpus, True), set(STRUCTURAL_KINDS), lex_table)
    except _Unstructured:
        return _walk(_checked(corpus, False), {"passthrough"}, lex_table)


def build_registry(corpus: Corpus,
                   include_lexicalized: bool = False,
                   lex_table: Optional[LexFrequencyTable] = None) -> PropertyRegistry:
    """Instantiate one descriptor per template observed in the corpus.

    The templates are every structural kind when every parse carries a c-
    and an f-structure.  Otherwise every parse must carry precomputed
    features and the registry is a passthrough over their index range; a
    corpus that mixes the two sorts of parse is a DataError.
    ``include_lexicalized`` additionally
    registers every pre-disambiguation slot observed in the corpus relations;
    this requires the class-based frequency table, because activation counts
    are the number of parses with a nonzero value.

    Descriptors are ordered by (kind, key) lexicographically; the registry is
    returned without the correction property.
    """
    if include_lexicalized and lex_table is None:
        raise ConfigError(
            "include_lexicalized requires a class-based frequency table")
    return compile_templates(
        corpus, lex_table if include_lexicalized else None).registry


def compile_corpus(corpus: Corpus | FeatureMatrix, registry: PropertyRegistry,
                   lex_table: Optional[LexFrequencyTable] = None) -> FeatureMatrix:
    """Compile every sentence of ``corpus``, its parse universe, against
    ``registry``; corrections above K are clamped and counted.  A compiled
    ``corpus`` is projected onto ``registry`` (``project``).
    """
    return _walk_for(corpus, registry, lex_table).project(registry)


# Kept only for the benchmark's traced replay (perfbench/tracing.py), which
# calls it; it goes with that replay.
build_feature_matrix = compile_corpus


# ---------------------------------------------------------------------------
# Correction and selection

def same_columns(a: PropertyRegistry, b: PropertyRegistry) -> bool:
    """True when both registries define the same columns and the same K."""
    return a is b or (a.correction_K == b.correction_K
                      and [(d.kind, d.key) for d in a.properties]
                      == [(d.kind, d.key) for d in b.properties])


def add_correction(registry: PropertyRegistry, corpus: Corpus | FeatureMatrix,
                   lex_table: Optional[LexFrequencyTable] = None
                   ) -> PropertyRegistry:
    """Append the constant-mass correction property to the registry.

    K is the maximum total feature value over the parses of the defining
    corpus; the correction value of a parse is K minus its feature total,
    so afterwards every universe parse sums to K exactly (exact for
    integral inputs).  ``corpus`` may be its matrix over a superset of the
    registry's columns, as ``compile_templates`` returns it.
    """
    if registry.correction_K is not None:
        raise ConfigError("registry already carries a correction property")
    totals = compile_corpus(corpus, registry, lex_table).row_totals()
    K = float(totals.max())
    if K <= 0:
        raise DataError(
            "cannot fix a correction constant: every parse has zero feature mass")
    descriptor = PropertyDescriptor(
        kind="correction", key=CORRECTION_KEY,
        activation_count=int(np.count_nonzero(K - totals)))
    return PropertyRegistry(properties=registry.properties + [descriptor],
                            correction_K=K)


def check_cutoff(cutoff: Optional[int]) -> None:
    """ConfigError for a negative selection cutoff (None selects none)."""
    if cutoff is not None and cutoff < 0:
        raise ConfigError("cutoff must be nonnegative")


def select_properties(registry: PropertyRegistry,
                      cutoff: int) -> PropertyRegistry:
    """Drop descriptors activated on fewer than ``cutoff`` parses, by the
    activation counts stored at build time.

    Must run before the correction property is added (the correction is
    re-added afterwards).  Raises when nothing survives the cutoff.
    """
    if registry.correction_K is not None:
        raise ConfigError("select_properties must run before add_correction")
    check_cutoff(cutoff)
    kept = [d for d in registry.properties if d.activation_count >= cutoff]
    if not kept:
        raise DataError(f"property selection with cutoff {cutoff} removed "
                        "every descriptor")
    return PropertyRegistry(properties=kept)
