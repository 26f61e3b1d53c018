"""Independent reference computations.

The trainer oracles are written directly from the defining formulas with
their own score/likelihood code.  The reference extraction below is the
per-parse dict path that the compiled feature matrix replaced, the
reference cluster EM the loop that built two joints per iteration, and the
reference frequency table a per-pair loop over a one-pair posterior with
its own priors fallback.  The reference projection sorts and counts the
kept nonzeros through a row index of every nonzero, as ``project`` did
before it counted rows from ``indptr``.
The reference corpus reader reads every value through the typed readers,
one call per value and no value shared, before ``_validate_entry`` checks
the line.

The reference EM stays class-major on purpose: it gathers columns of the
(C, V) and (C, N) emission tables into a (C, P) joint, an independent
layout from the library's pair-major (P, C) one, so the bit-identity tests
check that the pair-major sums keep every summation order.
"""

import numpy as np
from scipy import optimize

from parsedisamb.corpus import (_FSTRUCTURE_KEYS, _PARSE_KEYS, _SENTENCE_KEYS,
                                VOICES, FStructure, ParseRecord, Relation,
                                SentenceEntry, _check_leaves, _decode_json,
                                _validate_entry, canonical_int, identifier,
                                record, strings, tree_from_json, typed)
from parsedisamb.errors import ConfigError, DataError, InternalConsistencyError
from parsedisamb.lexicalization import SLOTS, ClusterModel, slot_key
from parsedisamb.properties import (ADJUNCT_FUNCTIONS, COORDINATION_MARKERS,
                                    FSTR_KINDS, STRUCTURAL_KINDS, TREE_KINDS)
from conftest import feature_pairs, freq_table


def direct_incomplete_log_likelihood(theta: np.ndarray,
                                     sentence_vectors: list[np.ndarray],
                                     weights: np.ndarray) -> float:
    """Sum_y w(y) ln( sum_{x in X(y)} exp(theta.v) / sum_{x in X} exp(theta.v) ).

    Uniform reference weights cancel between the two sums.
    """
    all_scores = np.concatenate([V @ theta for V in sentence_vectors])
    shift = all_scores.max()
    log_z = shift + np.log(np.exp(all_scores - shift).sum())
    total = 0.0
    for w, V in zip(weights, sentence_vectors):
        scores = V @ theta
        m = scores.max()
        total += w * (m + np.log(np.exp(scores - m).sum()) - log_z)
    return float(total)


def _grid_eval(grid: np.ndarray, sentence_vectors, weights) -> np.ndarray:
    """Likelihood of every grid row, vectorized and chunked."""
    bounds = np.cumsum([0] + [len(V) for V in sentence_vectors])
    V_all = np.vstack(sentence_vectors)
    out = np.empty(len(grid))
    chunk = 200_000
    for start in range(0, len(grid), chunk):
        G = grid[start:start + chunk]
        S = G @ V_all.T  # (P, R)
        shift = S.max(axis=1, keepdims=True)
        log_z = shift[:, 0] + np.log(np.exp(S - shift).sum(axis=1))
        total = np.zeros(len(G))
        for w, (a, b) in zip(weights, zip(bounds[:-1], bounds[1:])):
            seg = S[:, a:b]
            m = seg.max(axis=1)
            total += w * (m + np.log(np.exp(seg - m[:, None]).sum(axis=1)) - log_z)
        out[start:start + chunk] = total
    return out


def _axis_grid(center: np.ndarray, half_width: float, step: float,
               lo: float, hi: float) -> np.ndarray:
    axes = []
    for c in center:
        a = max(lo, c - half_width)
        b = min(hi, c + half_width)
        axes.append(np.arange(a, b + step / 2, step))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def grid_search_optimum(sentence_vectors: list[np.ndarray],
                        weights: np.ndarray,
                        lo: float = -5.0, hi: float = 5.0) -> float:
    """Best incomplete-data log-likelihood over theta in [lo, hi]^n.

    Dimensions up to 2 are searched exhaustively at step 0.01; dimension 3
    uses an exhaustive 0.1 grid refined locally down to step 0.01.  The best
    grid point is then polished with a local numeric optimizer, which can
    only improve the value.
    """
    n = sentence_vectors[0].shape[1]
    center = np.zeros(n)
    if n <= 2:
        grid = _axis_grid(center, half_width=hi, step=0.01, lo=lo, hi=hi)
        values = _grid_eval(grid, sentence_vectors, weights)
        best = grid[int(np.argmax(values))]
    else:
        grid = _axis_grid(center, half_width=hi, step=0.1, lo=lo, hi=hi)
        values = _grid_eval(grid, sentence_vectors, weights)
        best = grid[int(np.argmax(values))]
        grid = _axis_grid(best, half_width=0.15, step=0.01, lo=lo, hi=hi)
        values = _grid_eval(grid, sentence_vectors, weights)
        best = grid[int(np.argmax(values))]

    result = optimize.minimize(
        lambda t: -direct_incomplete_log_likelihood(t, sentence_vectors, weights),
        best, method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 5000})
    return float(max(-result.fun,
                     direct_incomplete_log_likelihood(best, sentence_vectors,
                                                      weights)))


def sentence_vectors_from_corpus(corpus, n_features: int) -> list[np.ndarray]:
    """Dense pre-correction vectors per sentence, from precomputed features."""
    out = []
    for entry in corpus.entries:
        V = np.zeros((len(entry.parses), n_features))
        for j, parse in enumerate(entry.parses):
            for idx, value in parse.precomputed_features or ():
                V[j, idx] = value
        out.append(V)
    return out


# ---------------------------------------------------------------------------
# Reference extraction
#
# The per-parse dict path that the compiled feature matrix replaced, kept
# verbatim as the reference for extraction, registry construction, the
# correction, selection and per-sentence decisions.  Slow by design: it
# re-walks every subtree per ancestor and rescans every parse's relations
# per slot.



def _iter_internal(node):
    if isinstance(node, str):
        return
    label, children = node
    yield label, children
    for child in children:
        yield from _iter_internal(child)


def _symbol(node):
    return node if isinstance(node, str) else node[0]


def _leaf_count(node):
    if isinstance(node, str):
        return 1
    return sum(_leaf_count(c) for c in node[1])


def _complexity_bucket(n_tokens):
    if n_tokens <= 1:
        return "1"
    if n_tokens <= 3:
        return "2-3"
    if n_tokens <= 7:
        return "4-7"
    return "8+"


def reference_structural_values(parse, kinds):
    """(kind, key) -> value, in the reference's insertion order."""
    kinds = set(kinds)
    values = {}

    def bump(kind, key, amount=1.0):
        values[(kind, key)] = values.get((kind, key), 0.0) + amount

    tree = parse.cstructure
    if tree is not None and kinds & TREE_KINDS:
        for label, children in _iter_internal(tree):
            if "production" in kinds:
                rhs = " ".join(_symbol(c) for c in children)
                bump("production", f"{label} -> {rhs}")
            if "attachment-complexity" in kinds and len(children) >= 2:
                for child in children:
                    if not isinstance(child, str):
                        bump("attachment-complexity",
                             _complexity_bucket(_leaf_count(child)))
            if "non-right-branching" in kinds:
                for child in children[:-1]:
                    if not isinstance(child, str):
                        bump("non-right-branching", "count")
            if "coord-non-parallel" in kinds:
                marks = [i for i, c in enumerate(children)
                         if _symbol(c) in COORDINATION_MARKERS]
                if marks:
                    conjuncts = {_symbol(c) for i, c in enumerate(children)
                                 if i not in marks}
                    if len(conjuncts) > 1:
                        bump("coord-non-parallel", "count")

    fstr = parse.fstructure
    if fstr is not None and kinds & FSTR_KINDS:
        for function in fstr.functions:
            if "fstr-attribute" in kinds:
                bump("fstr-attribute", function)
            if "subtree-attachment" in kinds:
                role = "adjunct" if function in ADJUNCT_FUNCTIONS else "argument"
                bump("subtree-attachment", role)
        if "fstr-atomic-pair" in kinds:
            for path, value in fstr.pairs:
                bump("fstr-atomic-pair", f"{path}={value}")
    return values


def reference_lexicalized_properties(entry, table):
    """Per-parse slot indicators, scanning every parse once per slot."""
    rows = [{} for _ in entry.parses]
    for rel_name, voice, position in SLOTS:
        key = slot_key(rel_name, voice, position)
        occupants = []
        for j, parse in enumerate(entry.parses):
            for rel in parse.relations:
                if rel.voice not in VOICES:
                    raise DataError(f"undefined voice {rel.voice!r}")
                if (rel.name, rel.voice, rel.position) == (rel_name, voice, position):
                    occupants.append((j, reference_f_c(table, rel.verb,
                                                       rel.noun)))
                    break
        if not occupants:
            continue
        best = max(value for _, value in occupants)
        for j, value in occupants:
            rows[j][key] = 1 if value >= best else 0
    return rows


def _passthrough_key(index):
    return f"{index:06d}"


def _parse_template_values(parse, kinds):
    values = reference_structural_values(parse, kinds & set(STRUCTURAL_KINDS))
    if "passthrough" in kinds and parse.precomputed_features:
        for idx, value in parse.precomputed_features:
            if value != 0:
                values[("passthrough", _passthrough_key(idx))] = float(value)
    return values


def reference_registry(corpus, include_lexicalized=False, lex_table=None):
    """[(kind, key, activation_count)] in registry order."""
    has_structure = all(p.has_structure for e in corpus.entries for p in e.parses)
    enabled = set(STRUCTURAL_KINDS) if has_structure else {"passthrough"}

    activation = {}
    if "passthrough" in enabled:
        width = 1 + max(
            (max(dict(p.precomputed_features)) for e in corpus.entries
             for p in e.parses if p.precomputed_features),
            default=-1,
        )
        for i in range(width):
            activation[("passthrough", _passthrough_key(i))] = 0

    for entry in corpus.entries:
        lex_rows = None
        if include_lexicalized:
            lex_rows = reference_lexicalized_properties(entry, lex_table)
        for j, parse in enumerate(entry.parses):
            for key, value in _parse_template_values(parse, enabled).items():
                if value != 0:
                    activation[key] = activation.get(key, 0) + 1
                else:
                    activation.setdefault(key, 0)
            if lex_rows is not None:
                for slot, value in lex_rows[j].items():
                    slot_key = ("lexicalized-relation", slot)
                    if value != 0:
                        activation[slot_key] = activation.get(slot_key, 0) + 1
                    else:
                        activation.setdefault(slot_key, 0)
    return [(kind, key, activation[(kind, key)])
            for kind, key in sorted(activation)]


def extract_features(parse, registry):
    """Sparse structural and passthrough vector of one parse."""
    kinds = registry.kinds() & (set(STRUCTURAL_KINDS) | {"passthrough"})
    out = {}
    for (kind, key), value in _parse_template_values(parse, kinds).items():
        idx = registry.index_of(kind, key)
        if idx is not None and value != 0:
            out[idx] = value
    return out


def _entry_base_rows(entry, registry, lex_table):
    rows = [extract_features(parse, registry) for parse in entry.parses]
    if "lexicalized-relation" in registry.kinds():
        if lex_table is None:
            raise ConfigError("no frequency table")
        lex_rows = reference_lexicalized_properties(entry, lex_table)
        for row, lex in zip(rows, lex_rows):
            for slot, value in lex.items():
                idx = registry.index_of("lexicalized-relation", slot)
                if idx is not None and value != 0:
                    row[idx] = float(value)
    return rows


def entry_feature_rows(entry, registry, lex_table=None):
    """Per-parse sparse vectors of one sentence, correction clamped at 0."""
    rows = _entry_base_rows(entry, registry, lex_table)
    correction_idx = registry.correction_index
    if correction_idx is not None:
        for row in rows:
            slack = registry.correction_K - float(sum(row.values()))
            if slack > 0:
                row[correction_idx] = slack
    return rows


def reference_correction(registry, corpus, lex_table=None):
    """(K, correction activation count) over every sentence."""
    totals = [float(sum(row.values()))
              for entry in corpus.entries
              for row in _entry_base_rows(entry, registry, lex_table)]
    best = max(totals)
    return best, sum(1 for total in totals if best - total != 0)


def reference_matrix(corpus, registry, lex_table=None):
    """(dense rows, clamped-correction count) of every sentence."""
    dense, clamped = [], 0
    for entry in corpus.entries:
        for row in _entry_base_rows(entry, registry, lex_table):
            if registry.correction_index is not None:
                slack = registry.correction_K - float(sum(row.values()))
                if slack < 0:
                    clamped += 1
                elif slack > 0:
                    row[registry.correction_index] = slack
            vector = np.zeros(registry.size)
            for idx, value in row.items():
                vector[idx] = value
            dense.append(vector)
    return np.array(dense).reshape(-1, registry.size), clamped


def reference_project(matrix, registry):
    """(indptr, indices, data, clamped-correction count) of
    ``matrix.project(registry)``, by the row of every nonzero: the kept
    nonzeros are sorted by (row, column) and counted per row."""
    colmap = np.full(matrix.n_features, -1, dtype=np.intp)
    for i, d in enumerate(matrix.registry.properties):
        target = registry.index_of(d.kind, d.key)
        if target is not None and d.kind != "correction":
            colmap[i] = target
    n = matrix.n_parses
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(matrix.indptr))
    cols, data = colmap[matrix.indices], matrix.data
    keep = cols >= 0
    order = np.lexsort((cols[keep], rows[keep]))
    rows, cols, data = rows[keep][order], cols[keep][order], data[keep][order]
    per_row = np.bincount(rows, minlength=n)
    clamped = 0
    if registry.correction_K is not None:
        slack = registry.correction_K - np.bincount(rows, weights=data,
                                                    minlength=n)
        clamped = int(np.count_nonzero(slack < 0))
        fill = slack > 0
        ends = np.cumsum(per_row)[fill]
        cols = np.insert(cols, ends, registry.correction_index)
        data = np.insert(data, ends, slack[fill])
        per_row = per_row + fill
    return np.concatenate(([0], np.cumsum(per_row))), cols, data, clamped


def reference_selection(registry, cutoff, corpus=None, lex_table=None):
    """[(kind, key, count)] of the descriptors that survive ``cutoff``."""
    counts = [d.activation_count for d in registry.properties]
    if corpus is not None:
        counts = [0] * registry.size
        for entry in corpus.entries:
            for row in _entry_base_rows(entry, registry, lex_table):
                for idx, value in row.items():
                    if value != 0:
                        counts[idx] += 1
    return [(d.kind, d.key, count)
            for d, count in zip(registry.properties, counts) if count >= cutoff]


def reference_decision(lam, entry, registry, tie_epsilon=1e-9,
                       lex_table=None):
    """(kind, parse_ids) of one sentence, from its per-parse dict scores."""
    if len(entry.parses) == 1:
        return "unique", (entry.parses[0].parse_id,)
    rows = entry_feature_rows(entry, registry, lex_table)
    scores = np.array([sum(lam[idx] * value for idx, value in row.items())
                       for row in rows])
    order = np.argsort(scores, kind="stable")[::-1]
    best = scores[order[0]]
    if best - scores[order[1]] > tie_epsilon:
        return "unique", (entry.parses[int(order[0])].parse_id,)
    return "dont_know", tuple(entry.parses[j].parse_id
                              for j in range(len(entry.parses))
                              if best - scores[j] <= tie_epsilon)


# ---------------------------------------------------------------------------
# Reference cluster EM
#
# The latent-class EM loop before it shared one joint per iteration: the
# E-step and the likelihood each build the (classes x pairs) joint, and the
# M-step counts each class with its own bincount.


def _reference_pair_likelihood(model, vi, ni, f):
    joint = (model.priors[:, None]
             * model.verb_emissions[:, vi]
             * model.noun_emissions[:, ni])  # (C, P)
    totals = joint.sum(axis=0)
    if np.any(totals <= 0):
        raise InternalConsistencyError("pair with zero probability under the model")
    return float(np.add.reduce(f * np.log(totals)))


def reference_train_clusters(counts, n_classes, max_iterations=100,
                             tolerance=1e-6, seed=0):
    """(model, trace) of ``train_clusters`` on valid arguments."""
    verbs, nouns = counts.verbs, counts.nouns
    verb_index = {v: i for i, v in enumerate(verbs)}
    noun_index = {n: i for i, n in enumerate(nouns)}
    pairs = sorted(counts.counts)
    vi = np.array([verb_index[v] for v, _ in pairs], dtype=np.int64)
    ni = np.array([noun_index[n] for _, n in pairs], dtype=np.int64)
    f = np.array([counts.counts[p] for p in pairs], dtype=float)
    total = f.sum()

    if n_classes == 1:
        ve = np.bincount(vi, weights=f, minlength=len(verbs)) / total
        ne = np.bincount(ni, weights=f, minlength=len(nouns)) / total
        model = ClusterModel(priors=np.ones(1), verb_emissions=ve[None, :],
                             noun_emissions=ne[None, :], verbs=verbs, nouns=nouns)
    else:
        rng = np.random.default_rng(seed)
        priors = np.full(n_classes, 1.0 / n_classes)
        ve = 1.0 + 0.1 * rng.random((n_classes, len(verbs)))
        ne = 1.0 + 0.1 * rng.random((n_classes, len(nouns)))
        ve /= ve.sum(axis=1, keepdims=True)
        ne /= ne.sum(axis=1, keepdims=True)
        model = ClusterModel(priors=priors, verb_emissions=ve,
                             noun_emissions=ne, verbs=verbs, nouns=nouns)

    trace = [_reference_pair_likelihood(model, vi, ni, f)]
    for _ in range(max_iterations):
        joint = (model.priors[:, None]
                 * model.verb_emissions[:, vi]
                 * model.noun_emissions[:, ni])  # (C, P)
        resp = joint / joint.sum(axis=0, keepdims=True)
        weighted = resp * f[None, :]  # (C, P)
        mass = weighted.sum(axis=1)  # (C,)

        priors = mass / total
        ve = np.zeros((n_classes, len(verbs)))
        ne = np.zeros((n_classes, len(nouns)))
        for c in range(n_classes):
            ve[c] = np.bincount(vi, weights=weighted[c], minlength=len(verbs))
            ne[c] = np.bincount(ni, weights=weighted[c], minlength=len(nouns))
        alive = mass > 0
        ve[alive] /= mass[alive, None]
        ne[alive] /= mass[alive, None]
        ve[~alive] = model.verb_emissions[~alive]
        ne[~alive] = model.noun_emissions[~alive]

        model = ClusterModel(priors=priors, verb_emissions=ve,
                             noun_emissions=ne, verbs=verbs, nouns=nouns)
        likelihood = _reference_pair_likelihood(model, vi, ni, f)
        if likelihood < trace[-1] - 1e-10:
            raise InternalConsistencyError(
                f"EM likelihood decreased from {trace[-1]} to {likelihood}")
        delta = likelihood - trace[-1]
        trace.append(likelihood)
        if abs(delta) < tolerance:
            break
    return model, trace


def reference_posterior(model, verb, noun):
    """p(c|v,n) of one pair, read from the class-major emission tables.

    The joint is a 1-D array of the products (p(c) p(v|c)) p(n|c), summed
    as one; a pair with an unknown word or a zero total takes the priors."""
    if verb in model.verbs and noun in model.nouns:
        joint = (model.priors
                 * model.verb_emissions[:, model.verbs.index(verb)]
                 * model.noun_emissions[:, model.nouns.index(noun)])
        total = joint.sum()
        if total > 0:
            return joint / total
    return model.priors.copy()


def stored_entries(table) -> dict:
    """(verb, noun) -> f_c of each pair a frequency table stores: its coded
    pairs in code order, then its side table."""
    verbs, nouns = table.model.verbs, table.model.nouns
    entries = {(verbs[code // len(nouns)], nouns[code % len(nouns)]): value
               for code, value in zip(table.codes, table.values)}
    return {**entries, **table.others}


def reference_f_c(table, verb, noun):
    """f_c of a pair: the table's entry, else (f = 0) its best posterior."""
    value = stored_entries(table).get((verb, noun))
    if value is None:
        value = float(reference_posterior(table.model, verb, noun).max())
    return value


def reference_build_freq_table(model, counts):
    """``build_freq_table`` as one ``reference_posterior`` call per pair."""
    entries = {}
    for (verb, noun), freq in counts.counts.items():
        posterior = reference_posterior(model, verb, noun)
        entries[(verb, noun)] = float(posterior.max() * (freq + 1.0))
    return freq_table(model, entries)


def _reference_relation_from_json(item):
    name, verb, noun, voice, position = typed(item, list, "relation")
    return Relation(*strings([name, verb, noun, voice], "relation fields"),
                    typed(position, int, "relation position"))


def _reference_parse_from_json(rec, n_tokens):
    parse_id = identifier(record(rec, _PARSE_KEYS, "parse record")["parse_id"],
                          "field 'parse_id'")
    cstructure = rec.get("cstructure")
    if cstructure is not None:
        cstructure, n_leaves = tree_from_json(cstructure)
        _check_leaves(parse_id, n_leaves, n_tokens)
    fstructure = rec.get("fstructure")
    if fstructure is not None:
        record(fstructure, _FSTRUCTURE_KEYS, "field 'fstructure'")
        fstructure = FStructure(
            pairs=tuple(strings(pair, "fstructure pair", 2) for pair in
                        typed(fstructure.get("pairs", []), list,
                              "fstructure pairs")),
            functions=strings(fstructure.get("functions", []),
                              "fstructure functions"))
    relations, frame = rec.get("relations"), rec.get("frame")
    features = rec.get("precomputed_features")
    return ParseRecord(
        parse_id=parse_id,
        cstructure=cstructure,
        fstructure=fstructure,
        relations=() if relations is None else tuple(map(
            _reference_relation_from_json,
            typed(relations, list, "field 'relations'"))),
        frame=None if frame is None else typed(frame, str, "field 'frame'"),
        precomputed_features=None if features is None else feature_pairs({
            canonical_int(k, "precomputed feature index"):
                typed(v, float, "precomputed feature value")
            for k, v in typed(features, dict,
                              "field 'precomputed_features'").items()}),
    )


def _reference_entry_from_json(rec):
    sentence_id = identifier(
        record(rec, _SENTENCE_KEYS, "sentence record")["sentence_id"],
        "field 'sentence_id'")
    tokens = strings(rec["tokens"], "field 'tokens'")
    parses = tuple(_reference_parse_from_json(p, len(tokens)) for p in
                   typed(rec["parses"], list, "field 'parses'"))
    gold = rec.get("gold_index")
    return SentenceEntry(
        sentence_id=sentence_id,
        tokens=tokens,
        parses=parses,
        weight=typed(rec.get("weight", 1.0), float, "field 'weight'"),
        gold_index=None if gold is None else typed(gold, int,
                                                   "field 'gold_index'"),
    )


def reference_read_entry(where, line):
    """The checked sentence on one corpus line, every value read through
    the typed readers."""
    entry = _decode_json(where, line.encode("utf-8"),
                         _reference_entry_from_json)
    _validate_entry(entry, where)
    return entry
