"""Fielded (multi-field) BM25F ranking.

The reference engine scores one token stream per document
(/root/reference/src/Indexing — a single ``text`` field).  BM25F
(Robertson, Zaragoza & Taylor, CIKM 2004) is the standard extension when
documents have zones of different importance: per-field term frequencies
are length-normalized PER FIELD, combined into one weighted pseudo-tf,
and saturated ONCE —

    wtf(t, d) = sum_f  w_f * tf_f(t,d) / (1 - b_f + b_f * len_f(d)/avglen_f)
    score(d)  = sum_t  idf(t) * wtf / (k1 + wtf)

with document-level idf (df = docs containing t in ANY field).

Distributed design: a field IS an index.  The corpus rows are split once
into derived field columns (``derive_ws_fields`` — the pinned whitespace
class from text/ws.py; title = first ``n_title`` tokens, body = the
rest), and the existing distributed build (engine/build.py) runs once per
field over the SAME derived parquet, so both indexes share the docID
space by construction (segments.py assigns docIDs from row order).  At
query time the per-field posting lists are combined driver-side exactly
like the single-field scorers in pipelines.py — the per-term work is a
handful of vectorized passes over posting arrays.

Float64 op order is pinned to match the DuckDB oracle
(__ray_entry__.oracle_sql()["bm25f_top10"]) term-for-term, the same
contract bm25_scores_f64 honors.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..text.ws import WS_RE
from .index_reader import IndexReader

# (weight, length-normalization b) per field: title hits count double and
# are normalized gently (titles are short); body is plain BM25 b.
DEFAULT_FIELDS = {"title": (2.0, 0.5), "body": (1.0, 0.75)}
DEFAULT_N_TITLE = 8


def derive_ws_fields(
    texts: pa.Array | pa.ChunkedArray, n_title: int = DEFAULT_N_TITLE
) -> tuple[pa.Array, pa.Array]:
    """(title, body) string arrays: the first ``n_title`` non-empty
    whitespace tokens joined by single spaces, and the remaining tokens
    likewise.  Rows with <= n_title tokens get body "".  One vectorized
    pass (split -> positional mask -> two list rebuilds -> binary_join);
    int64 LargeList offsets so huge batches never overflow."""
    if n_title < 1:
        raise ValueError(f"n_title must be >= 1, got {n_title}")
    lists = pc.split_pattern_regex(pc.fill_null(texts, ""), pattern=WS_RE)
    flat = pc.list_flatten(lists)
    lens = np.asarray(pc.list_value_length(lists), dtype=np.int64)
    rows = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    keep = np.asarray(pc.greater(pc.binary_length(flat), 0))
    flat = flat.filter(pa.array(keep))
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    rows = rows[keep]
    counts = np.bincount(rows, minlength=len(lens))
    starts = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    pos = np.arange(len(rows), dtype=np.int64) - starts[rows]
    tmask = pos < n_title

    def join(mask: np.ndarray, per_row: np.ndarray) -> pa.Array:
        off = np.zeros(len(per_row) + 1, dtype=np.int64)
        np.cumsum(per_row, out=off[1:])
        vals = flat.filter(pa.array(mask))
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        lst = pa.LargeListArray.from_arrays(pa.array(off, pa.int64()), vals)
        out = pc.binary_join(lst, " ")
        return out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out

    title_counts = np.minimum(counts, n_title)
    return join(tmask, title_counts), join(~tmask, counts - title_counts)


def _check_aligned(readers: list[IndexReader]) -> int:
    """Fielded scoring requires one shared docID space.  Builds produced by
    pipelines.documents_fielded_readers share it by construction (same
    derived corpus, row-order docIDs); this guards against hand-assembled
    mismatched pairs with n_docs + probe-position name checks (full
    equality is asserted in tests, not per query)."""
    n = readers[0].n_docs
    for r in readers[1:]:
        if r.n_docs != n:
            raise ValueError(
                f"fielded indexes disagree on n_docs: {n} vs {r.n_docs}"
            )
    if n:
        probes = np.unique(np.linspace(0, n - 1, num=min(8, n), dtype=np.int64))
        for r in readers[1:]:
            for p in probes:
                if r.doc_names[p] != readers[0].doc_names[p]:
                    raise ValueError(
                        f"fielded indexes disagree on doc {p}: "
                        f"{readers[0].doc_names[p]!r} vs {r.doc_names[p]!r}"
                    )
    return n


def bm25f_scores_f64(
    field_readers: list[tuple[IndexReader, float, float]],
    keywords: list[tuple[str, int]],
    k1: float = 1.2,
) -> tuple[np.ndarray, np.ndarray]:
    """BM25F over aligned per-field indexes.

    ``field_readers``: [(reader, weight, b), ...] in field order (the
    oracle sums field contributions title-then-body; + is commutative-exact
    here only because the absent side contributes literal 0.0).
    Returns (docids desc-score asc-docid, float64 scores) like
    pipelines.bm25_scores_f64.  A doc tombstoned in any field's index
    leaves the ranking; N and df stay corpus-wide, as there."""
    n = _check_aligned([r for r, _, _ in field_readers])
    scores = np.zeros(n, dtype=np.float64)
    touched = np.zeros(n, dtype=bool)
    for term, _qtf in keywords:
        wtf = np.zeros(n, dtype=np.float64)
        for reader, w, b in field_readers:
            tp = reader.postings(term)
            if tp is None:
                continue
            ids, tfs, dls = tp.arrays()
            wtf[ids] += w * tfs / (1 - b + b * (dls / reader.avgdl))
        df = int(np.count_nonzero(wtf))
        if df == 0:
            continue
        idf = np.log((n - df + 0.5) / (df + 0.5))
        mask = wtf > 0
        scores[mask] += idf * wtf[mask] / (k1 + wtf[mask])
        touched |= mask
    for reader, _w, _b in field_readers:
        dead = reader.deleted_mask()
        if dead is not None:
            touched &= ~dead
    cand = np.flatnonzero(touched)
    order = np.lexsort((cand, -scores[cand]))
    return cand[order], scores[cand][order]
