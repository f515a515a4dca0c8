"""More-like-this retrieval: turn a document into a query and rank the
corpus against it.

Beyond-reference surface (the reference only scores hand-written TREC
topics): the classic Lucene-style MLT loop — extract the source text's
highest-weight terms by tf x idf, then run the standard disjunctive
scorer over that term set, excluding the source document.

Term selection uses THIS engine's TfIdf idf quirk ``ln(N // df)``
(integer division — /root/reference/src/Query/TfIdfScorer.cs:29) so the
selection rule is the same scorer family users already get, and the
driver-gate SQL oracle reproduces it exactly.

Scale shape: the source document's term set is query-sized; df lookups
are ONE row-group-pruned read of the sorted terms table (isin filter),
and scoring reuses the normal query path (posting reads only for the
selected terms).  Nothing corpus-sized moves.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..config import IndexOptions
from ..text.tokenizer import normalize_text_oracle


def select_query_terms(
    index_dir: str,
    text: str,
    options: IndexOptions,
    n_docs: int,
    top_terms: int = 10,
) -> list[tuple[str, int]]:
    """Source text -> the ``top_terms`` highest tf*ln(N//df) terms as
    (term, qtf=1) keywords, ties -> term ascending.  Terms absent from
    the index dictionary are dropped (df undefined -> can't score)."""
    toks = normalize_text_oracle(
        text,
        case_folding=options.case_folding,
        remove_stopwords=options.remove_stopwords,
        stemming=options.stemming,
    )
    if not toks:
        return []
    terms, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
    from .terms_io import terms_dataset

    dset = terms_dataset(index_dir)
    df_tbl = dset.to_table(filter=pc.field("term").isin(terms.tolist()))
    df_map = dict(zip(df_tbl["term"].to_pylist(), df_tbl["df"].to_pylist()))
    rows = []
    for t, tf in zip(terms.tolist(), counts.tolist()):
        df = df_map.get(t)
        if df is None:
            continue
        rows.append((t, float(tf) * np.log(float(n_docs // df))))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return [(t, 1) for t, _ in rows[:top_terms]]


def more_like_this(
    reader,
    index_dir: str,
    text: str,
    options: IndexOptions,
    exclude_doc: int | None = None,
    top_terms: int = 10,
    k: int = 10,
) -> tuple[list[tuple[str, int]], np.ndarray, np.ndarray]:
    """-> (selected keywords, doc ordinals, float64 BM25 scores) for the
    top-k most-similar documents (source doc excluded when its ordinal is
    given)."""
    from ..pipelines import bm25_scores_f64

    keywords = select_query_terms(index_dir, text, options, reader.n_docs, top_terms)
    if not keywords:
        return [], np.empty(0, np.int64), np.empty(0, np.float64)
    ids, scores = bm25_scores_f64(reader, keywords)  # drops tombstoned docs
    if exclude_doc is not None:
        keep = ids != exclude_doc
        ids, scores = ids[keep], scores[keep]
    return keywords, ids[:k], scores[:k]
