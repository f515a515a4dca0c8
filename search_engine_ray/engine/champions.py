"""Champion lists (top-docs / fancy lists — Manning, Raghavan & Schütze
IR ch.7.1.3): a per-term cache of the m postings with the largest BM25
tf-saturation part

    sat(tf, dl) = tf / (tf + k1 * (1 - b + b * dl/avgdl))

which is monotone in the per-doc contribution (idf is constant within a
term), so the true per-term top-m contributors are kept exactly.  At
serving time a query touches only the champion rows of its terms —
|terms| * m postings instead of full lists — the classic approximate
early-termination path for the 10^12-doc regime where even MaxScore
must walk full tails.  When m >= every query term's df the result is
BIT-IDENTICAL to exhaustive BM25 (the gate pins this); with small m it
is approximate, graded by recall against the exact ranking.

Build is one distributed pass over the postings table: per-batch decode
+ per-term partial top-m (the per-batch emission is <= m rows per term
per batch), then a term-hash-bucket groupby folds the global top-m
(one vectorized pass per bucket, pyarrow batches).  No other stage ever
decodes a posting.

POSITIVE-IDF ASSUMPTION: "largest sat == best contributor" holds only
when idf > 0, i.e. df < n/2.  Negative-idf terms (stopword-like; the
terms static pruning removes anyway) invert the preference — champion
lists over them keep the WORST docs, so prune them or keep m >= df.
For a single positive-idf term with k <= m the truncated list is
provably exact, not just approximate.

Reference scope note: the reference engine (/root/reference) has no
champion lists; this is a beyond-reference serving structure.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .codec import decode_concat_rows, load_meta
from .merge import term_bucket_array
from .scoring import bm25_term

CHAMP_FILE = "champions.parquet"
STATS_FILE = "champion_stats.json"
# term-hash buckets of the global top-m fold: one group call folds every
# term of a bucket, never one call per term
_FOLD_BUCKETS = 16


def _top_m(
    dictionary: pa.Array, codes: np.ndarray, ids: np.ndarray, tfs: np.ndarray,
    dls: np.ndarray, m: int, k1: float, b: float, avgdl: float,
) -> pa.Table:
    """Every term's top-m postings by sat(tf, dl), ties by ascending docID,
    for all terms at once: one lexsort by (term, -sat, doc) and a
    rank-within-term cut.  ``codes`` index ``dictionary`` per posting."""
    sat = tfs / (tfs + k1 * (1 - b + b * (dls / avgdl)))
    order = np.lexsort((ids, -sat, codes))
    c = codes[order]
    starts = np.flatnonzero(np.concatenate(([True], c[1:] != c[:-1])))
    rank = np.arange(len(c)) - np.repeat(starts, np.diff(np.append(starts, len(c))))
    keep = order[rank < m]
    return pa.table({
        "term": dictionary.take(pa.array(codes[keep], pa.int64())),
        "doc_id": pa.array(ids[keep], pa.int64()),
        "tf": pa.array(tfs[keep], pa.int64()),
        "dl": pa.array(dls[keep], pa.int64()),
    })


def build_champion_lists(
    index_dir: str,
    out_dir: str,
    m: int = 128,
    k1: float = 1.2,
    b: float = 0.75,
) -> dict:
    """Write {out_dir}/champions.parquet: (term, doc_id, tf, dl) — each
    term's true top-m postings by sat(tf, dl), ties by ascending docID —
    plus champion_stats.json carrying (n_docs, avgdl, m, k1, b)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    stats = load_meta(os.path.join(index_dir, "stats.json"))
    avgdl = float(stats["avgdl"])

    def partial(batch: pa.Table) -> pa.Table:
        # one decode per column for the whole batch, then the per-term
        # top-m over every term in it; the bucket routes the fold
        lens = np.asarray(batch["n"], dtype=np.int64)
        denc = batch["term"].combine_chunks().dictionary_encode()
        top = _top_m(
            denc.dictionary,
            np.repeat(np.asarray(denc.indices, dtype=np.int64), lens),
            decode_concat_rows(batch["docs_enc"], lens, delta=True),
            decode_concat_rows(batch["tfs_enc"], lens, delta=False),
            decode_concat_rows(batch["dls_enc"], lens, delta=False),
            m, k1, b, avgdl,
        )
        return top.append_column("bucket", term_bucket_array(top["term"], _FOLD_BUCKETS))

    def fold(group: pa.Table) -> pa.Table:
        denc = group["term"].combine_chunks().dictionary_encode()
        return _top_m(
            denc.dictionary,
            np.asarray(denc.indices, dtype=np.int64),
            np.asarray(group["doc_id"]),
            np.asarray(group["tf"]),
            np.asarray(group["dl"]),
            m, k1, b, avgdl,
        )

    os.makedirs(out_dir, exist_ok=True)
    champs = (
        ray.data.read_parquet(
            os.path.join(index_dir, "postings"),
            columns=["term", "n", "docs_enc", "tfs_enc", "dls_enc"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(fold, batch_format="pyarrow")
    )
    tbl = pa.concat_tables(
        [
            pa.table(bt)
            for bt in champs.iter_batches(batch_size=None, batch_format="pyarrow")
        ]
    ).sort_by([("term", "ascending"), ("doc_id", "ascending")])
    import pyarrow.parquet as pq

    pq.write_table(tbl, os.path.join(out_dir, CHAMP_FILE))
    out_stats = {
        "n_docs": int(stats["n_docs"]),
        "avgdl": avgdl,
        "m": int(m),
        "k1": k1,
        "b": b,
        "n_terms": int(len(set(tbl["term"].to_pylist()))),
        "n_rows": int(tbl.num_rows),
    }
    with open(os.path.join(out_dir, STATS_FILE), "w") as fh:
        json.dump(out_stats, fh)
    return out_stats


def champion_topk(
    champ_dir: str,
    reader,
    keywords: list[tuple[str, int]],
    k: int = 10,
    k3: float = 100.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Approximate BM25 top-k over champion lists only: a term-pruned
    parquet read of |terms| * m rows, exact global df/idf from the
    reader's term metadata (no posting decode), dense accumulate over
    the candidate union; tombstoned docs are never returned.  Returns
    (docids desc-score asc-docid, scores) — bit-identical to
    bm25_scores_f64 whenever m covers each term's df."""
    import pyarrow.dataset as pads

    with open(os.path.join(champ_dir, STATS_FILE)) as fh:
        cstats = json.load(fh)
    n, avgdl, k1, b = (
        cstats["n_docs"],
        cstats["avgdl"],
        cstats["k1"],
        cstats["b"],
    )
    terms = pa.array([t for t, _ in keywords], pa.string())
    tbl = (
        pads.dataset(os.path.join(champ_dir, CHAMP_FILE))
        .to_table(filter=pads.field("term").isin(terms))
    )
    scores = np.zeros(n, dtype=np.float64)
    touched = np.zeros(n, dtype=bool)
    for term, qtf in keywords:
        rows = tbl.filter(pc.equal(tbl["term"], term))
        df = reader.df(term)
        if rows.num_rows == 0 or df is None:
            continue
        ids = np.asarray(rows["doc_id"], dtype=np.int64)
        idf = np.log((n - df + 0.5) / (df + 0.5))
        qterm = ((k3 + 1) * qtf) / (k3 + qtf)
        scores[ids] += bm25_term(idf, np.asarray(rows["tf"]), np.asarray(rows["dl"]), avgdl, k1, b, qterm)
        touched[ids] = True
    dead = reader.deleted_mask()
    if dead is not None:
        touched &= ~dead
    cand = np.flatnonzero(touched)
    order = np.lexsort((cand, -scores[cand]))[:k]
    return cand[order], scores[cand][order]
