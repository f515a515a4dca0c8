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
per batch), then a term groupby folds the global top-m.  No other
stage ever decodes a posting.

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
import pandas as pd
import pyarrow as pa
import ray.data

from .codec import delta_decode, load_meta, vbyte_decode

CHAMP_FILE = "champions.parquet"
STATS_FILE = "champion_stats.json"


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
        terms_out, ids_out, tfs_out, dls_out = [], [], [], []
        terms = batch["term"].to_pylist()
        ns = batch["n"].to_pylist()
        de = batch["docs_enc"].to_pylist()
        te = batch["tfs_enc"].to_pylist()
        le = batch["dls_enc"].to_pylist()
        # fold blocks of the same term within this batch before the top-m
        by_term: dict[str, list[int]] = {}
        for i, t in enumerate(terms):
            by_term.setdefault(t, []).append(i)
        for t, rows in by_term.items():
            ids = np.concatenate([delta_decode(de[i], ns[i]) for i in rows])
            tfs = np.concatenate(
                [vbyte_decode(te[i], ns[i]).astype(np.int64) for i in rows]
            )
            dls = np.concatenate(
                [vbyte_decode(le[i], ns[i]).astype(np.int64) for i in rows]
            )
            sat = tfs / (tfs + k1 * (1 - b + b * (dls / avgdl)))
            keep = np.lexsort((ids, -sat))[: min(m, len(ids))]
            terms_out.append(np.full(len(keep), t, dtype=object))
            ids_out.append(ids[keep])
            tfs_out.append(tfs[keep])
            dls_out.append(dls[keep])
        if not terms_out:
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "doc_id": pa.array([], pa.int64()),
                    "tf": pa.array([], pa.int64()),
                    "dl": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "term": pa.array(np.concatenate(terms_out), pa.string()),
                "doc_id": pa.array(np.concatenate(ids_out).astype(np.int64)),
                "tf": pa.array(np.concatenate(tfs_out)),
                "dl": pa.array(np.concatenate(dls_out)),
            }
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        sat = g["tf"].to_numpy(np.float64) / (
            g["tf"].to_numpy(np.float64)
            + k1 * (1 - b + b * (g["dl"].to_numpy(np.float64) / avgdl))
        )
        keep = np.lexsort((g["doc_id"].to_numpy(), -sat))[: min(m, len(g))]
        return g.iloc[keep]

    os.makedirs(out_dir, exist_ok=True)
    champs = (
        ray.data.read_parquet(
            os.path.join(index_dir, "postings"),
            columns=["term", "n", "docs_enc", "tfs_enc", "dls_enc"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .map_groups(fold, batch_format="pandas")
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
    the candidate union.  Returns (docids desc-score asc-docid, scores)
    — bit-identical to bm25_scores_f64 whenever m covers each term's df."""
    import pyarrow.dataset as pads

    with open(os.path.join(champ_dir, STATS_FILE)) as fh:
        cstats = json.load(fh)
    n, avgdl, k1, b = (
        cstats["n_docs"],
        cstats["avgdl"],
        cstats["k1"],
        cstats["b"],
    )
    terms = [t for t, _ in keywords]
    tbl = (
        pads.dataset(os.path.join(champ_dir, CHAMP_FILE))
        .to_table(filter=pads.field("term").isin(terms))
    )
    by_term: dict[str, pa.Table] = {}
    if tbl.num_rows:
        df_ = tbl.to_pandas()
        by_term = {t: g for t, g in df_.groupby("term", sort=False)}
    scores = np.zeros(n, dtype=np.float64)
    touched = np.zeros(n, dtype=bool)
    for term, qtf in keywords:
        g = by_term.get(term)
        df = reader.df(term)
        if g is None or df is None:
            continue
        ids = g["doc_id"].to_numpy(np.int64)
        tfs = g["tf"].to_numpy(np.float64)
        dls = g["dl"].to_numpy(np.float64)
        idf = np.log((n - df + 0.5) / (df + 0.5))
        qterm = ((k3 + 1) * qtf) / (k3 + qtf)
        scores[ids] += (
            idf * (tfs * (k1 + 1)) / (tfs + k1 * (1 - b + b * (dls / avgdl))) * qterm
        )
        touched[ids] = True
    cand = np.flatnonzero(touched)
    order = np.lexsort((cand, -scores[cand]))[:k]
    return cand[order], scores[cand][order]
