"""Pre-retrieval query-performance prediction (QPP) statistics.

Beyond-reference surface: the reference scores every query blind — it
keeps no per-query difficulty signal (its stats verb reports corpus-level
histograms only, /root/reference/src/Program.cs stats path).  Standard
pre-retrieval QPP predictors rank incoming queries by expected
retrieval quality BEFORE running them, which at web scale drives query
routing (easy queries -> cheap tier, hard queries -> deep tier / query
rewriting):

- BM25 idf per term (He & Ounis, SIGIR 2004 poster family: max/avg idf
  are the classic difficulty proxies; we emit the per-term values and
  let the caller fold max/avg, which keeps the table total-ordered).
- SCQ per term (Zhao, Scholer & Tsegay, ECIR 2008): similarity of the
  collection to the query, ``(1 + ln(cf)) * ln(1 + N / df)`` — high
  when the term is both frequent and discriminative.

Distributed shape
-----------------
One parquet read of the postings table pruned two ways: ``columns=``
keeps only (term, n, tfs_enc) and ``filter=term isin(query terms)``
prunes fragments + row groups via parquet min/max stats, so only the
query terms' blocks leave storage (the same pruning contract as the
term-pruned reader, engine/index_reader.py).  ``map_batches`` folds
each batch to per-term partials (df from the stored block lengths, cf
by decoding the block's tf cells — one vectorized decode + reduceat per
batch); the only exchange is a groupby over <= |query| keys, and the
driver receives <= |query| rows.  No stage is corpus-sized.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads

from .codec import decode_concat_rows, load_meta


def _micros(x: np.ndarray) -> np.ndarray:
    """Engine-wide micros convention: FLOOR(x * 1e6 + 0.5)."""
    return np.floor(x * 1_000_000.0 + 0.5).astype(np.int64)


def qpp_predictors(index_dir: str, terms: list[str]) -> pa.Table:
    """Per-term pre-retrieval predictors over a built index.

    Returns an Arrow table ordered by term with columns
    ``term, df, cf, idf_micros, scq_micros`` (df = document frequency,
    cf = collection frequency).  Terms absent from the index are
    silently dropped (the J1 silent-drop contract — SQL GROUP BY
    likewise emits no row for them).
    """
    import ray.data
    from ray.data.aggregate import Sum

    n_docs = int(load_meta(os.path.join(index_dir, "stats.json"))["n_docs"])

    ds = ray.data.read_parquet(
        os.path.join(index_dir, "postings"),
        columns=["term", "n", "tfs_enc"],
        filter=pads.field("term").isin(list(dict.fromkeys(terms))),
    )

    def partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "df_part": pa.array([], pa.int64()),
                    "cf_part": pa.array([], pa.int64()),
                }
            )
        n_per_row = np.asarray(batch["n"], dtype=np.int64)
        flat = decode_concat_rows(batch["tfs_enc"], n_per_row, delta=False)
        row_starts = np.concatenate(([0], np.cumsum(n_per_row)[:-1]))
        cf_rows = np.add.reduceat(flat.astype(np.int64), row_starts)
        # in-batch combine: one output row per distinct term in the batch
        t = np.asarray(batch["term"].to_pandas(), dtype=object)
        uniq, inv = np.unique(t, return_inverse=True)
        df_part = np.bincount(inv, weights=n_per_row).astype(np.int64)
        cf_part = np.bincount(inv, weights=cf_rows).astype(np.int64)
        return pa.table(
            {
                "term": pa.array(uniq.tolist(), pa.string()),
                "df_part": pa.array(df_part),
                "cf_part": pa.array(cf_part),
            }
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df_part", alias_name="df"), Sum("cf_part", alias_name="cf"))
    )
    # <= |query terms| rows by construction — a bounded driver collect.
    # Ray 2.49 wart: an all-empty aggregate collects to a ZERO-COLUMN
    # frame (see ioutil.nonempty_blocks) — emit the typed empty table.
    tbl = agg.to_pandas()
    if len(tbl) == 0:
        return pa.table(
            {
                "term": pa.array([], pa.string()),
                "df": pa.array([], pa.int64()),
                "cf": pa.array([], pa.int64()),
                "idf_micros": pa.array([], pa.int64()),
                "scq_micros": pa.array([], pa.int64()),
            }
        )
    tbl = tbl.sort_values("term", ignore_index=True)
    df = np.asarray(tbl["df"], dtype=np.int64)
    cf = np.asarray(tbl["cf"], dtype=np.int64)
    # float64 compositions written to match the SQL oracle token-for-token
    idf = np.log((n_docs - df + 0.5) / (df + 0.5))
    scq = (1.0 + np.log(cf.astype(np.float64))) * np.log(
        1.0 + n_docs * 1.0 / df.astype(np.float64)
    )
    return pa.table(
        {
            "term": pa.array(tbl["term"].tolist(), pa.string()),
            "df": pa.array(df),
            "cf": pa.array(cf),
            "idf_micros": pa.array(_micros(idf)),
            "scq_micros": pa.array(_micros(scq)),
        }
    )


def qpp_post(reader, keywords: list[tuple[str, int]], k: int = 10) -> pa.Table:
    """Post-retrieval QPP over a BM25 ranking (Zhou & Croft family).

    Runs the f64 BM25 twin over ``keywords``, converts scores to the
    engine-wide integer micros, cuts the top-``k`` under (micros desc,
    numeric docID asc), and emits ONE row:

    ``k, n_scored, sum_topk_micros, sumsq_topk_micros, sum_all_micros``
    (all integer-exact) plus two float-composed predictors:

    - ``nqc_micros`` — Normalized Query Commitment (Shtok, Kurland &
      Carmel 2009): std-dev of the top-k scores normalized by |mean
      score of the full candidate set| (the collection-score proxy
      computable from the same pass).
    - ``wig_micros`` — Weighted Information Gain (Zhou & Croft, SIGIR
      2007): (mean top-k - mean all) / sqrt(|q|).

    Every float op composes from the integer sums with correctly-rounded
    IEEE ops only (/, *, sqrt — no transcendentals), so the micros are
    bit-reproducible against any SQL engine fed the same integers.

    Scale shape: the scoring pass is the standard per-shard kernel; the
    fold to five integers happens on the candidate arrays the scorer
    already returned — nothing new materializes.
    """
    from ..pipelines import bm25_scores_f64

    ids, scores = bm25_scores_f64(reader, keywords)
    m = _micros(scores)
    # tie-break the top-k cut on NUMERIC doc name when names are numeric
    # (aligns with the SQL oracle's ORDER BY doc_id); fall back to the
    # engine ordinal for non-numeric corpora (URL names) — ties at the
    # k boundary shift only which equal-score docs enter the sums
    try:
        docs = np.asarray([int(reader.doc_names[d]) for d in ids], dtype=np.int64)
    except ValueError:
        docs = np.asarray(ids, dtype=np.int64)
    order = np.lexsort((docs, -m))
    m = m[order]
    kk = min(k, len(m))
    top = m[:kk].tolist()
    n_scored = int(len(m))
    # exact Python-int sums: numpy int64 squares overflow silently at
    # large k x score scales; SQL's SUM widens to int128 the same way
    sum_topk = sum(top)
    sumsq_topk = sum(x * x for x in top)
    sum_all = int(m.sum())

    if kk == 0 or n_scored == 0:
        nqc = wig = 0.0
    else:
        # float64 FIRST (SQL's BIGINT*1.0), then correctly-rounded / * sqrt
        mean_topk = float(sum_topk) / kk
        mean_all = float(sum_all) / n_scored
        var = float(sumsq_topk) / kk - mean_topk * mean_topk
        denom = abs(mean_all)
        nqc = np.sqrt(max(var, 0.0)) / denom if denom > 0 else 0.0
        # back to score units (micros/1e6) so wig_micros is micros OF A
        # SCORE difference, not micros of micros
        wig = (mean_topk - mean_all) / 1_000_000.0 / np.sqrt(float(len(keywords)))
    return pa.table(
        {
            "k": pa.array([kk], pa.int64()),
            "n_scored": pa.array([n_scored], pa.int64()),
            "sum_topk_micros": pa.array([sum_topk], pa.int64()),
            "sumsq_topk_micros": pa.array([sumsq_topk], pa.int64()),
            "sum_all_micros": pa.array([sum_all], pa.int64()),
            "nqc_micros": pa.array(_micros(np.array([nqc]))),
            "wig_micros": pa.array(_micros(np.array([wig]))),
        }
    )
