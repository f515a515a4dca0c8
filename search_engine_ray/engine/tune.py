"""Distributed BM25 (k1, b) grid-sweep tuning.

The standard retrieval-tuning loop — score an evaluation topic set under
every parameter configuration, judge each ranking against qrels, pick the
config with the best aggregate metric — as one Ray Data pipeline.  This is
the batch-evaluation shape used to calibrate k1/b before a production
rollout: the TOPIC axis is the large one (thousands of held-out queries),
so topics are the Dataset and each actor scores ALL configs for its topic
batch in a single vectorized pass over the topic's posting lists (the
per-posting contribution matrix for C configs is one (C, n_postings)
numpy broadcast — postings are decoded once per topic, not once per
config).

Per (config, topic) the actor emits the integer metric row the repo's
trec_eval surface defines (engine/evaluate.py): hits@k', reciprocal rank
and AP numerators floored to micros BEFORE summation — so a
`groupby(config).sum()` over topics is exact and the whole sweep is
SQL-checkable.  The final aggregate is C rows (grid-sized, driver-safe).

Qrels here follow the q_trec_eval convention: a doc is relevant to a
topic iff it contains ALL the topic's terms (boolean-AND retrieval) —
derived from the same index, no external judgments needed, and exactly
reproducible in SQL.

Scale notes: the only exchange is the C-row groupby finish; readers are
per-actor state (T1/T3); postings reads are term-pruned.  Ties rank on
(score desc, doc_key asc) where doc_key is the caller's stable numeric
key (the oracle's ORDER BY doc_id) — pass doc_key=None to tie on the
internal ordinal.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from .boolean import boolean_and
from .index_reader import IndexReader
from .scoring import bm25_term


def _sweep_topic(
    reader: IndexReader,
    terms: list[str],
    k1s: np.ndarray,
    bs: np.ndarray,
    k: int,
    hits_k: int,
    doc_key: np.ndarray | None,
) -> dict[str, np.ndarray]:
    """Metric row per config for ONE topic; vectorized over configs."""
    n = reader.n_docs
    avgdl = reader.avgdl
    C = len(k1s)
    scores = np.zeros((C, n), dtype=np.float64)
    touched = np.zeros(n, dtype=bool)
    for term in terms:
        tp = reader.postings(term)
        if tp is None:
            continue
        ids, tfs, dls = tp.arrays()
        idf = np.log((n - tp.df + 0.5) / (tp.df + 0.5))
        # (C, n_postings) broadcast: one decode, all configs
        scores[:, ids] += bm25_term(
            idf, tfs[None, :], dls[None, :], avgdl, k1s[:, None], bs[:, None]
        )
        touched[ids] = True
    cand = np.flatnonzero(touched)
    rel_docs = boolean_and(reader, list(terms))
    rel_mask = np.zeros(n, dtype=bool)
    rel_mask[rel_docs] = True
    key = cand if doc_key is None else doc_key[cand]

    out = {m: np.zeros(C, dtype=np.int64) for m in (
        "n_rel_ret", "hits_at_k", "rr_micros", "sum_prec_micros")}
    out["n_rel"] = np.full(C, int(rel_mask.sum()), dtype=np.int64)
    for c in range(C):
        order = np.lexsort((key, -scores[c][cand]))[:k]
        rel = rel_mask[cand[order]]
        ranks = np.arange(1, len(order) + 1, dtype=np.int64)
        out["n_rel_ret"][c] = int(rel.sum())
        out["hits_at_k"][c] = int(rel[: hits_k].sum())
        hit_ranks = ranks[rel]
        if len(hit_ranks):
            out["rr_micros"][c] = 1_000_000 // int(hit_ranks[0])
            cum = np.arange(1, len(hit_ranks) + 1, dtype=np.int64)
            out["sum_prec_micros"][c] = int(((cum * 1_000_000) // hit_ranks).sum())
    return out


def sweep_bm25_grid(
    index_dir: str,
    topics: list[tuple[int, list[str]]],
    grid: list[tuple[int, int]],
    k: int = 10,
    hits_k: int = 5,
    concurrency: int | tuple[int, int] = (1, 4),
    doc_key_of=None,
) -> pa.Table:
    """-> one row per (k1_milli, b_milli): integer metric sums over all
    topics (sum_rr_micros, sum_prec_micros, sum_hits_at_k, sum_n_rel_ret,
    sum_n_rel, n_topics), sorted by (k1_milli, b_milli).

    ``grid`` entries are milli-units: (1200, 750) = k1 1.2, b 0.75 — the
    float params are derived as milli/1000.0 on BOTH the engine and the
    SQL side so the doubles agree bit-for-bit.  ``doc_key_of`` maps a
    loaded IndexReader to an int64 tie-break key per internal docID (the
    gate passes numeric doc names; None = internal ordinal order).
    """
    from ray.data.aggregate import Count, Sum

    k1s = np.asarray([g[0] for g in grid], dtype=np.float64) / 1000.0
    bs = np.asarray([g[1] for g in grid], dtype=np.float64) / 1000.0
    grid_arr = np.asarray(grid, dtype=np.int64)

    class SweepScorer:
        def __init__(self):
            self.reader = IndexReader(index_dir, preload=True)
            self.doc_key = None if doc_key_of is None else doc_key_of(self.reader)

        def __call__(self, batch: pa.Table) -> pa.Table:
            rows = {c: [] for c in (
                "k1_milli", "b_milli", "topic", "n_rel", "n_rel_ret",
                "hits_at_k", "rr_micros", "sum_prec_micros")}
            for tid, terms in zip(
                batch["topic"].to_pylist(), batch["terms"].to_pylist()
            ):
                m = _sweep_topic(
                    self.reader, terms, k1s, bs, k, hits_k, self.doc_key)
                rows["k1_milli"].extend(grid_arr[:, 0].tolist())
                rows["b_milli"].extend(grid_arr[:, 1].tolist())
                rows["topic"].extend([tid] * len(grid))
                for c in ("n_rel", "n_rel_ret", "hits_at_k", "rr_micros",
                          "sum_prec_micros"):
                    rows[c].extend(m[c].tolist())
            return pa.table({c: pa.array(v, pa.int64()) for c, v in rows.items()})

    topic_ds = ray.data.from_items(
        [{"topic": tid, "terms": list(terms)} for tid, terms in topics]
    )
    agg = (
        topic_ds.map_batches(
            SweepScorer, concurrency=concurrency, batch_size=16,
            batch_format="pyarrow",
        )
        .groupby(["k1_milli", "b_milli"])
        .aggregate(
            Sum("rr_micros", alias_name="sum_rr_micros"),
            Sum("sum_prec_micros", alias_name="sum_prec_micros"),
            Sum("hits_at_k", alias_name="sum_hits_at_k"),
            Sum("n_rel_ret", alias_name="sum_n_rel_ret"),
            Sum("n_rel", alias_name="sum_n_rel"),
            Count(alias_name="n_topics"),
        )
        .to_pandas()
        .sort_values(["k1_milli", "b_milli"], ignore_index=True)
    )
    return pa.table(
        {c: pa.array(agg[c].astype(np.int64)) for c in (
            "k1_milli", "b_milli", "sum_rr_micros", "sum_prec_micros",
            "sum_hits_at_k", "sum_n_rel_ret", "sum_n_rel", "n_topics")}
    )


def best_config(sweep: pa.Table) -> tuple[int, int]:
    """Winning (k1_milli, b_milli): max sum_prec_micros, ties -> max
    sum_rr_micros, then (k1_milli, b_milli) ascending — total order."""
    t = sweep.to_pandas()
    t = t.sort_values(
        ["sum_prec_micros", "sum_rr_micros", "k1_milli", "b_milli"],
        ascending=[False, False, True, True],
        ignore_index=True,
    )
    return int(t["k1_milli"][0]), int(t["b_milli"][0])
