"""Per-layer metrics of a traced run.

A workload's own loop already records the layer metrics on its path
(build phases on ``ingest``, maintenance on ``update``, the batch run on
``query``).  ``probe`` then fills in every per-layer metric the loop did
not produce, by calling that layer's public functions on the workload's
own corpus and index, so every traced run reports every metric.  Each
probe is a fixed amount of work: the first row group, the first
``PROBE_TOPICS`` topics, one delete and one upsert.
"""

from __future__ import annotations

import json
import os
import time

import pyarrow.parquet as pq

from search_engine_ray.config import BM25Params, BuildConfig, IndexOptions
from search_engine_ray.corpus.extract import extract_text_batch
from search_engine_ray.engine.impact import read_impact_meta, saat_topk
from search_engine_ray.engine.index_reader import IndexReader
from search_engine_ray.engine.maintenance import compact_index, delete_docs, fsck_index, upsert_docs
from search_engine_ray.engine.scoring import maxscore_topk, taat_bm25, taat_bm25_adpt, taat_tfidf
from search_engine_ray.engine.search import score_topic, search_topics, write_trec_run
from search_engine_ray.engine.segments import build_fragment_postings
from search_engine_ray.text.vectorized import tokenize_batch

from . import inputs
from .common import Ctx, Samples, bytes_written, file_states, rss_mb, timed, tree_bytes
from .workloads import (
    DELETE_FRAC, SAAT_BUDGET, TOP_K, TREC_K, UPSERT_NEW, UPSERT_REPLACE,
    _fresh, _impact, _reopen, check_run_file,
)

PROBE_TOPICS = 50
PROBE_REPEATS = 3
SEARCH_PROBE_TOPICS = 20


MAINTENANCE = {
    "maintenance.delete_s", "maintenance.upsert_s", "maintenance.upsert_segments_s",
    "maintenance.upsert_merge_s", "maintenance.compact_s", "maintenance.bytes_written",
    "maintenance.bytes_written_per_byte", "maintenance.index_growth_bytes_per_cycle",
    "maintenance.fsck_s",
}


def probe(ctx: Ctx, state: dict) -> None:
    topics = [t for t in state["topics"] if t[1]][:PROBE_TOPICS]
    idx = state.get("compacted") or state["idx"]  # a tombstone-free index
    loop, ctx.lay = ctx.lay, Samples()
    try:
        _text(ctx, state["corpus"])
        fresh = _reader(ctx, idx, topics)
        _scoring(ctx, state["reader"] or fresh, topics)
        imp = state["imp"]
        if imp is None:
            imp = os.path.join(ctx.work, "probe-imp")
            ctx.lay.add("impact.build_s", _impact(ctx, idx, imp), "s")
        _sizes(ctx, state["idx"], imp)
        _saat(ctx, imp, topics)
        _search(ctx, idx, fresh, state["topics"])
        if not MAINTENANCE <= loop.values.keys():
            _maintenance(ctx, state["corpus"], state["idx"], state["names"])
    finally:
        probed, ctx.lay = ctx.lay, loop
    for name, values in probed.values.items():  # the loop's own samples win
        if not loop.has(name):
            loop.values[name], loop.units[name] = values, probed.units[name]


def _text(ctx: Ctx, corpus: str) -> None:
    """extract / tokenize / per-fragment postings on the first row group."""
    first = sorted(f for f in os.listdir(corpus) if f.endswith(".parquet"))[0]
    tbl = pq.ParquetFile(os.path.join(corpus, first)).read_row_group(0, columns=["url", "html"])
    html = tbl["html"].combine_chunks()
    names = tbl["url"].combine_chunks()
    opts, cfg = IndexOptions(), BuildConfig()
    texts = extract_text_batch(html)
    tokenize_batch(texts, opts)  # warm the stemmer memo
    for _ in range(PROBE_REPEATS):
        with ctx.tr.span("extract.extract_text_batch"):
            texts, s = timed(extract_text_batch, html)
        ctx.lay.add("extract.s", s, "s")
        ctx.lay.add("extract.mb_per_s", html.nbytes / s / 1e6, "MB/s")
        with ctx.tr.span("text.tokenize_batch"):
            tb, s = timed(tokenize_batch, texts, opts)
        ctx.lay.add("text.tokenize_s", s, "s")
        ctx.lay.add("text.tokens_per_s", len(tb.term_codes) / s, "1/s")
        with ctx.tr.span("segments.build_fragment_postings"):
            _, s = timed(build_fragment_postings, names, texts, 0, 0, cfg)
        ctx.lay.add("segments.fragment_p50_s", s, "s")


def _reader(ctx: Ctx, idx: str, topics: list) -> IndexReader:
    """Open a fresh reader, then decode the probe topics' postings on it."""
    rss0 = rss_mb()
    with ctx.tr.span("index_reader.open"):
        reader, s = timed(IndexReader, idx, preload=True)
    ctx.lay.add("index_reader.rss_mb", rss_mb() - rss0, "MB")
    ctx.lay.add("index_reader.open_s", s, "s")
    terms = sorted({t for _, kw in topics for t, _ in kw})
    for _, kw in topics:
        with ctx.tr.span("index_reader.get_many"):
            _, s = timed(reader.get_many, [t for t, _ in kw])
        ctx.lay.add("index_reader.get_many_us", s * 1e6, "us")
    tps = reader.get_many(terms)
    t0 = time.perf_counter()
    with ctx.tr.span("codec.decode"):
        n = sum(len(tp.arrays()[0]) for tp in tps)
    ctx.lay.add("codec.decode_postings_per_s", n / (time.perf_counter() - t0), "1/s")
    return reader


def _scoring(ctx: Ctx, reader: IndexReader, topics: list) -> None:
    """Each scoring kernel called directly, and through ``score_topic``."""
    params = BM25Params(**{k: reader.stats["bm25"][k] for k in ("k1", "k3", "b")})
    mask = reader.deleted_mask()
    scanned = useful = 0
    for i, (_, kw) in enumerate(topics):
        score_topic(reader, kw, "bm25", params, TREC_K, "auto")  # decode outside the timings
        for first in (i % 2, 1 - i % 2):  # alternate which call runs warmer
            if first:
                with ctx.tr.span("scoring.taat_bm25"):
                    (ids, _), s_kernel = timed(taat_bm25, reader, kw, params, TREC_K, exclude=mask)
            else:
                with ctx.tr.span("search.score_topic"):
                    _, s_api = timed(score_topic, reader, kw, "bm25", params, TREC_K, "auto")
        ctx.lay.add("scoring.taat_bm25_ms", s_kernel * 1e3, "ms")
        ctx.lay.add("search.dispatch_ms", (s_api - s_kernel) * 1e3, "ms")
        with ctx.tr.span("index_reader.names"):
            _, s = timed(reader.doc_names.__getitem__, ids)
        ctx.lay.add("index_reader.names_us", s * 1e6, "us")
        with ctx.tr.span("scoring.taat_tfidf"):
            _, s = timed(taat_tfidf, reader, kw, TREC_K, exclude=mask)
        ctx.lay.add("scoring.taat_tfidf_ms", s * 1e3, "ms")
        with ctx.tr.span("scoring.taat_bm25_adpt"):
            _, s = timed(taat_bm25_adpt, reader, kw, params, TREC_K, exclude=mask)
        ctx.lay.add("scoring.adpt_ms", s * 1e3, "ms")
        with ctx.tr.span("scoring.maxscore_topk"):
            (top, _), s = timed(maxscore_topk, reader, kw, params, TOP_K, exclude=mask)
        ctx.lay.add("scoring.maxscore_ms", s * 1e3, "ms")
        postings = sum(reader.df(t) or 0 for t, _ in kw)
        scanned += postings
        useful += len(top)
    ctx.lay.add("scoring.postings_per_query", scanned / len(topics), "count")
    ctx.lay.add("scoring.top10_results_per_posting", useful / max(scanned, 1), "ratio")


def _sizes(ctx: Ctx, idx: str, imp: str) -> None:
    with open(os.path.join(idx, "stats.json")) as fh:
        stats = json.load(fh)
    seg = tree_bytes(os.path.join(idx, "segments"))
    post = tree_bytes(os.path.join(idx, "postings"))
    ctx.lay.add("segments.bytes", seg + tree_bytes(os.path.join(idx, "docs")), "B")
    ctx.lay.add("merge.bytes_in", seg, "B")
    ctx.lay.add("merge.bytes_out", post, "B")
    ctx.lay.add("merge.term_buckets", stats["term_buckets"], "count")
    ctx.lay.add("codec.bytes_per_posting", post / stats["n_postings"], "B")
    meta = read_impact_meta(imp)
    ctx.lay.add("impact.bytes_per_posting",
                tree_bytes(os.path.join(imp, "segments")) / meta["n_postings"], "B")


def _saat(ctx: Ctx, imp: str, topics: list) -> None:
    processed = results = 0
    for _, kw in topics:
        with ctx.tr.span("impact.saat_topk"):
            (ids, _, n), s = timed(saat_topk, imp, kw, TOP_K, budget=SAAT_BUDGET)
        ctx.lay.add("impact.saat_ms", s * 1e3, "ms")
        processed += n
        results += len(ids)
    ctx.lay.add("impact.postings_per_query", processed / len(topics), "count")
    ctx.lay.add("impact.results_per_posting", results / max(processed, 1), "ratio")


def _search(ctx: Ctx, idx: str, reader: IndexReader, topics: list) -> None:
    """``search_topics`` start-up: its wall time less the in-process time
    to score the same topics.  The query workload's batch run supplies
    the wall time; other workloads run a short batch here."""
    wall = ctx.notes.get("search_topics_bm25_s")
    if wall is None:
        topics = topics[:SEARCH_PROBE_TOPICS]
        with ctx.tr.span("search.search_topics"):
            run, wall = timed(search_topics, idx, topics, "bm25", "perfbench", TREC_K, "auto", 1)
        path = os.path.join(ctx.work, "probe-run.txt")
        with ctx.tr.span("search.write_trec_run"):
            _, s_write = timed(write_trec_run, run, path)
        ctx.lay.add("search.write_run_s", s_write, "s")
        ctx.lay.add("search.run_topics_per_s", len(topics) / (wall + s_write), "1/s")
        ctx.chk.check("TREC run file round-trips", check_run_file(path, run), "probe")
    params = BM25Params(**{k: reader.stats["bm25"][k] for k in ("k1", "k3", "b")})
    t0 = time.perf_counter()
    for _, kw in topics:
        ids, _ = score_topic(reader, kw, "bm25", params, TREC_K, "auto")
        reader.doc_names[ids]
    ctx.lay.add("search.pool_start_s", wall - (time.perf_counter() - t0), "s")


def _maintenance(ctx: Ctx, corpus: str, idx: str, names: list[str]) -> None:
    """One delete, one upsert, fsck and compact on the workload's index."""
    n_del = max(1, int(len(names) * DELETE_FRAC))
    with ctx.tr.span("maintenance.delete_docs"):
        _, s = timed(delete_docs, idx, names[-n_del:])
    ctx.lay.add("maintenance.delete_s", s, "s")
    upd = os.path.join(ctx.work, "probe-update.parquet")
    inputs.write_update(upd, ctx.seed, 0, names[:UPSERT_REPLACE], UPSERT_NEW)
    before, size0 = file_states(idx), tree_bytes(idx)
    with ctx.tr.span("maintenance.upsert_docs"):
        st, s = timed(upsert_docs, idx, corpus, upd)
    written = bytes_written(before, file_states(idx))
    ctx.lay.add("maintenance.upsert_s", s, "s")
    ctx.lay.add("maintenance.upsert_segments_s", st["phase_sec"]["segments"], "s")
    ctx.lay.add("maintenance.upsert_merge_s", st["phase_sec"]["merge"], "s")
    ctx.lay.add("maintenance.bytes_written", written, "B")
    ctx.lay.add("maintenance.bytes_written_per_byte", written / os.path.getsize(upd), "B/B")
    ctx.lay.add("maintenance.index_growth_bytes_per_cycle", tree_bytes(idx) - size0, "B")
    _reopen(ctx, idx)
    with ctx.tr.span("maintenance.fsck_index"):
        rep, s = timed(fsck_index, idx)
    ctx.lay.add("maintenance.fsck_s", s, "s")
    ctx.chk.check("fsck clean after upsert", rep["violations"] == 0, str(rep))
    out = os.path.join(ctx.work, "probe-compacted")
    with ctx.tr.span("maintenance.compact_index"):
        _, s = timed(compact_index, idx, _fresh(out))
    ctx.lay.add("maintenance.compact_s", s, "s")
    ctx.chk.check("fsck clean after compact", fsck_index(out)["violations"] == 0)


def trace_metrics(ctx: Ctx, n_spans: int, wall: float, span_cost: float) -> None:
    """Share of the timed operations' wall inside engine-layer spans, the
    per-layer self times, and the estimated tracing overhead."""
    total, layers = ctx.tr.breakdown(("op.", "request."))
    engine = {k: v for k, v in layers.items() if k not in ("op", "request", "build")}
    ctx.notes["self_time_s"] = layers
    ctx.lay.add("trace.layer_coverage", sum(engine.values()) / total if total else 0.0, "ratio")
    ctx.lay.add("trace.overhead_pct", 100 * n_spans * span_cost / wall, "%")
    ctx.lay.add("trace.spans", n_spans, "count")
