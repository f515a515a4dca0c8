"""The three workloads.  Each is a closed loop with one client: the next
operation starts when the previous one has returned.

- ``ingest``: fresh ``build_index`` + ``build_impact_index`` of the corpus.
- ``query``: interleaved ``trec`` / ``top10`` / ``saat`` requests on one
  preloaded reader, then one batch TREC run through ``search_topics``.
- ``update``: upsert -> reopened reader answers -> ``trec`` requests, a
  delete every few cycles, then ``compact_index`` and ``fsck_index``.

Each workload function sets up ``SETUP_REPEATS`` times (the median is
``setup_s``), runs its loop for ``ctx.seconds``, checks every result it
gets, and returns its end-to-end metrics.  The state it ends with is
handed to the layer probes (``layers.py``) in a traced run.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import numpy as np

from search_engine_ray.config import BM25Params, IndexOptions, QueryOptions
from search_engine_ray.corpus.topics import parse_topics
from search_engine_ray.engine.build import build_index
from search_engine_ray.engine.impact import build_impact_index, read_impact_meta, saat_topk
from search_engine_ray.engine.index_reader import IndexReader
from search_engine_ray.engine.maintenance import compact_index, delete_docs, fsck_index, upsert_docs
from search_engine_ray.engine.scoring import taat_bm25
from search_engine_ray.engine.search import (
    SCORERS, read_trec_run, score_topic, search_topics, write_trec_run,
)

from . import inputs
from .common import Ctx, bytes_written, file_states, pct, ranking_ok, timed, tree_bytes

CORPUS_PAGES = 2000
SETUP_REPEATS = 3
CORPUS_FILES = 4
ROW_GROUP = 512
N_TOPICS = 200
TREC_K = 1000
TOP_K = 10
SAAT_BUDGET = 4_000
# query: topics are served in file order, in blocks of this many
# consecutive topics; the topic generator spreads lengths and term ranks
# evenly over any run of consecutive topics, so every block costs about
# the same and the median block is a steady op time
BLOCK_TOPICS = 20
UPSERT_REPLACE = 100  # per upsert: pages replaced ...
UPSERT_NEW = 100  # ... and brand-new pages
UPDATE_TOPICS = 40
ROUND_CYCLES = 3  # update: upserts between restores of the set-up index
DELETE_BEFORE = 2  # update: the cycle of each round that a delete precedes
DELETE_FRAC = 0.01

PHASE_METRICS = {"plan": "reader.plan_s", "segments": "segments.s", "merge": "merge.s", "terms": "terms.s"}
PHASE_SPANS = {"plan": "reader.plan", "segments": "segments.stage", "merge": "merge.shuffle", "terms": "terms.finalize"}


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def _build(ctx: Ctx, corpus: str, idx: str, req=None) -> dict:
    """``build_index`` under a span, with the engine's returned phase
    times placed as child spans."""
    with ctx.tr.span("build.build_index", req):
        t0 = time.perf_counter()
        stats = build_index(corpus, _fresh(idx))
        for phase, sec in stats["phase_sec"].items():
            if phase in PHASE_SPANS:
                ctx.tr.record(PHASE_SPANS[phase], t0, t0 + sec, req)
                t0 += sec
    return stats


def _add_phases(ctx: Ctx, stats: dict) -> None:
    for phase, name in PHASE_METRICS.items():
        ctx.lay.add(name, stats["phase_sec"][phase], "s")


def _impact(ctx: Ctx, idx: str, imp: str, req=None) -> float:
    with ctx.tr.span("impact.build", req):
        _, sec = timed(build_impact_index, idx, _fresh(imp))
    return sec


def _reopen(ctx: Ctx, idx: str, req=None):
    """A fresh preloaded reader with its tombstone mask resolved."""
    with ctx.tr.span("index_reader.open", req):
        reader, sec = timed(IndexReader, idx, preload=True)
        reader.deleted_mask()
    return reader, sec


def index_bytes_per_posting(idx: str, stats: dict) -> float:
    terms = tree_bytes(os.path.join(idx, "terms")) + (
        os.path.getsize(os.path.join(idx, "terms.parquet"))
        if os.path.exists(os.path.join(idx, "terms.parquet")) else 0
    )
    return (tree_bytes(os.path.join(idx, "postings")) + terms) / stats["n_postings"]


def _check_tier(ctx: Ctx, stats: dict, imp: str) -> None:
    meta = read_impact_meta(imp)
    ctx.chk.check("impact tier holds every posting", meta["n_postings"] == stats["n_postings"],
                  f"{meta['n_postings']} != {stats['n_postings']}")


def _topics(ctx: Ctx) -> list:
    return parse_topics(ctx.path("topics.txt"), QueryOptions(), IndexOptions())


def _common_inputs(ctx: Ctx) -> list[str]:
    names = inputs.write_corpus(ctx.path("corpus"), ctx.seed, ctx.pages, CORPUS_FILES, ROW_GROUP)
    inputs.write_topics(ctx.path("topics.txt"), ctx.seed, N_TOPICS)
    ctx.notes["inputs"] = {
        "pages": ctx.pages, "corpus_bytes": tree_bytes(ctx.path("corpus")), "topics": N_TOPICS,
    }
    return names


def _end_to_end(ctx: Ctx, setup: list[float], op_s: list[float], work_per_op: float,
                bytes_per_posting: float) -> dict:
    """The end-to-end metrics.  ``op_ms`` is the median op time and
    ``throughput_per_s`` the work of one op (pages, requests) per second
    of it: both rest on the median, so a slow window of a shared host
    that hits a few ops of a run does not move them."""
    import resource

    op = statistics.median(op_s)
    ctx.notes.update(setup_s=setup, op_samples=len(op_s), op_ms_all=[v * 1000 for v in op_s])
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_ms": (op * 1000, "ms"),
        "throughput_per_s": (work_per_op / op, "1/s"),
        "index_bytes_per_posting": (bytes_per_posting, "B"),
    }


# --------------------------------------------------------------------- ingest

def ingest(ctx: Ctx):
    names = _common_inputs(ctx)
    corpus = ctx.path("corpus")
    setup = []
    for i in range(SETUP_REPEATS):
        idx, imp = ctx.path(f"setup{i}", "idx"), ctx.path(f"setup{i}", "imp")
        t0 = time.perf_counter()
        ref = build_index(corpus, _fresh(idx))
        build_impact_index(idx, _fresh(imp))
        setup.append(time.perf_counter() - t0)
        _check_tier(ctx, ref, imp)
    key = ("n_docs", "n_terms", "n_postings")

    lat = []
    loop_t0 = time.perf_counter()
    while time.perf_counter() - loop_t0 < ctx.seconds:
        i = len(lat)
        op_idx, op_imp = ctx.path("op", "idx"), ctx.path("op", "imp")
        shutil.rmtree(ctx.path("op"), ignore_errors=True)
        with ctx.tr.span("op.ingest", i):
            t0 = time.perf_counter()
            stats = _build(ctx, corpus, op_idx, i)
            imp_s = _impact(ctx, op_idx, op_imp, i)
            lat.append(time.perf_counter() - t0)
        _add_phases(ctx, stats)
        ctx.lay.add("impact.build_s", imp_s, "s")
        ctx.chk.check("rebuild equals the setup build",
                      all(stats[k] == ref[k] for k in key), str({k: stats[k] for k in key}))
        _check_tier(ctx, stats, op_imp)
    ctx.notes["loop_wall_s"] = time.perf_counter() - loop_t0
    e2e = _end_to_end(ctx, setup, lat, ctx.pages, index_bytes_per_posting(idx, ref))
    state = dict(corpus=corpus, idx=idx, imp=imp, names=names, topics=_topics(ctx), reader=None)
    return e2e, state


# ---------------------------------------------------------------------- query

def _request(ctx: Ctx, reader, imp: str, cls: str, scorer: str, kw, req: int, params):
    """One request of class ``cls``: score, then resolve docIDs to names."""
    with ctx.tr.span(f"request.{cls}", req):
        if cls == "saat":
            with ctx.tr.span("impact.saat_topk", req):
                ids, scores, _ = saat_topk(imp, kw, TOP_K, budget=SAAT_BUDGET,
                                           exclude=reader.deleted_mask())
        else:
            k, method = (TREC_K, "auto") if cls == "trec" else (TOP_K, "maxscore")
            with ctx.tr.span("search.score_topic", req):
                ids, scores = score_topic(reader, kw, scorer, params, k, method)
        with ctx.tr.span("index_reader.names", req):
            reader.doc_names[ids]
    return ids, scores


def query(ctx: Ctx):
    names = _common_inputs(ctx)
    corpus = ctx.path("corpus")
    # the index and tier are this workload's input (their build is what
    # ingest measures); set-up is what a query server does at start: open
    # the preloaded reader
    idx, imp = ctx.path("idx"), ctx.path("imp")
    stats = _build(ctx, corpus, idx)
    _add_phases(ctx, stats)
    ctx.lay.add("impact.build_s", _impact(ctx, idx, imp), "s")
    _check_tier(ctx, stats, imp)
    setup = []
    for _ in range(SETUP_REPEATS):
        reader = None  # release the previous reader first
        reader, s = _reopen(ctx, idx)
        setup.append(s)
        ctx.lay.add("index_reader.open_s", s, "s")
    topics = _topics(ctx)
    params = BM25Params(**{k: stats["bm25"][k] for k in ("k1", "k3", "b")})

    lat: dict[str, list[float]] = {"trec": [], "top10": [], "saat": []}
    blocks: list[float] = []  # mean time to serve one topic in all three classes
    first: dict[tuple, tuple] = {}
    n_req = 0
    loop_t0 = time.perf_counter()
    while time.perf_counter() - loop_t0 < ctx.seconds:
        block = 0.0
        for b in range(BLOCK_TOPICS):
            j = (len(blocks) * BLOCK_TOPICS + b) % len(topics)
            kw = topics[j][1]
            for cls in ("trec", "top10", "saat"):
                scorer = SCORERS[len(lat["trec"]) % 3] if cls == "trec" else "bm25"
                t0 = time.perf_counter()
                ids, scores = _request(ctx, reader, imp, cls, scorer, kw, n_req, params)
                lat[cls].append(time.perf_counter() - t0)
                block += lat[cls][-1]
                n_req += 1
                _check_request(ctx, reader, params, first, j, cls, scorer, kw, ids, scores)
        blocks.append(block / BLOCK_TOPICS)
    ctx.notes["loop_wall_s"] = time.perf_counter() - loop_t0
    ctx.notes["request_ms"] = {
        c: {"p50": pct(v, 50) * 1000, "p99": pct(v, 99) * 1000, "n": len(v)} for c, v in lat.items()
    }
    _batch_run(ctx, idx, topics)
    e2e = _end_to_end(ctx, setup, blocks, 3, index_bytes_per_posting(idx, stats))
    state = dict(corpus=corpus, idx=idx, imp=imp, names=names, topics=topics, reader=reader)
    return e2e, state


def _check_request(ctx: Ctx, reader, params, first: dict, j: int, cls: str, scorer: str,
                   kw, ids, scores) -> None:
    """The first answer to a (topic, class, scorer) is well formed, and a
    ``top10`` one equals the first 10 of TAAT; a repeat equals the first."""
    key = (j, cls, scorer)
    if key in first:
        ctx.chk.check(f"{cls} answer repeats", np.array_equal(ids, first[key][0])
                      and np.array_equal(scores, first[key][1]), f"topic {j}")
        return
    first[key] = (ids, scores)
    ok = ranking_ok(ids, scores, TREC_K if cls == "trec" else TOP_K)
    if cls == "top10":
        ref_ids, ref_scores = taat_bm25(reader, kw, params, TOP_K)
        ctx.chk.check("top10 equals the first 10 of TAAT",
                      ok and np.array_equal(ids, ref_ids) and np.array_equal(scores, ref_scores),
                      f"topic {j}")
    else:
        ctx.chk.check(f"{cls} ranking well-formed", ok, f"topic {j}")


def check_run_file(path: str, run) -> bool:
    """The file holds ``run`` line for line, with ranks 1..n per topic and
    scores that never increase within a topic."""
    back = read_trec_run(path)
    if back.num_rows != run.num_rows:
        return False
    for col in ("topic", "doc", "rank"):
        if back[col].to_pylist() != run[col].to_pylist():
            return False
    topic = np.asarray(back["topic"])
    rank = np.asarray(back["rank"])
    score = np.asarray(back["score"])
    start = np.r_[True, topic[1:] != topic[:-1]]
    expect = np.arange(len(rank)) - np.maximum.accumulate(np.where(start, np.arange(len(rank)), 0)) + 1
    return bool((rank == expect).all() and not ((np.diff(score) > 0) & ~start[1:]).any())


def _batch_run(ctx: Ctx, idx: str, topics: list) -> None:
    """All topics through ``search_topics`` (one actor) and
    ``write_trec_run``.  One call per run: on a one-CPU cluster a third
    back-to-back ``search_topics`` call waits about 15 s for the earlier
    actor to release its CPU, which would swamp the measurement."""
    with ctx.tr.span("search.search_topics"):
        run, s_search = timed(search_topics, idx, topics, "bm25", "perfbench", TREC_K, "auto", 1)
    path = ctx.path("run-bm25.txt")
    with ctx.tr.span("search.write_trec_run"):
        _, s_write = timed(write_trec_run, run, path)
    ctx.notes["search_topics_bm25_s"] = s_search
    ctx.lay.add("search.write_run_s", s_write, "s")
    ctx.lay.add("search.run_topics_per_s", len(topics) / (s_search + s_write), "1/s")
    ctx.chk.check("TREC run file round-trips", check_run_file(path, run))


# --------------------------------------------------------------------- update

def _versions(reader, name: str) -> np.ndarray:
    return np.flatnonzero(reader.doc_names == name)


def _restore(src: str, dst: str) -> None:
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)


def update(ctx: Ctx):
    _common_inputs(ctx)
    pristine = ctx.path("corpus")
    setup = []
    for i in range(SETUP_REPEATS):
        corpus, idx = ctx.path(f"setup{i}", "corpus"), ctx.path(f"setup{i}", "idx")
        shutil.copytree(pristine, _fresh(corpus))
        t0 = time.perf_counter()
        stats0 = build_index(corpus, _fresh(idx))
        setup.append(time.perf_counter() - t0)
    e2e_bytes = index_bytes_per_posting(idx, stats0)
    # every round of ROUND_CYCLES upserts starts again from the set-up
    # index, so the cost of an upsert does not drift with the run's length
    base = {corpus: ctx.path("base", "corpus"), idx: ctx.path("base", "idx")}
    for path, copy in base.items():
        shutil.copytree(path, copy)
    topics = _topics(ctx)[:UPDATE_TOPICS]
    params = BM25Params(**{k: stats0["bm25"][k] for k in ("k1", "k3", "b")})
    upd = ctx.path("update.parquet")

    visible, trec_lat = [], []
    cycle = 0
    loop_t0 = time.perf_counter()
    while time.perf_counter() - loop_t0 < ctx.seconds:
        if cycle % ROUND_CYCLES == 0:
            for path, copy in base.items():
                _restore(copy, path)
            # originals not yet replaced or deleted, in draw order
            live = inputs.corpus_names(ctx.seed, ctx.pages)
            np.random.default_rng([ctx.seed, 6, cycle]).shuffle(live)
            deleted: list[str] = []
        elif cycle % ROUND_CYCLES == DELETE_BEFORE:
            gone, live = live[:int(ctx.pages * DELETE_FRAC)], live[int(ctx.pages * DELETE_FRAC):]
            with ctx.tr.span("maintenance.delete_docs", cycle):
                _, s = timed(delete_docs, idx, gone)
            ctx.lay.add("maintenance.delete_s", s, "s")
            deleted += gone
        replace, live = live[:UPSERT_REPLACE], live[UPSERT_REPLACE:]
        inputs.write_update(upd, ctx.seed, cycle, replace, UPSERT_NEW)
        before, size_before = file_states(idx), tree_bytes(idx)
        marker = inputs.update_marker(ctx.seed, cycle, 0)
        with ctx.tr.span("op.upsert_visible", cycle):
            t0 = time.perf_counter()
            with ctx.tr.span("maintenance.upsert_docs", cycle):
                st = upsert_docs(idx, corpus, upd)
            t_up = time.perf_counter() - t0
            reader, open_s = _reopen(ctx, idx, cycle)
            with ctx.tr.span("search.score_topic", cycle):
                ids, _ = score_topic(reader, [(marker, 1)], "bm25", params, TOP_K, "auto")
            visible.append(time.perf_counter() - t0)
        written = bytes_written(before, file_states(idx))
        ctx.lay.add("maintenance.upsert_s", t_up, "s")
        ctx.lay.add("maintenance.upsert_segments_s", st["phase_sec"]["segments"], "s")
        ctx.lay.add("maintenance.upsert_merge_s", st["phase_sec"]["merge"], "s")
        ctx.lay.add("index_reader.open_s", open_s, "s")
        _add_phases(ctx, st)
        if cycle == 0:  # the first upsert is the same on every run of a seed
            ctx.lay.add("maintenance.bytes_written", written, "B")
            ctx.lay.add("maintenance.bytes_written_per_byte", written / os.path.getsize(upd), "B/B")
            ctx.lay.add("maintenance.index_growth_bytes_per_cycle", tree_bytes(idx) - size_before, "B")
        _check_upsert(ctx, reader, params, cycle, replace, ids, st["n_docs"] - UPSERT_REPLACE - UPSERT_NEW)
        mask = reader.deleted_mask()
        if deleted:
            ctx.chk.check("deleted pages are masked",
                          all(mask[_versions(reader, n)].all() for n in deleted))
        for t, (_num, kw) in enumerate(topics):
            scorer = SCORERS[len(trec_lat) % 3]
            t0 = time.perf_counter()
            with ctx.tr.span("request.trec", t):
                with ctx.tr.span("search.score_topic", t):
                    r_ids, r_scores = score_topic(reader, kw, scorer, params, TREC_K, "auto")
                with ctx.tr.span("index_reader.names", t):
                    reader.doc_names[r_ids]
            trec_lat.append(time.perf_counter() - t0)
            ctx.chk.check("trec ranking well-formed", ranking_ok(r_ids, r_scores, TREC_K, mask))
        cycle += 1
    ctx.notes["loop_wall_s"] = time.perf_counter() - loop_t0
    ctx.notes["request_ms"] = {"trec": {"p50": pct(trec_lat, 50) * 1000,
                                        "p99": pct(trec_lat, 99) * 1000, "n": len(trec_lat)}}
    n_live = int(len(reader.doc_names) - reader.deleted_mask().sum())
    compacted = _fsck_compact(ctx, idx, n_live)
    e2e = _end_to_end(ctx, setup, visible, UPSERT_REPLACE + UPSERT_NEW, e2e_bytes)
    state = dict(corpus=corpus, idx=idx, imp=None, names=live, topics=topics, reader=reader,
                 compacted=compacted)
    return e2e, state


def _check_upsert(ctx: Ctx, reader, params, cycle: int, replace: list[str], first_ids, n_before: int):
    """Replaced pages rank with their new text; their old docIDs are masked."""
    mask = reader.deleted_mask()
    ok = len(first_ids) > 0 and reader.doc_names[first_ids[0]] == replace[0]
    ctx.chk.check("upserted page answers its new text", bool(ok), replace[0])
    for j in range(0, len(replace), max(1, len(replace) // 5)):
        ids, _ = score_topic(reader, [(inputs.update_marker(ctx.seed, cycle, j), 1)], "bm25",
                             params, TOP_K, "auto")
        vers = _versions(reader, replace[j])
        ok = (len(ids) == 1 and ids[0] == vers[-1] and vers[-1] >= n_before
              and mask is not None and mask[vers[:-1]].all() and not mask[vers[-1]])
        ctx.chk.check("replaced page ranks with new text, old docIDs masked", bool(ok), replace[j])


def _fsck_compact(ctx: Ctx, idx: str, n_live: int) -> str:
    with ctx.tr.span("maintenance.fsck_index"):
        rep, s = timed(fsck_index, idx)
    ctx.lay.add("maintenance.fsck_s", s, "s")
    ctx.chk.check("fsck clean after upserts", rep["violations"] == 0, str(rep))
    out = ctx.path("compacted")
    with ctx.tr.span("maintenance.compact_index"):
        st, s = timed(compact_index, idx, _fresh(out))
    ctx.lay.add("maintenance.compact_s", s, "s")
    ctx.chk.check("compact keeps exactly the live pages", st["n_docs"] == n_live,
                  f"{st['n_docs']} != {n_live}")
    rep = fsck_index(out)
    ctx.chk.check("fsck clean after compact", rep["violations"] == 0, str(rep))
    return out


WORKLOADS = {"ingest": ingest, "query": query, "update": update}
