#!/usr/bin/env python
"""Benchmark harness.

Default: runs the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) under ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or 32) and prints ONE JSON line:

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...per-pipeline sec...}, "sf": ..., "num_cpus": N,
     "docs_per_sec": ..., "bytes_per_sec": ...}

--scaling: runs the headline index-build in FRESH subprocesses at two
cluster sizes N and 4N (default num_cpus 2 and 8, override
SE_RAY_SCALING_CPUS="8,32") over the same 300k-doc input, interleaved
min-of-2 per level, and reports both throughputs + scaling efficiency
((t_lo/t_hi)/4) plus a no-Ray compute-kernel probe; recorded in BASELINE.md.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
PAGES_DOCS = int(os.environ.get("SE_RAY_BENCH_PAGES", "20000"))
# "full" (default) or "pages" (scaling mode: only the measured build job)
ONLY = os.environ.get("SE_RAY_BENCH_ONLY", "full")


def run_benchmarks() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np

    from search_engine_ray.config import BM25Params, BuildConfig, IndexOptions
    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.engine.search import search_topics
    from search_engine_ray.pipelines import synth_pages_dir

    timings: dict[str, float] = {}
    meta: dict[str, float] = {}

    # ---- warm the page cache (measure compute+shuffle, not cold disk) ----
    docs_path = os.path.join(SF_DIR, "documents.parquet")
    with open(docs_path, "rb") as fh:
        while fh.read(1 << 22):
            pass

    # ---- 1. HEADLINE: pages pipeline (input_hint shape) — HTML extraction
    #      -> tokenize/stem -> segments -> term shuffle -> compressed index ----
    pages_files = 32 if PAGES_DOCS >= 100_000 else 16
    pages_dir = synth_pages_dir(PAGES_DOCS, seed=42, n_files=pages_files, row_group_size=2048)
    pages_bytes = sum(
        os.path.getsize(os.path.join(pages_dir, f))
        for f in os.listdir(pages_dir)
        if f.endswith(".parquet")
    )
    pages_index = f"/tmp/se_ray_bench/index-pages-{NUM_CPUS}"
    # min-of-2: the sandbox shares throttled DRAM with co-tenants (identical
    # runs vary up to ±80%); the min is the least-contended sample.  The
    # build is cheap enough that the second run costs a few seconds.
    runs = []
    for _ in range(2 if ONLY != "pages" else 1):
        shutil.rmtree(pages_index, ignore_errors=True)
        t0 = time.perf_counter()
        build_index(
            pages_dir,
            pages_index,
            BuildConfig(),
            source_column="html",
            name_column="url",
        )
        runs.append(time.perf_counter() - t0)
    timings["index_build_pages_html"] = min(runs)
    meta["index_build_run_max"] = max(runs)  # spread = ambient contention
    meta["loadavg_1m"] = os.getloadavg()[0]
    meta["n_docs"] = PAGES_DOCS
    meta["docs_per_sec"] = PAGES_DOCS / timings["index_build_pages_html"]
    meta["bytes_per_sec"] = pages_bytes / timings["index_build_pages_html"]

    if ONLY == "pages":
        headline = timings["index_build_pages_html"]
        result = {
            "metric": "pages index-build wall time (HTML extract -> tokenize/stem -> segments -> term shuffle -> compressed block index)",
            "value": round(headline, 3),
            "unit": "sec",
            "queries": {k: round(v, 3) for k, v in timings.items()},
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            **{k: round(v, 3) for k, v in meta.items()},
        }
        ray.shutdown()
        return result

    # ---- 2. full index build over the driver documents table ----
    index_dir = f"/tmp/se_ray_bench/index-docs-{NUM_CPUS}"
    shutil.rmtree(index_dir, ignore_errors=True)
    t0 = time.perf_counter()
    stats = build_index(
        docs_path,
        index_dir,
        BuildConfig(options=IndexOptions(stemming=True)),
        source_column="text",
        name_column="doc_id",
    )
    timings["index_build_documents"] = time.perf_counter() - t0

    # ---- 3. query latency: BM25 over the pages index (realistic Zipf vocab) ----
    from search_engine_ray.engine.search import score_topic

    reader = IndexReader(pages_index, preload=True)
    terms = sorted(reader._df, key=lambda t: -reader._df[t])[:2000]  # queryable head
    rng = np.random.default_rng(7)
    topic_list = []
    for t in range(100):
        kws = [(terms[int(i)], 1) for i in rng.integers(0, len(terms), size=3)]
        topic_list.append((t, kws))
    params = BM25Params()
    for method in ("maxscore", "auto"):
        lat = []
        for _t, kws in topic_list:
            q0 = time.perf_counter()
            score_topic(reader, kws, "bm25", params, 1000, method)
            lat.append(time.perf_counter() - q0)
        timings[f"bm25_{method}_100_queries"] = float(np.sum(lat))
        meta[f"bm25_{method}_p95_ms"] = float(np.percentile(lat, 95) * 1000)
        meta[f"bm25_{method}_p50_ms"] = float(np.percentile(lat, 50) * 1000)

    # ---- 3b. impact-ordered SAAT tier: build + anytime query latency ----
    from search_engine_ray.engine.impact import build_impact_index, saat_topk

    impact_dir = f"/tmp/se_ray_bench/impact-pages-{NUM_CPUS}"
    shutil.rmtree(impact_dir, ignore_errors=True)
    t0 = time.perf_counter()
    build_impact_index(pages_index, impact_dir)
    timings["impact_index_build"] = time.perf_counter() - t0
    for label, budget in (("exhaustive", None), ("rho20k", 20_000)):
        lat = []
        for _t, kws in topic_list[:50]:
            q0 = time.perf_counter()
            saat_topk(impact_dir, kws, k=10, budget=budget)
            lat.append(time.perf_counter() - q0)
        timings[f"saat_{label}_50_queries"] = float(np.sum(lat))
        meta[f"saat_{label}_p95_ms"] = float(np.percentile(lat, 95) * 1000)

    # ---- 4. distributed query pipeline (actor pool) ----
    t0 = time.perf_counter()
    run = search_topics(pages_index, topic_list, scorer="bm25", k=1000, concurrency=(1, max(2, NUM_CPUS // 4)))
    assert run.num_rows > 0
    timings["query_pipeline_100_topics"] = time.perf_counter() - t0

    # ---- 5. training-data ops over documents — min-of-N INTERLEAVED ----
    # The sandbox shares throttled DRAM with co-tenants; single runs vary up
    # to ±80%.  Interleaving rounds (op1..opK, op1..opK) and taking the min
    # per op makes a BENCH_rN regression attributable: ambient load hits a
    # whole round, a real regression hits one op across all rounds.
    # quality_scores is the untouched CONTROL — its ratio vs the recorded
    # quiet-window baseline is emitted so readers can normalize the rest.
    from search_engine_ray.dataops.cluster import kmeans_fit
    from search_engine_ray.dataops.dedup import (
        exact_dedup,
        exact_dedup_apply,
        minhash_lsh_pairs,
        paragraph_dedup,
        simhash,
    )
    from search_engine_ray.dataops.similarity import (
        build_ivf_index,
        build_ivfpq_index,
        knn_brute_force,
        knn_ivf_probe,
        knn_ivfpq_probe,
    )
    from search_engine_ray.dataops.cooccur import pmi_top_pairs
    from search_engine_ray.dataops.lm import dsir_importance_weights, unigram_lm_scores
    from search_engine_ray.dataops.pack import pack_sequences
    from search_engine_ray.dataops.spandup import duplicate_spans
    from search_engine_ray.engine.snippets import snippets
    from search_engine_ray.dataops.textstats import gopher_quality, quality_scores, top_ngrams
    from search_engine_ray.engine.positions import build_position_index, phrase_search
    from search_engine_ray.ioutil import read_parquet_clean

    docs_ds = read_parquet_clean(docs_path)
    emb_path = os.path.join(SF_DIR, "embeddings.parquet")
    import pyarrow.parquet as pq

    emb_tbl = pq.read_table(emb_path, columns=["embedding"])
    queries = np.stack(
        [np.asarray(e, dtype=np.float64) for e in emb_tbl["embedding"].to_pylist()[:8]]
    )
    emb_ds = read_parquet_clean(emb_path)
    ivf_dir = f"/tmp/se_ray_bench/ivf-{NUM_CPUS}"

    def _ivf_build():
        shutil.rmtree(ivf_dir, ignore_errors=True)
        build_ivf_index(emb_ds, ivf_dir, n_centroids=16)

    ivfpq_dir = f"/tmp/se_ray_bench/ivfpq-{NUM_CPUS}"

    def _ivfpq_build():
        shutil.rmtree(ivfpq_dir, ignore_errors=True)
        build_ivfpq_index(emb_ds, ivfpq_dir, n_centroids=16, m_subspaces=16)

    pos_dir = f"/tmp/se_ray_bench/positions-{NUM_CPUS}"
    pos_opt = IndexOptions(case_folding=True, remove_stopwords=True, stemming=False)

    def _positions_build():
        shutil.rmtree(pos_dir, ignore_errors=True)
        build_position_index(
            docs_path, pos_dir, pos_opt, source_column="text", name_column="doc_id"
        )

    # maintenance ops: tombstone ~1% of the documents index and compact;
    # union-merge two half-indexes.  Setup (copies, half builds, deletes)
    # is untimed — the timed op is the postings rewrite itself.
    from search_engine_ray.engine.maintenance import (
        compact_index,
        delete_docs,
        fsck_index,
        merge_indexes,
    )

    maint_root = f"/tmp/se_ray_bench/maint-{NUM_CPUS}"
    shutil.rmtree(maint_root, ignore_errors=True)
    os.makedirs(maint_root)
    compact_src = os.path.join(maint_root, "tombstoned")
    shutil.copytree(index_dir, compact_src)
    _docs_n = pq.read_metadata(docs_path).num_rows
    delete_docs(compact_src, [str(i) for i in range(0, _docs_n, 100)])
    half_tbl = pq.read_table(docs_path)
    _half = half_tbl.num_rows // 2
    half_dirs = []
    for _nm, _part in (("a", half_tbl.slice(0, _half)), ("b", half_tbl.slice(_half))):
        _cd = os.path.join(maint_root, f"corpus_{_nm}")
        os.makedirs(_cd)
        pq.write_table(_part, os.path.join(_cd, "docs.parquet"))
        _id = os.path.join(maint_root, f"index_{_nm}")
        build_index(_cd, _id, BuildConfig(options=IndexOptions(stemming=True)),
                    source_column="text", name_column="doc_id")
        half_dirs.append(_id)

    def _compact():
        out = os.path.join(maint_root, "compacted")
        shutil.rmtree(out, ignore_errors=True)
        compact_index(compact_src, out)

    def _merge():
        out = os.path.join(maint_root, "merged")
        shutil.rmtree(out, ignore_errors=True)
        merge_indexes(half_dirs[0], half_dirs[1], out)

    from search_engine_ray.dataops.bpe import train_bpe
    from search_engine_ray.dataops.sketch import heavy_hitters as _heavy_hitters

    def _hh(ds):
        return _heavy_hitters(ds, k=50).num_rows

    from search_engine_ray.dataops.membership import bloom_probe, build_bloom
    from search_engine_ray.dataops.sketch import count_min_sketch as _count_min
    from search_engine_ray.dataops.sketch import hll_registers as _hll_registers

    def _bloom():
        bf = build_bloom(docs_ds, "text", n_bits=1 << 22, n_hashes=4, n_shards=4)
        return bloom_probe(docs_ds, "text", bf).count()

    from search_engine_ray.dataops.relational import (
        PRICING_SUMMARY_COLUMNS,
        pricing_summary,
        top_customers_by_revenue,
    )

    def _pricing():
        li = read_parquet_clean(
            os.path.join(SF_DIR, "lineitem.parquet"), columns=PRICING_SUMMARY_COLUMNS
        )
        return pricing_summary(li).num_rows

    def _top_cust():
        li = read_parquet_clean(
            os.path.join(SF_DIR, "lineitem.parquet"),
            columns=["l_orderkey", "l_extendedprice", "l_discount"],
        )
        orders = read_parquet_clean(
            os.path.join(SF_DIR, "orders.parquet"), columns=["o_orderkey", "o_custkey"]
        )
        return top_customers_by_revenue(li, orders, k=20).num_rows

    from search_engine_ray.dataops.pca import emb_gram_micros as _pca_gram
    from search_engine_ray.dataops.probe import (
        probe_fit as _probe_fit,
        probe_gram_micros as _probe_gram,
        probe_score as _probe_score,
    )
    from search_engine_ray.dataops.rproj import random_projection as _rproj

    def _linear_probe() -> int:
        # the embeddings table carries its own label column
        w, b = _probe_fit(_probe_gram(emb_ds), ridge=1e-3)
        return _probe_score(emb_ds, w, b).count()
    from search_engine_ray.engine.fielded import bm25f_scores_f64 as _bm25f
    from search_engine_ray.pipelines import documents_fielded_readers

    # fielded indexes are cached builds (like the main documents index);
    # the timed op is query-time BM25F scoring
    _fielded = documents_fielded_readers(SF_DIR, pos_opt)

    from search_engine_ray.dataops.clean import extract_content as _extract_content
    from search_engine_ray.dataops.dedup import (
        remove_domain_boilerplate as _boiler_strip,
    )
    from search_engine_ray.dataops.textstats import (
        lang_window_counts as _lang_windows,
    )
    from search_engine_ray.engine.champions import (
        build_champion_lists,
        champion_topk,
    )
    from search_engine_ray.engine.positions import ordered_window_search
    from search_engine_ray.pipelines import lmjm_scores_f64

    _doc_reader = IndexReader(index_dir)
    _QKWS = [("spark", 1), ("hash", 1), ("join", 1)]

    # MaxP passage tier + grid tuning (round-5 session-5): build timed
    # once, cold — the pipelines cache root points into the fresh
    # maint_root for the call, so the time is a build, never an mtime-cache
    # hit — then query + sweep interleaved with the op rounds below
    from search_engine_ray import pipelines as _pl
    from search_engine_ray.engine import tune as _tune

    shared_cache_root, _pl._CACHE_ROOT = _pl._CACHE_ROOT, os.path.join(maint_root, "maxp_cache")
    try:
        t0 = time.perf_counter()
        _maxp_dir = _pl.documents_maxp_index_dir(
            SF_DIR, IndexOptions(case_folding=True, remove_stopwords=True, stemming=False)
        )
        timings["maxp_index_build"] = time.perf_counter() - t0
    finally:
        _pl._CACHE_ROOT = shared_cache_root
    _maxp_reader = IndexReader(_maxp_dir, preload=True)

    # web link graph over the pages corpus (html carries the head <nav>
    # outlink block): vectorized <a href> extraction, host degrees, and
    # anchor-field BM25 as distributed aggregates
    from search_engine_ray.dataops import weblinks as _weblinks

    def _link_edges_ds():
        return _weblinks.link_edges(
            read_parquet_clean(pages_dir, columns=["url", "html"])
        )

    def _champions():
        out = os.path.join(maint_root, "champions")
        shutil.rmtree(out, ignore_errors=True)
        build_champion_lists(index_dir, out, m=64)
        return len(champion_topk(out, _doc_reader, _QKWS, k=10)[0])

    # host graph (int node ids) derived once; the graph ops measure the
    # iterations/waves, link_edges_extract measures the extraction itself
    from search_engine_ray.dataops.dedup import (
        ngram_containment_pairs,
        simhash_hamming_pairs,
    )
    from search_engine_ray.dataops.graph import bfs_khop, hits, pagerank

    def _host_ids(batch):
        import pyarrow as pa
        import pyarrow.compute as pc2

        out = {}
        for col, name in (("src_url", "src"), ("dst_url", "dst")):
            h = _weblinks.host_of(batch[col])
            m = pc2.extract_regex(h, pattern=r"^site(?P<num>[0-9]+)\.example$")
            out[name] = pc2.struct_field(m, "num").cast(pa.int64())
        return pa.table(out)

    host_edges = _link_edges_ds().map_batches(
        _host_ids, batch_format="pyarrow"
    ).materialize()

    from search_engine_ray.dataops.features import feature_hash as _feature_hash
    from search_engine_ray.dataops.spandup import winnow_fingerprints as _winnow
    from search_engine_ray.dataops.textstats import (
        corpus_log_odds as _corpus_log_odds,
        doc_keywords as _doc_keywords,
    )

    def _add_side(batch):
        import numpy as _np
        import pyarrow as _pa

        ids = _np.asarray(batch["doc_id"], dtype=_np.int64)
        return batch.append_column("side_a", _pa.array(ids % 2 == 0))

    _sided_docs = docs_ds.map_batches(_add_side, batch_format="pyarrow")

    from search_engine_ray.dataops import trigram as _trigram

    tg_dir = os.path.join(maint_root, "trigram")

    def _trigram_build():
        shutil.rmtree(tg_dir, ignore_errors=True)
        return _trigram.build_trigram_index(docs_ds, tg_dir, num_buckets=32)

    ops: list[tuple[str, object]] = [
        ("dedup_exact", lambda: exact_dedup(docs_ds).count()),
        ("dedup_minhash_lsh", lambda: minhash_lsh_pairs(docs_ds, threshold=0.8).count()),
        ("simhash", lambda: simhash(docs_ds).count()),
        ("quality_scores", lambda: quality_scores(docs_ds).count()),
        ("dedup_apply", lambda: exact_dedup_apply(docs_ds).count()),
        ("knn_brute_force", lambda: knn_brute_force(emb_ds, queries, k=10)),
        ("ann_ivf_build", _ivf_build),
        ("ann_ivf_probe", lambda: knn_ivf_probe(ivf_dir, queries, k=10, nprobe=4)),
        ("paragraph_dedup", lambda: paragraph_dedup(docs_ds).count()),
        ("kmeans_fit_k8x3", lambda: kmeans_fit(emb_ds, k=8, n_iter=3)[1].count()),
        ("gopher_quality", lambda: gopher_quality(docs_ds).count()),
        ("top_bigrams", lambda: top_ngrams(docs_ds, n=2, k=25)),
        ("heavy_hitters", lambda: _hh(docs_ds)),
        ("bpe_train_30", lambda: train_bpe(docs_ds, n_merges=30, min_count=2, max_vocab=20000).num_rows),
        ("pricing_summary", _pricing),
        ("top_customers_by_revenue", _top_cust),
        ("ann_ivfpq_build", _ivfpq_build),
        ("ann_ivfpq_probe", lambda: knn_ivfpq_probe(ivfpq_dir, queries, k=10, nprobe=6)),
        ("phrase_index_build", _positions_build),
        ("phrase_search", lambda: phrase_search(pos_dir, ["sort", "table"], pos_opt)),
        ("unigram_lm", lambda: unigram_lm_scores(docs_ds, pos_opt).count()),
        ("dsir_weights", lambda: dsir_importance_weights(
            docs_ds, docs_ds.filter(expr="lang == 'en'"), n_buckets=8192).count()),
        ("pack_sequences", lambda: pack_sequences(docs_path, seq_len=2048).count()),
        ("pmi_pairs", lambda: pmi_top_pairs(docs_ds, pos_opt, k=50, min_count=2)),
        ("dup_spans", lambda: duplicate_spans(docs_ds, k=8, min_count=2).count()),
        ("snippets", lambda: snippets(
            docs_ds, ["sort", "table", "hash"], pos_opt, window=8).count()),
        ("index_compact", _compact),
        ("index_merge", _merge),
        ("index_fsck", lambda: fsck_index(index_dir)),
        ("bloom_build_probe", _bloom),
        ("hll_registers", lambda: _hll_registers(
            read_parquet_clean(os.path.join(SF_DIR, "events.parquet"),
                               columns=["user_id"]), "user_id", p=12).num_rows),
        ("count_min_grid", lambda: _count_min(
            docs_ds, width=1 << 16, depth=4).num_rows),
        ("pca_gram", lambda: _pca_gram(emb_ds).num_rows),
        ("linear_probe", _linear_probe),
        ("rand_proj16", lambda: _rproj(emb_ds, 16).count()),
        ("bm25f_score", lambda: len(
            _bm25f(_fielded, [("spark", 1), ("hash", 1), ("join", 1)])[0])),
        ("boilerplate_strip", lambda: _boiler_strip(
            docs_ds, threshold=(1, 2), min_docs=3).count()),
        ("content_extract", lambda: _extract_content(
            docs_ds, min_tokens=5, stop_density=(1, 10)).count()),
        ("lang_windows", lambda: _lang_windows(docs_ds, window_tokens=40).count()),
        ("champions_build_query", _champions),
        ("ordered_window", lambda: ordered_window_search(
            pos_dir, "sort", "table", slop=4, options=pos_opt).num_rows),
        ("lmjm_query", lambda: len(lmjm_scores_f64(_doc_reader, _QKWS)[0])),
        ("link_edges_extract", lambda: _link_edges_ds().count()),
        ("link_host_degree", lambda: _weblinks.host_degree(_link_edges_ds()).count()),
        ("bm25_anchor", lambda: _weblinks.bm25_anchor_scores(
            _link_edges_ds(), [("spark", 1), ("window", 1), ("merge", 1)],
            pos_opt).num_rows),
        ("host_pagerank_3it", lambda: pagerank(
            host_edges, n_nodes=997, n_iter=3).count()),
        ("host_hits_2it", lambda: hits(host_edges, n_iter=2).count()),
        ("host_bfs_3hop", lambda: bfs_khop(host_edges, [0, 1, 2], 3).count()),
        ("simhash_near_pairs", lambda: simhash_hamming_pairs(
            docs_ds, max_dist=3).count()),
        ("ngram_containment", lambda: ngram_containment_pairs(
            docs_ds, n=3, threshold=0.3).count()),
        ("frontier_schedule", lambda: _weblinks.frontier_schedule(
            _link_edges_ds(), per_host_rate=2).count()),
        ("reciprocal_hosts", lambda: _weblinks.reciprocal_host_pairs(
            _link_edges_ds()).count()),
        ("doc_keywords", lambda: _doc_keywords(docs_ds, k=3).count()),
        ("corpus_log_odds", lambda: _corpus_log_odds(
            _sided_docs, "side_a", k=20).num_rows),
        ("winnow_fingerprints", lambda: _winnow(docs_ds, k=4, w=4).count()),
        ("feature_hash", lambda: _feature_hash(docs_ds, dim=1024).count()),
        ("trigram_index_build", _trigram_build),
        ("trigram_substring", lambda: _trigram.substring_search(
            tg_dir, docs_ds, "window table").count()),
        ("trigram_regex", lambda: _trigram.regex_search(
            tg_dir, docs_ds, "big (table|query)").count()),
        ("maxp_query", lambda: len(_pl.maxp_bm25_f64(_maxp_reader, _QKWS)[0])),
        ("bm25_grid_sweep", lambda: _tune.sweep_bm25_grid(
            index_dir,
            [(1, ["dup"]), (2, ["dup", "key"]), (3, ["spark", "hash", "join"])],
            [(900, 300), (1200, 750), (1500, 600), (2000, 900)],
        ).num_rows),
    ]
    n_rounds = int(os.environ.get("SE_RAY_BENCH_OP_ROUNDS", "2"))
    samples: dict[str, list[float]] = {name: [] for name, _ in ops}
    for _round in range(n_rounds):
        for name, fn in ops:
            t0 = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - t0)
    for name, vals in samples.items():
        timings[name] = min(vals)
        meta[f"{name}_run_max"] = max(vals)
    meta["op_rounds"] = n_rounds
    # recorded quiet-window quality_scores at sf0.1 / 32 cpus (BASELINE.md);
    # ratio > ~1.5 marks an ambient-load-contaminated record
    control_baseline = float(os.environ.get("SE_RAY_CONTROL_BASELINE", "0.75"))
    meta["control_quality_scores_ratio"] = timings["quality_scores"] / control_baseline

    headline = timings["index_build_pages_html"]
    result = {
        "metric": "pages index-build wall time (HTML extract -> tokenize/stem -> segments -> term shuffle -> compressed block index)",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": {k: round(v, 3) for k, v in timings.items()},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        **{k: round(v, 3) for k, v in meta.items()},
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    """Same headline job at two cluster sizes N and 4N (default num_cpus
    2 and 8; override SE_RAY_SCALING_CPUS="8,32") in fresh processes.

    Protocol: runs are INTERLEAVED (lo, hi, lo, hi) and the minimum per
    level is reported — the sandbox shares throttled DRAM with co-tenants,
    so the min is the least-contended sample; raw values are reported for
    transparency.
    """
    here = os.path.abspath(__file__)
    n_lo, n_hi = (
        int(x) for x in os.environ.get("SE_RAY_SCALING_CPUS", "2,8").split(",")
    )

    def one(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            SE_RAY_BENCH_ONLY="pages",
            SE_RAY_BENCH_PAGES=os.environ.get("SE_RAY_SCALING_PAGES", "300000"),
        )
        out = subprocess.run(
            [sys.executable, here], env=env, capture_output=True, text=True, check=True
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    one(n_hi)  # warm: generates/caches the corpus + OS page cache untimed
    lo_runs, hi_runs = [], []
    for _ in range(2):
        lo_runs.append(one(n_lo))
        hi_runs.append(one(n_hi))
    lo = min(lo_runs, key=lambda r: r["value"])
    hi = min(hi_runs, key=lambda r: r["value"])
    probe = compute_stage_probe()
    t_lo, t_hi = lo["value"], hi["value"]
    eff = (t_lo / t_hi) / (n_hi / n_lo)
    return {
        "metric": f"index-build scaling efficiency, num_cpus {n_lo} -> {n_hi} (N vs 4N, fresh ray sessions, same input)",
        f"sec_{n_lo}": t_lo,
        f"sec_{n_hi}": t_hi,
        f"docs_per_sec_{n_lo}": lo.get("docs_per_sec"),
        f"docs_per_sec_{n_hi}": hi.get("docs_per_sec"),
        "scaling_efficiency": round(eff, 3),
        f"raw_sec_{n_lo}": [r["value"] for r in lo_runs],
        f"raw_sec_{n_hi}": [r["value"] for r in hi_runs],
        # Per-stage evidence: the extract+tokenize+segment kernel run as K
        # independent OS processes (no Ray) — separates the pipeline's
        # compute scaling from this sandbox's shared-DRAM ceiling, which
        # caps any data-exchange stage on a single box (a real 4N-node
        # cluster adds DRAM/network bandwidth with the nodes).
        "segment_kernel_probe": probe,
    }


def compute_stage_probe() -> dict:
    """Run the per-fragment kernel in 8 vs 32 parallel processes, no Ray."""
    code = (
        "import sys, time\n"
        "sys.path.insert(0, %r)\n"
        "from search_engine_ray.config import BuildConfig\n"
        "from search_engine_ray.engine.reader import plan_fragments, read_fragment\n"
        "from search_engine_ray.corpus.extract import extract_text_batch\n"
        "from search_engine_ray.engine.segments import build_fragment_postings\n"
        "k = int(sys.argv[1])\n"
        "frags = plan_fragments(%r)\n"
        "t0 = time.perf_counter()\n"
        "for i in range(k, k + 4):\n"
        "    f = frags[i %% len(frags)]\n"
        "    tbl = read_fragment(f, columns=['url', 'html'])\n"
        "    texts = extract_text_batch(tbl['html'])\n"
        "    build_fragment_postings(tbl['url'].combine_chunks(), texts, f.base, f.frag_id, BuildConfig())\n"
        "print(time.perf_counter() - t0)\n"
    ) % (
        os.path.dirname(os.path.abspath(__file__)),
        "/tmp/se_ray_cache/pages-%s-42-32-2048" % os.environ.get("SE_RAY_SCALING_PAGES", "300000"),
    )
    out = {}
    for nproc in (8, 32):
        t0 = time.perf_counter()
        procs = [
            subprocess.Popen([sys.executable, "-c", code, str(i * 4)], stdout=subprocess.PIPE, text=True)
            for i in range(nproc)
        ]
        for p in procs:
            p.communicate()
        out[f"wall_{nproc}_procs_4frags_each"] = round(time.perf_counter() - t0, 3)
    w8, w32 = out["wall_8_procs_4frags_each"], out["wall_32_procs_4frags_each"]
    # 32 procs do 4x the work of 8 procs; equal wall == perfect scaling
    out["kernel_scaling_efficiency"] = round(w8 / w32, 3)
    return out


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_benchmarks()))
