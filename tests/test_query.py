"""Query engine: rank-identical (and score-bit-identical) to the oracle;
MaxScore == exhaustive TAAT; distributed scoring pipeline; TREC run output."""

import os
import shutil

import numpy as np
import pytest

from search_engine_ray.config import BM25Params, BuildConfig, IndexOptions, QueryOptions
from search_engine_ray.corpus.pages import write_pages_parquet
from search_engine_ray.corpus.topics import (
    generate_topics,
    parse_topics,
    write_trec_topics,
)
from search_engine_ray.engine.build import build_index
from search_engine_ray.engine.index_reader import IndexReader
from search_engine_ray.engine.scoring import (
    maxscore_topk,
    taat_bm25,
    taat_bm25_adpt,
    taat_tfidf,
)
from search_engine_ray.engine.search import search_topics, write_trec_run
from search_engine_ray.oracle.indexer import OracleIndex
from search_engine_ray.oracle.scorers import score_bm25, score_bm25_adpt, score_tfidf
from tests.test_index_build import _oracle_from_corpus

BASE = "/tmp/se_ray_query"
N_DOCS = 200
K = 50


@pytest.fixture(scope="module")
def setup(ray_session):
    corpus_dir = f"{BASE}/corpus"
    index_dir = f"{BASE}/index"
    shutil.rmtree(BASE, ignore_errors=True)
    write_pages_parquet(corpus_dir, N_DOCS, seed=43, n_files=2, row_group_size=64)
    config = BuildConfig(block_entries=16, frags_per_shard=2)
    build_index(corpus_dir, index_dir, config, term_buckets=8, overwrite=True)
    oracle = _oracle_from_corpus(corpus_dir, config.options)
    reader = IndexReader(index_dir)

    # topics over the actual corpus vocabulary (plus OOV/stopword cases)
    vocab = sorted(oracle.postings)[:400]
    topics_path = f"{BASE}/topics.txt"
    write_trec_topics(topics_path, generate_topics(20, vocab, seed=9))
    topics = parse_topics(topics_path, QueryOptions(use_title=True), config.options)
    # make sure the planted negative-idf common term is queried too
    topics.append((999, [("ubiquit", 1), (vocab[0], 2)]))
    return oracle, reader, topics


def _assert_same(engine_ids, engine_scores, oracle_ranked, reader):
    engine = [(str(reader.doc_names[d]), float(s)) for d, s in zip(engine_ids, engine_scores)]
    oracle_ranked = [(name, float(s)) for name, s in oracle_ranked]
    assert [e[0] for e in engine] == [o[0] for o in oracle_ranked]
    np.testing.assert_allclose(
        [e[1] for e in engine], [o[1] for o in oracle_ranked], rtol=0, atol=1e-5
    )


def test_bm25_taat_matches_oracle(setup):
    oracle, reader, topics = setup
    params = BM25Params()
    for topic, keywords in topics:
        ids, scores = taat_bm25(reader, keywords, params, K)
        _assert_same(ids, scores, score_bm25(oracle, keywords, params, K), reader)


def test_bm25_scores_bit_identical(setup):
    oracle, reader, topics = setup
    params = BM25Params()
    for _topic, keywords in topics:
        ids, scores = taat_bm25(reader, keywords, params, K)
        expected = score_bm25(oracle, keywords, params, K)
        assert [float(s) for s in scores] == [s for _n, s in expected]


def test_tfidf_matches_oracle(setup):
    oracle, reader, topics = setup
    for _topic, keywords in topics:
        ids, scores = taat_tfidf(reader, keywords, K)
        _assert_same(ids, scores, score_tfidf(oracle, keywords, K), reader)


def test_bm25_adpt_matches_oracle(setup):
    oracle, reader, topics = setup
    params = BM25Params()
    for _topic, keywords in topics:
        ids, scores = taat_bm25_adpt(reader, keywords, params, K)
        _assert_same(ids, scores, score_bm25_adpt(oracle, keywords, params, K), reader)


def test_getk1_matches_oracle_on_every_term(setup):
    """The engine's vectorized k1 fit equals the oracle's scalar grid
    search, float32 bit for bit, on the IG curve of every indexed term
    (each distinct curve once: about 190 for 6.5k terms)."""
    from search_engine_ray.engine.scoring import _getk1, adpt_cd_counts, adpt_cds, adpt_igs
    from search_engine_ray.oracle.scorers import _getk1 as oracle_getk1

    _oracle, reader, _topics = setup
    b = BM25Params().b
    curves = {}
    for term in sorted(reader._df):
        tp = reader.postings(term)
        _ids, tfs, dls = tp.arrays()
        igs = adpt_igs(reader.n_docs, tp.df, adpt_cd_counts(adpt_cds(tfs, dls, b, reader.avgdl)))
        curves.setdefault(igs.tobytes(), (term, igs))
    assert len({len(igs) for _t, igs in curves.values()}) > 1  # truncated and full curves
    assert any(igs[1] == 0 for _t, igs in curves.values())
    for term, igs in curves.values():
        assert _getk1(igs).tobytes() == oracle_getk1(igs).tobytes(), term


def test_getk1_matches_oracle_on_synthetic_curves():
    """Bit-identical k1 on seeded curves of every length 2..100: rising,
    truncated (last slot left at 0), IGs[1] == 0 (every ratio inf or NaN),
    negative values, and length 2, where every grid row ties."""
    from search_engine_ray.engine.scoring import _getk1
    from search_engine_ray.oracle.scorers import _getk1 as oracle_getk1

    rng = np.random.default_rng(10)
    for n in range(2, 101):
        rising = np.cumsum(rng.random(n) + 0.01).astype(np.float32)
        truncated = rising.copy()
        truncated[-1] = 0
        zero_ig1 = rising.copy()
        zero_ig1[1] = 0
        negative = (rng.standard_normal(n) * 3).astype(np.float32)
        for igs in (rising, truncated, zero_ig1, negative, -rising):
            assert _getk1(igs).tobytes() == oracle_getk1(igs).tobytes(), (n, igs)


def test_maxscore_equals_taat_bm25(setup):
    _oracle, reader, topics = setup
    params = BM25Params()
    for _topic, keywords in topics:
        for k in (3, 10, K, 10_000):
            mi, ms = maxscore_topk(reader, keywords, params, k, kind="bm25")
            ti, ts = taat_bm25(reader, keywords, params, k)
            assert mi.tolist() == ti.tolist(), (keywords, k)
            assert ms.tolist() == ts.tolist()


def test_maxscore_equals_taat_tfidf(setup):
    _oracle, reader, topics = setup
    params = BM25Params()
    for _topic, keywords in topics:
        mi, ms = maxscore_topk(reader, keywords, params, K, kind="tfidf")
        ti, ts = taat_tfidf(reader, keywords, K)
        assert mi.tolist() == ti.tolist()
        assert ms.tolist() == ts.tolist()


def test_maxscore_partition_stress(setup):
    """Head+tail term mixes at tiny k exercise the essential/non-essential
    repartitioning, the probe early-abandon, and the frontier (a term that
    flips from non-essential to essential mid-run must not re-surface
    already-scored docs — a duplicate heap entry would break rank order).
    Seed 3 is the head+tail mix that once exposed a missed pivot tie in
    the pruning traversal at small k."""
    _oracle, reader, _topics = setup
    params = BM25Params()
    by_df = sorted(reader._df, key=lambda t: -reader._df[t])
    head, tail = by_df[:5], by_df[-30:]
    for seed in (3, 7):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            kws = [(head[int(rng.integers(0, len(head)))], 1)] + [
                (tail[int(i)], 1) for i in rng.integers(0, len(tail), 2)
            ]
            for k in (1, 2, 3, 5):
                mi, ms = maxscore_topk(reader, kws, params, k, kind="bm25")
                ti, ts = taat_bm25(reader, kws, params, k)
                assert mi.tolist() == ti.tolist(), (kws, k, seed)
                assert ms.tolist() == ts.tolist()
                # no doc may appear twice in the ranking
                assert len(set(mi.tolist())) == len(mi)


def test_conjunctive_bm25_equals_filtered_taat(setup):
    """Ranked AND == exhaustive TAAT restricted to the boolean-AND doc set,
    with bit-identical float32 scores (the block-granular gather uses the
    same elementwise expression and query-order accumulation)."""
    from search_engine_ray.engine.boolean import boolean_and
    from search_engine_ray.engine.scoring import conjunctive_bm25

    _oracle, reader, topics = setup
    params = BM25Params()
    # random-vocab topics rarely intersect in a 200-doc corpus; add head-term
    # conjunctions that are guaranteed dense enough to overlap
    by_df = sorted(reader._df, key=lambda t: -reader._df[t])
    extra = [(101, [(by_df[0], 1), (by_df[1], 1)]),
             (102, [(by_df[0], 1), (by_df[1], 2), (by_df[2], 1)])]
    checked = 0
    for _topic, keywords in topics + extra:
        ci, cs = conjunctive_bm25(reader, keywords, params, k=10_000)
        and_set = set(boolean_and(reader, [t for t, _ in keywords]).tolist())
        ti, ts = taat_bm25(reader, keywords, params, k=10_000)
        keep = [j for j, d in enumerate(ti.tolist()) if d in and_set]
        assert ci.tolist() == [int(ti[j]) for j in keep]
        assert cs.tolist() == [float(ts[j]) for j in keep]
        checked += len(ci) > 0
    assert checked  # at least one topic had a non-empty AND set


def test_conjunctive_bm25_oov_is_empty(setup):
    from search_engine_ray.engine.scoring import conjunctive_bm25

    _oracle, reader, topics = setup
    kws = topics[0][1] + [("zz-not-a-term", 1)]
    ids, scores = conjunctive_bm25(reader, kws, BM25Params(), k=10)
    assert len(ids) == 0 and len(scores) == 0


def test_synonym_bm25_singletons_degenerate_to_bm25(setup):
    """A query of singleton groups must reproduce plain BM25 exactly."""
    from search_engine_ray.pipelines import bm25_scores_f64, synonym_bm25_f64

    _oracle, reader, topics = setup
    for _topic, keywords in topics:
        si, ss = synonym_bm25_f64(reader, [([t], q) for t, q in keywords])
        bi, bs = bm25_scores_f64(reader, keywords)
        assert si.tolist() == bi.tolist()
        assert ss.tolist() == bs.tolist()


def test_synonym_bm25_group_semantics(setup):
    """Two-member group == brute-force SynonymQuery over the oracle index:
    union postings, per-doc summed tf, df = |union| — NOT the sum of the
    members' independent BM25 contributions."""
    import math

    from search_engine_ray.pipelines import synonym_bm25_f64

    oracle, reader, _topics = setup
    by_df = sorted(reader._df, key=lambda t: -reader._df[t])
    t1, t2 = by_df[0], by_df[3]
    si, ss = synonym_bm25_f64(reader, [([t1, t2], 1)])

    ids1, tfs1 = oracle.postings[t1]
    ids2, tfs2 = oracle.postings[t2]
    merged: dict[int, int] = {}
    for d, tf in list(zip(ids1, tfs1)) + list(zip(ids2, tfs2)):
        merged[d] = merged.get(d, 0) + tf
    n, avgdl = oracle.n_docs, oracle.avgdl
    df = len(merged)
    idf = math.log((n - df + 0.5) / (df + 0.5))
    expected = {}
    for d, tf in merged.items():
        dl = oracle.doc_lens[d]
        expected[d] = idf * (tf * 2.2) / (tf + 1.2 * (1 - 0.75 + 0.75 * (dl / avgdl)))
    # compare via doc NAME to avoid docid-assignment assumptions
    name_got = {str(reader.doc_names[d]): s for d, s in zip(si.tolist(), ss.tolist())}
    name_exp = {oracle.doc_names[d]: s for d, s in expected.items()}
    assert set(name_got) == set(name_exp)
    for nm in name_exp:
        assert abs(name_got[nm] - name_exp[nm]) < 1e-9, nm


def test_synonym_bm25_duplicate_members_fold(setup):
    """Two surface forms normalizing to the same token must not double-count
    the postings (review finding): [t, t] == [t] exactly."""
    from search_engine_ray.pipelines import synonym_bm25_f64

    _oracle, reader, _topics = setup
    t = max(reader._df, key=lambda x: (reader._df[x], x))
    di, ds = synonym_bm25_f64(reader, [([t, t], 1)])
    si, ss = synonym_bm25_f64(reader, [([t], 1)])
    assert di.tolist() == si.tolist()
    assert ds.tolist() == ss.tolist()


def test_maxscore_stale_bounds_guard(setup):
    """MaxScore prunes with build-time block metadata: query-time BM25
    params differing from build-time make an explicit maxscore raise, and
    auto fall back to (correct) TAAT."""
    from search_engine_ray.engine.search import score_topic

    _oracle, reader, topics = setup
    kws = topics[0][1]
    other = BM25Params(k1=2.0, b=0.4)
    with pytest.raises(ValueError, match="build-time BM25 params"):
        score_topic(reader, kws, "bm25", other, 10, "maxscore")
    ids_auto, s_auto = score_topic(reader, kws, "bm25", other, 10, "auto")
    ids_taat, s_taat = score_topic(reader, kws, "bm25", other, 10, "taat")
    assert np.array_equal(ids_auto, ids_taat)
    assert np.array_equal(s_auto, s_taat)
    built = BM25Params()
    ids_m, s_m = score_topic(reader, kws, "bm25", built, 10, "maxscore")
    ids_t, s_t = score_topic(reader, kws, "bm25", built, 10, "taat")
    assert np.array_equal(ids_m, ids_t)
    assert np.array_equal(s_m, s_t)


def test_unknown_method_or_kind_raises(setup):
    """An unknown score_topic method raises instead of silently running
    TAAT, and an unknown MaxScore kind raises instead of silently scoring
    BM25."""
    from search_engine_ray.engine.search import score_topic

    _oracle, reader, topics = setup
    kws = topics[0][1]
    for method in ("wnad", "MAXSCORE", ""):
        for scorer in ("bm25", "tfidf", "bm25adpt"):
            with pytest.raises(ValueError, match="unknown method"):
                score_topic(reader, kws, scorer, None, 10, method)
    with pytest.raises(ValueError, match="unknown scoring kind"):
        maxscore_topk(reader, [(max(reader._df, key=reader._df.get), 1)], BM25Params(), 10,
                      kind="bm25adpt")


def test_distributed_search_pipeline(setup, tmp_path):
    oracle, reader, topics = setup
    run = search_topics(f"{BASE}/index", topics, scorer="bm25", run_name="r1", k=10)
    assert run.column_names == ["topic", "q0", "doc", "rank", "score", "run_name"]
    # spot-check one topic against the oracle
    params = BM25Params()
    t0, kw0 = topics[0]
    sub = run.filter(np.asarray(run["topic"]) == t0) if False else run.to_pandas()
    sub = sub[sub["topic"] == t0]
    expected = score_bm25(oracle, kw0, params, 10)
    assert sub["doc"].tolist() == [n for n, _ in expected]
    assert (sub["rank"] == np.arange(1, len(expected) + 1)).all()
    # TREC output format
    out = tmp_path / "run.txt"
    write_trec_run(run, str(out))
    first = out.read_text().splitlines()[0].split(" ")
    assert len(first) == 6 and first[1] == "Q0"


def test_sharded_search_matches_whole_index(setup):
    """Doc-range-sharded scoring (the 10^12-doc path) must be bit-identical
    to whole-index TAAT — scores, docs and tie-broken ranks."""
    from search_engine_ray.engine.sharded_search import search_topics_sharded

    oracle, reader, topics = setup
    params = BM25Params()
    for scorer in ("bm25", "tfidf", "bm25adpt"):
        out = search_topics_sharded(f"{BASE}/index", topics, scorer=scorer, k=20).to_pandas()
        for topic, keywords in topics:
            if scorer == "bm25":
                ids, scores = taat_bm25(reader, keywords, params, 20)
            elif scorer == "bm25adpt":
                ids, scores = taat_bm25_adpt(reader, keywords, params, 20)
            else:
                ids, scores = taat_tfidf(reader, keywords, 20)
            sub = out[out["topic"] == topic].sort_values("rank")
            assert sub["doc_id"].tolist() == ids.tolist(), (scorer, topic)
            assert sub["score"].tolist() == scores.tolist(), (scorer, topic)


def test_sharded_daat_pruning_matches_taat(setup):
    """Per-shard MaxScore + global merge == the sharded TAAT path ==
    whole-index TAAT: shard-local pruning can only drop docs outside the
    shard's own top-k, and the union of shard top-k supersets the global
    top-k."""
    from search_engine_ray.engine.sharded_search import search_topics_sharded

    _oracle, reader, topics = setup
    params = BM25Params()
    sub_topics = topics[:6] + topics[-1:]
    for scorer in ("bm25", "tfidf"):
        base = search_topics_sharded(
            f"{BASE}/index", sub_topics, scorer=scorer, k=20, method="taat"
        ).to_pandas()
        out = search_topics_sharded(
            f"{BASE}/index", sub_topics, scorer=scorer, k=20, method="maxscore"
        ).to_pandas()
        assert out["doc_id"].tolist() == base["doc_id"].tolist(), scorer
        assert out["score"].tolist() == base["score"].tolist()
        assert out["topic"].tolist() == base["topic"].tolist()


def test_sharded_daat_rejects_adpt(setup):
    from search_engine_ray.engine.sharded_search import ShardScorer

    with pytest.raises(ValueError, match="exhaustive"):
        ShardScorer(f"{BASE}/index", [(1, [("a", 1)])], scorer="bm25adpt", method="maxscore")


def test_pruned_reader_matches_preloaded(setup):
    _oracle, reader, topics = setup
    lazy = IndexReader(f"{BASE}/index", preload=False)
    params = BM25Params()
    for _topic, keywords in topics[:5]:
        a = taat_bm25(reader, keywords, params, K)
        b = taat_bm25(lazy, keywords, params, K)
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()


def test_snippet_extraction(ray_session):
    """Best-window semantics: max hit count, ties -> earliest start,
    stopword query words dropped, hitless docs omitted."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from search_engine_ray.config import IndexOptions
    from search_engine_ray.engine.snippets import snippets

    opt = IndexOptions(case_folding=True, remove_stopwords=True, stemming=False)
    texts = [
        "alpha beta gamma alpha delta alpha alpha zeta",   # dense cluster late
        "beta gamma delta epsilon",                         # single hit
        "nothing matching here",
        "alpha " + "x " * 20 + "alpha beta",                # two clusters
    ]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()), "text": pa.array(texts)})
    )
    out = (
        snippets(ds, ["alpha", "beta", "the"], opt, window=3)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # doc1 kept: [alpha beta gamma alpha delta alpha alpha zeta]
    # window=3 starting at each hit: [0]=2, [3]=1, [5]=2, [6]=1 -> tie at 0 and 5, earliest wins
    assert out.loc[1, "best_start"] == 0 and out.loc[1, "n_hits"] == 2
    assert out.loc[1, "snippet"] == "alpha beta gamma"
    assert out.loc[2, "n_hits"] == 1 and out.loc[2, "best_start"] == 0
    assert 3 not in out.index
    # doc4: [alpha x*20 alpha beta]: window at 21 has 2 hits
    assert out.loc[4, "best_start"] == 21 and out.loc[4, "n_hits"] == 2
    assert out.loc[4, "snippet"] == "alpha beta"


def test_filtered_bm25_and_facets(ray_session, tmp_path):
    """Filtered scoring restricts candidates but keeps corpus-wide idf;
    facet counts equal brute-force per-value match counts."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq_
    import ray.data

    from search_engine_ray.config import BuildConfig
    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.pipelines import (
        bm25_filtered_scores_f64,
        bm25_scores_f64,
        facet_counts,
    )

    texts = [
        "alpha beta", "alpha gamma", "beta gamma", "alpha beta gamma",
        "delta", "alpha alpha beta",
    ]
    langs = ["en", "fr", "en", "en", "fr", "fr"]
    corpus = str(tmp_path / "corpus")
    import os as _os

    _os.makedirs(corpus)
    tbl = pa.table(
        {
            "doc_id": pa.array(range(6), pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(langs),
        }
    )
    pq_.write_table(tbl, f"{corpus}/docs.parquet")
    index_dir = str(tmp_path / "idx")
    build_index(
        corpus, index_dir,
        BuildConfig(
            block_entries=4, frags_per_shard=2,
            options=IndexOptions(stemming=False),
        ),
        overwrite=True, source_column="text", name_column="doc_id",
    )
    r = IndexReader(index_dir)
    kws = [("alpha", 1), ("beta", 1)]
    allowed = np.array([r.doc_names[i] in {"0", "2", "3"} for i in range(r.n_docs)])
    f_ids, f_scores = bm25_filtered_scores_f64(r, kws, allowed)
    assert set(int(r.doc_names[d]) for d in f_ids) <= {0, 2, 3}
    # scores of allowed docs equal their unfiltered scores (idf unchanged)
    u_ids, u_scores = bm25_scores_f64(r, kws)
    u_map = {int(r.doc_names[d]): s for d, s in zip(u_ids, u_scores)}
    for d, s in zip(f_ids, f_scores):
        assert s == u_map[int(r.doc_names[d])]
    with __import__("pytest").raises(ValueError):
        bm25_filtered_scores_f64(r, kws, allowed[:-1])

    ds = ray.data.from_arrow(tbl)
    fc = facet_counts(r, ["alpha"], ds, "lang").to_pandas()
    got = dict(zip(fc["facet"], fc["n_docs"]))
    exp = {}
    for t, la in zip(texts, langs):
        if "alpha" in t.split():
            exp[la] = exp.get(la, 0) + 1
    assert got == exp


def test_lmd_scorer_matches_brute_force(ray_session, tmp_path):
    """LM-Dirichlet scores equal a from-the-raw-text brute force, and the
    public scorer registry routes to it."""
    import math
    import os as _os

    import pyarrow as pa
    import pyarrow.parquet as pq_

    from search_engine_ray.config import BuildConfig, IndexOptions
    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.engine.search import register_scorer, score_topic
    from search_engine_ray.pipelines import lmd_scores_f64

    texts = [
        "alpha beta alpha", "alpha gamma", "beta gamma gamma", "delta epsilon",
        "alpha beta gamma delta", "beta beta beta",
    ]
    corpus = str(tmp_path / "c")
    _os.makedirs(corpus)
    pq_.write_table(
        pa.table({"doc_id": pa.array(range(6), pa.int64()), "text": pa.array(texts)}),
        f"{corpus}/d.parquet",
    )
    idx = str(tmp_path / "i")
    build_index(
        corpus, idx,
        BuildConfig(block_entries=4, frags_per_shard=2, options=IndexOptions(stemming=False)),
        overwrite=True, source_column="text", name_column="doc_id",
    )
    r = IndexReader(idx)
    kws = [("alpha", 1), ("beta", 2)]
    mu = 500.0
    ids, scores = lmd_scores_f64(r, kws, mu=mu)

    # brute force from the raw texts
    toks = [t.split() for t in texts]
    C = sum(len(t) for t in toks)
    cf = {w: sum(t.count(w) for t in toks) for w in ("alpha", "beta")}
    exp = {}
    for d, t in enumerate(toks):
        s = 0.0
        matched = False
        for w, qtf in kws:
            tf = t.count(w)
            if tf:
                matched = True
                s += qtf * math.log(1.0 + tf / (mu * (cf[w] / C)))
        if matched:
            exp[str(d)] = s + (1 + 2) * math.log(mu / (len(t) + mu))
    got = {str(r.doc_names[d]): s for d, s in zip(ids, scores)}
    assert set(got) == set(exp)
    for k in exp:
        assert abs(got[k] - exp[k]) < 1e-12
    # descending with docID tiebreak
    key = [(-s, int(r.doc_names[d])) for d, s in zip(ids, scores)]
    assert key == sorted(key)
    # registry route
    register_scorer("lmd_test", lambda rd, kw, p, k: lmd_scores_f64(rd, kw, mu=mu))
    try:
        reg_ids, reg_scores = score_topic(r, kws, scorer="lmd_test", k=10)
        assert reg_ids.tolist() == ids.tolist()[:10]
    finally:
        from search_engine_ray.engine import search as _s

        _s._CUSTOM_SCORERS.pop("lmd_test", None)


def test_lmjm_scorer_matches_brute_force(ray_session, tmp_path):
    """LM Jelinek-Mercer scores equal a from-the-raw-text brute force
    (matching-docs form: unmatched docs absent), registry route included."""
    import math
    import os as _os

    import pyarrow as pa
    import pyarrow.parquet as pq_

    from search_engine_ray.config import BuildConfig, IndexOptions
    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.engine.search import register_scorer, score_topic
    from search_engine_ray.pipelines import lmjm_scores_f64

    texts = [
        "alpha beta alpha", "alpha gamma", "beta gamma gamma", "delta epsilon",
        "alpha beta gamma delta", "beta beta beta",
    ]
    corpus = str(tmp_path / "c")
    _os.makedirs(corpus)
    pq_.write_table(
        pa.table({"doc_id": pa.array(range(6), pa.int64()), "text": pa.array(texts)}),
        f"{corpus}/d.parquet",
    )
    idx = str(tmp_path / "i")
    build_index(
        corpus, idx,
        BuildConfig(block_entries=4, frags_per_shard=2, options=IndexOptions(stemming=False)),
        overwrite=True, source_column="text", name_column="doc_id",
    )
    r = IndexReader(idx)
    kws = [("alpha", 1), ("beta", 2)]
    lam = 0.2
    ids, scores = lmjm_scores_f64(r, kws, lam=lam)

    toks = [t.split() for t in texts]
    C = sum(len(t) for t in toks)
    cf = {w: sum(t.count(w) for t in toks) for w in ("alpha", "beta")}
    exp = {}
    for d, t in enumerate(toks):
        s = 0.0
        matched = False
        for w, qtf in kws:
            tf = t.count(w)
            if tf:
                matched = True
                s += qtf * math.log(
                    1.0 + ((1 - lam) / lam) * (tf / len(t)) / (cf[w] / C)
                )
        if matched:
            exp[str(d)] = s
    got = {str(r.doc_names[d]): s for d, s in zip(ids, scores)}
    assert set(got) == set(exp)
    for k in exp:
        assert abs(got[k] - exp[k]) < 1e-12
    key = [(-s, int(r.doc_names[d])) for d, s in zip(ids, scores)]
    assert key == sorted(key)
    register_scorer("lmjm_test", lambda rd, kw, p, k: lmjm_scores_f64(rd, kw, lam=lam))
    try:
        reg_ids, _ = score_topic(r, kws, scorer="lmjm_test", k=10)
        assert reg_ids.tolist() == ids.tolist()[:10]
    finally:
        from search_engine_ray.engine import search as _s

        _s._CUSTOM_SCORERS.pop("lmjm_test", None)


def test_prior_boosted_bm25(ray_session, tmp_path):
    """Static-prior blending: zero prior is exactly the BM25 ranking;
    a nonzero prior adds lam*ln(1+prior) per matching doc and never
    introduces non-matching docs."""
    import math
    import os as _os

    import numpy as _np
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from search_engine_ray.config import BuildConfig, IndexOptions
    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.pipelines import bm25_scores_f64, prior_boosted_bm25_f64

    texts = ["alpha beta", "alpha alpha", "beta gamma", "delta", "alpha beta beta"]
    corpus = str(tmp_path / "c")
    _os.makedirs(corpus)
    pq_.write_table(
        pa.table({"doc_id": pa.array(range(5), pa.int64()), "text": pa.array(texts)}),
        f"{corpus}/d.parquet",
    )
    idx = str(tmp_path / "i")
    build_index(
        corpus, idx,
        BuildConfig(block_entries=4, frags_per_shard=2, options=IndexOptions(stemming=False)),
        overwrite=True, source_column="text", name_column="doc_id",
    )
    r = IndexReader(idx)
    kws = [("alpha", 1), ("beta", 1)]
    base_ids, base_scores = bm25_scores_f64(r, kws)

    zero = _np.zeros(r.n_docs)
    ids0, scores0 = prior_boosted_bm25_f64(r, kws, zero, lam=0.7)
    assert ids0.tolist() == base_ids.tolist()
    assert _np.allclose(scores0, base_scores)

    prior = _np.arange(r.n_docs, dtype=float) * 3.0
    ids1, scores1 = prior_boosted_bm25_f64(r, kws, prior, lam=0.7)
    assert set(ids1) == set(base_ids)  # prior never creates matches
    exp = {d: s + 0.7 * math.log1p(prior[d]) for d, s in zip(base_ids, base_scores)}
    for d, s in zip(ids1, scores1):
        assert abs(s - exp[d]) < 1e-12
    key = [(-s, d) for d, s in zip(ids1, scores1)]
    assert key == sorted(key)


def test_phrase_bm25(ray_session, tmp_path):
    """Phrase-ranked retrieval: BM25 over exact-phrase counts equals a
    from-the-raw-text brute force; non-matching docs absent; ties break
    by ascending numeric doc name."""
    import math
    import os as _os

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from search_engine_ray.config import BuildConfig, IndexOptions
    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.engine.positions import build_position_index
    from search_engine_ray.pipelines import phrase_bm25_f64

    opt = IndexOptions(case_folding=True, remove_stopwords=False, stemming=False)
    texts = [
        "big data big data big data",   # pf=3
        "big data filler words here",   # pf=1
        "data big reversed",            # pf=0
        "big x data split",             # pf=0
        "big data",                     # pf=1, short doc
        "nothing relevant",
    ]
    ids = list(range(6))
    corpus = str(tmp_path / "c")
    _os.makedirs(corpus)
    pq_.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}),
        f"{corpus}/d.parquet",
    )
    idx = str(tmp_path / "i")
    build_index(
        corpus, idx, BuildConfig(block_entries=4, frags_per_shard=2, options=opt),
        overwrite=True, source_column="text", name_column="doc_id",
    )
    pos = str(tmp_path / "p")
    build_position_index(corpus, pos, opt, source_column="text", name_column="doc_id")

    r = IndexReader(idx)
    got_ids, got_scores = phrase_bm25_f64(r, pos, ["big", "data"], options=opt)

    toks = [t.split() for t in texts]
    n = len(texts)
    avgdl = r.avgdl
    pf = {
        d: sum(
            1 for i in range(len(t) - 1) if t[i] == "big" and t[i + 1] == "data"
        )
        for d, t in enumerate(toks)
    }
    matched = {d: c for d, c in pf.items() if c > 0}
    df = float(len(matched))
    idf = math.log((n - df + 0.5) / (df + 0.5))
    exp = {
        d: idf * (c * 2.2) / (c + 1.2 * (1 - 0.75 + 0.75 * (len(toks[d]) / avgdl)))
        for d, c in matched.items()
    }
    got = {int(r.doc_names[o]): s for o, s in zip(got_ids, got_scores)}
    assert set(got) == set(exp)
    for d in exp:
        assert abs(got[d] - exp[d]) < 1e-12
    key = [(-s, int(r.doc_names[o])) for o, s in zip(got_ids, got_scores)]
    assert key == sorted(key)
    # empty phrase result path
    e_ids, e_scores = phrase_bm25_f64(r, pos, ["zz", "qq"], options=opt)
    assert len(e_ids) == 0 and len(e_scores) == 0
    # sidecar/index build-options mismatch fails loud (review finding)
    opt2 = IndexOptions(case_folding=True, remove_stopwords=True, stemming=False)
    pos2 = str(tmp_path / "p2")
    build_position_index(corpus, pos2, opt2, source_column="text", name_column="doc_id")
    with pytest.raises(ValueError, match="differ"):
        phrase_bm25_f64(r, pos2, ["big", "data"], options=opt2)


def test_collapse_ranking():
    """Field collapse keeps the first per_group hits per group in rank
    order; per_group > 1 keeps that many."""
    import numpy as np

    from search_engine_ray.pipelines import collapse_ranking

    ids = np.array([7, 3, 9, 1, 4, 8], dtype=np.int64)
    scores = np.array([9.0, 8.0, 7.0, 6.0, 5.0, 4.0])
    group_of = np.empty(10, dtype=object)
    for i, g in enumerate(["a", "b", "a", "a", "b", "c", "c", "a", "b", "b"]):
        group_of[i] = g
    # groups of ids: 7->a, 3->a, 9->b, 1->b, 4->b, 8->b
    c_ids, c_scores = collapse_ranking(ids, scores, group_of, per_group=1)
    assert c_ids.tolist() == [7, 9] and c_scores.tolist() == [9.0, 7.0]
    c_ids2, _ = collapse_ranking(ids, scores, group_of, per_group=2)
    assert c_ids2.tolist() == [7, 3, 9, 1]
    e_ids, e_scores = collapse_ranking(
        np.empty(0, np.int64), np.empty(0), group_of, per_group=1
    )
    assert len(e_ids) == 0 and len(e_scores) == 0


def test_collapse_ranking_keeps_ungrouped():
    """Results with a None group are never silently dropped."""
    import numpy as np

    from search_engine_ray.pipelines import collapse_ranking

    ids = np.array([5, 7, 9], dtype=np.int64)
    scores = np.array([3.0, 2.0, 1.0])
    group_of = np.empty(10, dtype=object)
    group_of[7] = "a"
    group_of[9] = "a"
    c_ids, c_scores = collapse_ranking(ids, scores, group_of, per_group=1)
    assert c_ids.tolist() == [5, 7] and c_scores.tolist() == [3.0, 2.0]


def test_bm25plus_long_doc_lower_bound(ray_session, tmp_path):
    """BM25+ keeps credit for a term match in a very long doc (the delta
    lower bound) where plain BM25's tf normalization goes to ~0; scores
    match a brute force from the raw texts."""
    import math
    import os as _os

    import pyarrow as pa
    import pyarrow.parquet as pq_

    from search_engine_ray.config import BuildConfig, IndexOptions
    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.pipelines import bm25plus_scores_f64

    long_doc = "alpha " + "filler " * 4000
    texts = ["alpha beta", long_doc.strip(), "beta gamma"]
    corpus = str(tmp_path / "c")
    _os.makedirs(corpus)
    pq_.write_table(
        pa.table({"doc_id": pa.array(range(3), pa.int64()), "text": pa.array(texts)}),
        f"{corpus}/d.parquet",
    )
    idx = str(tmp_path / "i")
    build_index(
        corpus, idx,
        BuildConfig(block_entries=4, frags_per_shard=2, options=IndexOptions(stemming=False)),
        overwrite=True, source_column="text", name_column="doc_id",
    )
    r = IndexReader(idx)
    ids, scores = bm25plus_scores_f64(r, [("alpha", 1)])
    got = {str(r.doc_names[d]): s for d, s in zip(ids, scores)}
    toks = [t.split() for t in texts]
    n, avgdl = 3, sum(len(t) for t in toks) / 3
    df = sum(1 for t in toks if "alpha" in t)
    exp = {}
    for d, t in enumerate(toks):
        tf = t.count("alpha")
        if tf:
            K = 1.2 * (1 - 0.75 + 0.75 * len(t) / avgdl)
            exp[str(d)] = math.log((n + 1) / df) * ((tf * 2.2) / (tf + K) + 1.0)
    assert set(got) == set(exp)
    for k in exp:
        assert abs(got[k] - exp[k]) < 1e-12
    # the delta floor: even the 4000-token doc scores > idf * delta * qterm... i.e. > 0
    assert got["1"] > math.log((n + 1) / df) * 1.0 * 0.99


def test_bm25_proximity_boosted(ray_session, tmp_path):
    """Proximity boost = bm25 + lam*ln(1+pairs) with pair counts from the
    sidecar; docs with adjacent query terms outrank equal-bm25 docs."""
    import os as _os

    import pyarrow as pa
    import pyarrow.parquet as pq_

    from search_engine_ray.config import BuildConfig, IndexOptions
    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.engine.positions import build_position_index, proximity_search
    from search_engine_ray.pipelines import (
        bm25_proximity_boosted_f64,
        bm25_scores_f64,
    )

    # docs 0/1 have identical term bags; only 0 has the terms adjacent
    texts = ["alpha beta filler filler", "alpha filler filler beta", "alpha gamma"]
    corpus = str(tmp_path / "c")
    _os.makedirs(corpus)
    pq_.write_table(
        pa.table({"doc_id": pa.array(range(3), pa.int64()), "text": pa.array(texts)}),
        f"{corpus}/d.parquet",
    )
    opts = IndexOptions(stemming=False)
    idx = str(tmp_path / "i")
    build_index(
        corpus, idx, BuildConfig(block_entries=4, frags_per_shard=2, options=opts),
        overwrite=True, source_column="text", name_column="doc_id",
    )
    pos = str(tmp_path / "p")
    build_position_index(corpus, pos, opts, source_column="text", name_column="doc_id")

    r = IndexReader(idx)
    kws = [("alpha", 1), ("beta", 1)]
    b_ids, b_scores = bm25_scores_f64(r, kws)
    p_ids, p_scores = bm25_proximity_boosted_f64(r, pos, kws, window=1, lam=0.5, options=opts)
    base = {int(r.doc_names[d]): s for d, s in zip(b_ids, b_scores)}
    boosted = {int(r.doc_names[d]): s for d, s in zip(p_ids, p_scores)}
    import math

    pairs0 = proximity_search(pos, "alpha", "beta", 1, options=opts)
    n0 = dict(zip(pairs0["doc_id"].to_pylist(), pairs0["n_pairs"].to_pylist()))
    for doc in base:
        assert abs(boosted[doc] - (base[doc] + 0.5 * math.log1p(n0.get(doc, 0)))) < 1e-12
    # identical bm25 bags: the adjacent one wins after the boost
    assert abs(base[0] - base[1]) < 1e-9
    assert boosted[0] > boosted[1]
    assert int(r.doc_names[p_ids[0]]) == 0


def test_pivoted_scorer_matches_brute_force(ray_session, tmp_path):
    """Pivoted length normalization VSM equals a from-the-raw-text brute
    force, and the public scorer registry routes to it."""
    import math
    import os as _os

    import pyarrow as pa
    import pyarrow.parquet as pq_

    from search_engine_ray.config import BuildConfig, IndexOptions
    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.engine.search import register_scorer, score_topic
    from search_engine_ray.pipelines import pivoted_scores_f64

    texts = [
        "alpha beta alpha", "alpha gamma", "beta gamma gamma", "delta epsilon",
        "alpha beta gamma delta", "beta beta beta",
    ]
    corpus = str(tmp_path / "c")
    _os.makedirs(corpus)
    pq_.write_table(
        pa.table({"doc_id": pa.array(range(6), pa.int64()), "text": pa.array(texts)}),
        f"{corpus}/d.parquet",
    )
    idx = str(tmp_path / "i")
    build_index(
        corpus, idx,
        BuildConfig(block_entries=4, frags_per_shard=2, options=IndexOptions(stemming=False)),
        overwrite=True, source_column="text", name_column="doc_id",
    )
    r = IndexReader(idx)
    kws = [("alpha", 1), ("beta", 2)]
    s_slope = 0.2
    ids, scores = pivoted_scores_f64(r, kws, s=s_slope)

    toks = [t.split() for t in texts]
    n = len(texts)
    avgdl = sum(len(t) for t in toks) / n
    df = {w: sum(1 for t in toks if w in t) for w in ("alpha", "beta")}
    exp = {}
    for d, t in enumerate(toks):
        total = 0.0
        matched = False
        for w, qtf in kws:
            tf = t.count(w)
            if tf:
                matched = True
                dampened = 1.0 + math.log(1.0 + math.log(tf))
                pivot = (1.0 - s_slope) + s_slope * (len(t) / avgdl)
                total += qtf * (dampened / pivot) * math.log((n + 1.0) / df[w])
        if matched:
            exp[str(d)] = total
    got = {str(r.doc_names[d]): s for d, s in zip(ids, scores)}
    assert set(got) == set(exp)
    for k in exp:
        assert abs(got[k] - exp[k]) < 1e-12
    key = [(-s, int(r.doc_names[d])) for d, s in zip(ids, scores)]
    assert key == sorted(key)
    register_scorer(
        "pivoted_test", lambda rd, kw, p, k: pivoted_scores_f64(rd, kw, s=s_slope)
    )
    try:
        reg_ids, _ = score_topic(r, kws, scorer="pivoted_test", k=10)
        assert reg_ids.tolist() == ids.tolist()[:10]
    finally:
        from search_engine_ray.engine import search as _s

        _s._CUSTOM_SCORERS.pop("pivoted_test", None)


def test_qpp_post_matches_recompute(ray_session, tmp_path):
    """qpp_post's integer sums equal a direct recompute from the BM25
    twin's arrays; NQC/WIG compose from those integers exactly."""
    import math
    import os as _os

    import pyarrow as pa
    import pyarrow.parquet as pq_

    from search_engine_ray.config import BuildConfig, IndexOptions
    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.engine.qpp import qpp_post
    from search_engine_ray.pipelines import bm25_scores_f64

    rng = np.random.default_rng(3)
    vocab = ["alpha", "beta", "gamma", "delta", "eps"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(3, 12)).tolist())
        for _ in range(40)
    ]
    corpus = str(tmp_path / "c")
    _os.makedirs(corpus)
    pq_.write_table(
        pa.table({"doc_id": pa.array(range(40), pa.int64()), "text": pa.array(texts)}),
        f"{corpus}/d.parquet",
    )
    idx = str(tmp_path / "i")
    build_index(
        corpus, idx,
        BuildConfig(block_entries=8, frags_per_shard=2, options=IndexOptions(stemming=False)),
        overwrite=True, source_column="text", name_column="doc_id",
    )
    r = IndexReader(idx)
    kws = [("alpha", 1), ("beta", 1)]
    k = 5
    row = qpp_post(r, kws, k=k).to_pylist()[0]

    ids, scores = bm25_scores_f64(r, kws)
    m = np.floor(scores * 1e6 + 0.5).astype(np.int64)
    docs = np.asarray([int(r.doc_names[d]) for d in ids], dtype=np.int64)
    order = np.lexsort((docs, -m))
    m = m[order]
    top = m[:k].tolist()
    assert row["k"] == k
    assert row["n_scored"] == len(m)
    assert row["sum_topk_micros"] == sum(top)
    assert row["sumsq_topk_micros"] == sum(x * x for x in top)
    assert row["sum_all_micros"] == int(m.sum())
    mean_topk = float(sum(top)) / k
    mean_all = float(m.sum()) / len(m)
    var = float(sum(x * x for x in top)) / k - mean_topk * mean_topk
    nqc = math.sqrt(max(var, 0.0)) / abs(mean_all) if abs(mean_all) > 0 else 0.0
    wig = (mean_topk - mean_all) / 1_000_000.0 / math.sqrt(2.0)
    assert row["nqc_micros"] == int(np.floor(nqc * 1e6 + 0.5))
    assert row["wig_micros"] == int(np.floor(wig * 1e6 + 0.5))

    # k larger than the candidate set degrades gracefully
    row_all = qpp_post(r, kws, k=10_000).to_pylist()[0]
    assert row_all["k"] == row_all["n_scored"] == len(m)
    assert row_all["sum_topk_micros"] == row_all["sum_all_micros"]


def test_pl2_scorer_matches_brute_force(ray_session, tmp_path):
    """DFR PL2 scores equal a from-the-raw-text brute force, and the
    public scorer registry routes to it."""
    import math
    import os as _os

    import pyarrow as pa
    import pyarrow.parquet as pq_

    from search_engine_ray.config import BuildConfig, IndexOptions
    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.engine.search import register_scorer, score_topic
    from search_engine_ray.pipelines import pl2_scores_f64

    texts = [
        "alpha beta alpha", "alpha gamma", "beta gamma gamma", "delta epsilon",
        "alpha beta gamma delta", "beta beta beta",
    ]
    corpus = str(tmp_path / "c")
    _os.makedirs(corpus)
    pq_.write_table(
        pa.table({"doc_id": pa.array(range(6), pa.int64()), "text": pa.array(texts)}),
        f"{corpus}/d.parquet",
    )
    idx = str(tmp_path / "i")
    build_index(
        corpus, idx,
        BuildConfig(block_entries=4, frags_per_shard=2, options=IndexOptions(stemming=False)),
        overwrite=True, source_column="text", name_column="doc_id",
    )
    r = IndexReader(idx)
    kws = [("alpha", 1), ("beta", 2)]
    c = 1.0
    ids, scores = pl2_scores_f64(r, kws, c=c)

    toks = [t.split() for t in texts]
    n = len(texts)
    avgdl = sum(len(t) for t in toks) / n
    cf = {w: sum(t.count(w) for t in toks) for w in ("alpha", "beta")}
    ln2 = math.log(2.0)
    exp = {}
    for d, t in enumerate(toks):
        total = 0.0
        matched = False
        for w, qtf in kws:
            tf = t.count(w)
            if tf:
                matched = True
                lam = cf[w] / n
                tfn = tf * (math.log(1.0 + c * avgdl / len(t)) / ln2)
                total += qtf * (1.0 / (tfn + 1.0)) * (
                    tfn * (math.log(tfn / lam) / ln2)
                    + (lam - tfn) * (1.0 / ln2)
                    + 0.5 * (math.log(2.0 * math.pi * tfn) / ln2)
                )
        if matched:
            exp[str(d)] = total
    got = {str(r.doc_names[d]): s for d, s in zip(ids, scores)}
    assert set(got) == set(exp)
    for k in exp:
        assert abs(got[k] - exp[k]) < 1e-12
    key = [(-s, int(r.doc_names[d])) for d, s in zip(ids, scores)]
    assert key == sorted(key)
    register_scorer("pl2_test", lambda rd, kw, p, k: pl2_scores_f64(rd, kw, c=c))
    try:
        reg_ids, _ = score_topic(r, kws, scorer="pl2_test", k=10)
        assert reg_ids.tolist() == ids.tolist()[:10]
    finally:
        from search_engine_ray.engine import search as _s

        _s._CUSTOM_SCORERS.pop("pl2_test", None)


def test_cascade_and_msm(ray_session, tmp_path):
    """Cascade == BM25 restricted to the TF-IDF top-N candidate set
    (including the deliberate recall loss when N is tiny); MSM == BM25
    restricted to docs matching >= m distinct terms."""
    import os as _os

    import pyarrow as pa
    import pyarrow.parquet as pq_

    from search_engine_ray.config import BuildConfig, IndexOptions
    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.pipelines import (
        bm25_scores_f64,
        cascade_scores_f64,
        msm_bm25_scores_f64,
        tfidf_scores_f64,
    )

    rng = np.random.default_rng(13)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(3, 14)).tolist())
        for _ in range(50)
    ]
    corpus = str(tmp_path / "c")
    _os.makedirs(corpus)
    pq_.write_table(
        pa.table({"doc_id": pa.array(range(50), pa.int64()), "text": pa.array(texts)}),
        f"{corpus}/d.parquet",
    )
    idx = str(tmp_path / "i")
    build_index(
        corpus, idx,
        BuildConfig(block_entries=8, frags_per_shard=2, options=IndexOptions(stemming=False)),
        overwrite=True, source_column="text", name_column="doc_id",
    )
    r = IndexReader(idx)
    kws = [("alpha", 1), ("beta", 1), ("gamma", 1)]

    # --- cascade ---
    ids_t, sc_t = tfidf_scores_f64(r, kws)
    nd = np.asarray([int(r.doc_names[d]) for d in ids_t], dtype=np.int64)
    for n_first in (5, 20, 10_000):
        cut = set(ids_t[np.lexsort((nd, -sc_t))[:n_first]].tolist())
        ids_b, sc_b = bm25_scores_f64(r, kws)
        exp = [(d, s) for d, s in zip(ids_b, sc_b) if d in cut]
        got_ids, got_sc = cascade_scores_f64(r, kws, n_first=n_first)
        assert got_ids.tolist() == [d for d, _ in exp]
        assert got_sc.tolist() == [s for _, s in exp]
        assert len(got_ids) <= min(n_first, len(ids_b))
    # tiny first stage DOES lose docs the full ranking keeps
    few_ids, _ = cascade_scores_f64(r, kws, n_first=3)
    assert len(few_ids) == 3
    with pytest.raises(ValueError):
        cascade_scores_f64(r, kws, n_first=0)

    # --- msm ---
    ids_b, sc_b = bm25_scores_f64(r, kws)
    matched = np.zeros(r.n_docs, dtype=np.int64)
    for t, _q in kws:
        tp = r.postings(t)
        if tp is not None:
            matched[tp.arrays()[0]] += 1
    for m in (1, 2, 3):
        gids, gsc = msm_bm25_scores_f64(r, kws, min_should_match=m)
        keep = [i for i, d in enumerate(ids_b) if matched[d] >= m]
        assert gids.tolist() == [int(ids_b[i]) for i in keep]
        assert gsc.tolist() == [float(sc_b[i]) for i in keep]
    assert len(msm_bm25_scores_f64(r, kws, min_should_match=4)[0]) == 0
    with pytest.raises(ValueError):
        msm_bm25_scores_f64(r, kws, min_should_match=0)


def test_relaxation_pagination_fieldsort(ray_session, tmp_path):
    """Relaxation ladder picks the tightest m with >= k matches; keyset
    pagination equals rank slicing at every cursor; field sort ranks the
    OR-match set by metadata."""
    import os as _os

    import pyarrow as pa
    import pyarrow.parquet as pq_
    import ray.data

    from search_engine_ray.config import BuildConfig, IndexOptions
    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.pipelines import (
        bm25_search_after_f64,
        bm25_scores_f64,
        msm_bm25_scores_f64,
        relaxed_bm25_scores_f64,
        sort_matches_by_field,
    )

    rng = np.random.default_rng(41)
    vocab = ["alpha", "beta", "gamma", "delta", "eps"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(2, 10)).tolist())
        for _ in range(30)
    ]
    corpus = str(tmp_path / "c")
    _os.makedirs(corpus)
    tbl = pa.table(
        {
            "doc_id": pa.array(range(30), pa.int64()),
            "text": pa.array(texts),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq_.write_table(tbl, f"{corpus}/d.parquet")
    idx = str(tmp_path / "i")
    build_index(
        corpus, idx,
        BuildConfig(block_entries=8, frags_per_shard=2, options=IndexOptions(stemming=False)),
        overwrite=True, source_column="text", name_column="doc_id",
    )
    r = IndexReader(idx)
    kws = [("alpha", 1), ("beta", 1), ("gamma", 1)]

    # --- relaxation: m_used is the max m with >= k docs matching >= m
    for k in (1, 5, 12, 25):
        ids, scores, m_used = relaxed_bm25_scores_f64(r, kws, k=k)
        for m in range(3, 0, -1):
            if len(msm_bm25_scores_f64(r, kws, min_should_match=m)[0]) >= k:
                assert m_used == m
                break
        else:
            assert m_used == 1
        mids, mscores = msm_bm25_scores_f64(r, kws, min_should_match=m_used)
        assert ids.tolist() == mids.tolist()
        assert scores.tolist() == mscores.tolist()

    # --- pagination: walking 3-row cursor pages reproduces the ranking
    full_docs, full_m = bm25_search_after_f64(r, kws, cursor=None, k=1000)
    walked_docs, cursor = [], None
    while True:
        d, m = bm25_search_after_f64(r, kws, cursor=cursor, k=3)
        if len(d) == 0:
            break
        walked_docs.extend(d.tolist())
        cursor = (int(m[-1]), int(d[-1]))
    assert walked_docs == full_docs.tolist()

    # --- field sort: OR matches ordered by n_chars desc, doc asc
    ds = ray.data.from_arrow(tbl)
    out = sort_matches_by_field(r, kws, ds, "n_chars", k=5).to_pandas()
    matched = set()
    for t, _q in kws:
        tp = r.postings(t)
        if tp is not None:
            matched |= {int(r.doc_names[d]) for d in tp.arrays()[0]}
    exp = sorted(((i, len(texts[i])) for i in matched), key=lambda x: (-x[1], x[0]))[:5]
    assert list(zip(out["doc_id"], out["n_chars"])) == exp
    with pytest.raises(ValueError):
        relaxed_bm25_scores_f64(r, kws, k=0)
