"""Tombstone deletes (engine/maintenance.py): query-time exclusion with
unchanged survivor scores, MaxScore exactness, idempotent union,
clear, and CLI surface."""

import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow.parquet as pq
import pytest

from conftest import REPO_ROOT
from search_engine_ray.config import BM25Params, BuildConfig, IndexOptions
from search_engine_ray.corpus.pages import write_pages_parquet
from search_engine_ray.engine.build import build_index
from search_engine_ray.engine.index_reader import IndexReader
from search_engine_ray.engine.maintenance import (
    clear_tombstones,
    delete_docs,
    tombstoned_names,
)
from search_engine_ray.engine.search import score_topic

BASE = "/tmp/se_ray_maint"


@pytest.fixture(scope="module")
def index_dir(ray_session):
    shutil.rmtree(BASE, ignore_errors=True)
    corpus = f"{BASE}/corpus"
    write_pages_parquet(corpus, 120, seed=21, n_files=2, row_group_size=64)
    out = f"{BASE}/index"
    build_index(corpus, out, BuildConfig(block_entries=16, frags_per_shard=2), overwrite=True)
    return out


def _kws(index_dir, n=3):
    t = pq.read_table(os.path.join(index_dir, "terms.parquet"))
    order = np.argsort(-np.asarray(t["df"]))[:n]
    return [(t["term"][int(i)].as_py(), 1) for i in order]


def test_delete_excludes_and_keeps_scores(index_dir):
    kws = _kws(index_dir)
    r0 = IndexReader(index_dir)
    assert r0.deleted_mask() is None
    base_ids, base_scores = score_topic(r0, kws, scorer="bm25", k=50, method="taat")
    assert len(base_ids) >= 10

    work = f"{BASE}/idx_del"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(index_dir, work)
    victims = [str(r0.doc_names[d]) for d in base_ids[:2]]
    assert delete_docs(work, victims) == 2
    r = IndexReader(work)
    mask = r.deleted_mask()
    assert mask is not None and mask.sum() == 2

    for scorer in ("bm25", "tfidf", "bm25adpt"):
        b_ids, b_scores = score_topic(r0, kws, scorer=scorer, k=50, method="taat")
        d_ids, d_scores = score_topic(r, kws, scorer=scorer, k=50)
        names_b = [str(r0.doc_names[i]) for i in b_ids]
        names_d = [str(r.doc_names[i]) for i in d_ids]
        # tombstoned docs gone; survivor order and scores unchanged
        assert set(names_d).isdisjoint(victims)
        exp = [(n, s) for n, s in zip(names_b, b_scores) if n not in victims][:50]
        assert list(zip(names_d, d_scores))[: len(exp)] == exp


F64_OPTS = IndexOptions(stemming=False)
F64_KWS = [("alpha", 1), ("beta", 1), ("gamma", 2)]


@pytest.fixture(scope="module")
def f64_pair(ray_session, tmp_path_factory):
    """A clean index and a copy with the query's top BM25 doc, its top
    TF-IDF doc and its best doc matching every term and the phrase
    "alpha beta" tombstoned, over one corpus whose numeric names double
    as MaxP chunk keys (doc * 1e6 + chunk 0), plus the positional
    sidecar, champion lists (m >= every df, so exact) and the docs table
    PRF reads."""
    from types import SimpleNamespace

    import pyarrow as pa
    import ray.data

    from search_engine_ray.engine.champions import build_champion_lists
    from search_engine_ray.engine.positions import build_position_index, phrase_search
    from search_engine_ray.pipelines import bm25_scores_f64, tfidf_scores_f64

    root = str(tmp_path_factory.mktemp("f64"))
    rng = np.random.default_rng(11)
    vocab = np.array(["alpha", "beta", "gamma", "delta", "omega", "kappa"])
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(3, 14)), p=[0.25, 0.2, 0.15, 0.15, 0.15, 0.1]))
        for _ in range(60)
    ]
    os.makedirs(f"{root}/corpus")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(np.arange(60, dtype=np.int64) * 1_000_000),
            "text": pa.array(texts),
        }),
        f"{root}/corpus/docs.parquet",
    )
    clean, tomb = f"{root}/clean", f"{root}/tomb"
    build_index(
        f"{root}/corpus", clean, BuildConfig(options=F64_OPTS, block_entries=16),
        source_column="text", name_column="doc_id", overwrite=True,
    )
    build_position_index(
        f"{root}/corpus", f"{root}/pos", F64_OPTS, source_column="text", name_column="doc_id"
    )
    build_champion_lists(clean, f"{root}/champ", m=128)
    r0 = IndexReader(clean)
    ids0, _ = bm25_scores_f64(r0, F64_KWS)
    phrased = _ords(r0, phrase_search(f"{root}/pos", ["alpha", "beta"], options=F64_OPTS)["doc_id"].to_pylist())
    matched = _matched(r0)
    full = [d for d in ids0 if matched[d] == len(F64_KWS) and d in phrased]
    victim_ords = {ids0[0], tfidf_scores_f64(r0, F64_KWS)[0][0], full[0]}
    victims = [str(r0.doc_names[d]) for d in victim_ords]
    shutil.copytree(clean, tomb)
    delete_docs(tomb, victims)
    r = IndexReader(tomb)
    dead = np.flatnonzero(r.deleted_mask())
    assert sorted(str(r.doc_names[d]) for d in dead) == sorted(victims)
    return SimpleNamespace(
        r0=r0, r=r, dead=dead, pos=f"{root}/pos", champ=f"{root}/champ",
        docs_ds=ray.data.read_parquet(f"{root}/corpus"),
        allowed=rng.random(60) < 0.7, boost=rng.random(60) * 2,
        prior=rng.integers(0, 9, 60).astype(np.float64),
    )


def _ords(r, names):
    return np.asarray([r.doc_id_of(str(x)) for x in names], dtype=np.int64)


def _f64_runners():
    from search_engine_ray import pipelines as pl
    from search_engine_ray.engine.champions import champion_topk
    from search_engine_ray.engine.fielded import bm25f_scores_f64

    terms = [t for t, _ in F64_KWS]

    def maxp(agg):
        def run(c, r):
            docs, sc = pl.maxp_bm25_f64(r, F64_KWS, agg=agg)
            return _ords(r, docs * 1_000_000), sc
        return run

    def federated(c, r):
        # the clean copy first, the reader under test second: its global
        # ids minus the offset are its ordinals (the first copy's go < 0)
        ids, sc, names = pl.federated_bm25_f64([c.r0, r], F64_KWS)
        return ids - c.r0.n_docs, sc, names.tolist()

    def search_after(c, r):
        docs, micros = pl.bm25_search_after_f64(r, F64_KWS, k=1000)
        return _ords(r, docs), micros

    return {
        "bm25": lambda c, r: pl.bm25_scores_f64(r, F64_KWS),
        "federated": federated,
        "conjunctive": lambda c, r: pl.conjunctive_bm25_f64(r, F64_KWS[:2]),
        "synonym": lambda c, r: pl.synonym_bm25_f64(r, [(["alpha", "delta"], 1), (["beta"], 2)]),
        "tfidf": lambda c, r: pl.tfidf_scores_f64(r, F64_KWS),
        "filtered": lambda c, r: pl.bm25_filtered_scores_f64(r, F64_KWS, c.allowed),
        "boosted": lambda c, r: pl.bm25_boosted_scores_f64(r, F64_KWS, c.boost),
        "prf": lambda c, r: pl.prf_expanded_bm25_f64(r, c.docs_ds, F64_KWS, F64_OPTS, fb_docs=3, fb_terms=2),
        "lmd": lambda c, r: pl.lmd_scores_f64(r, F64_KWS),
        "lmjm": lambda c, r: pl.lmjm_scores_f64(r, F64_KWS),
        "pivoted": lambda c, r: pl.pivoted_scores_f64(r, F64_KWS),
        "pl2": lambda c, r: pl.pl2_scores_f64(r, F64_KWS),
        "cascade": lambda c, r: pl.cascade_scores_f64(r, F64_KWS, n_first=5),
        "msm": lambda c, r: pl.msm_bm25_scores_f64(r, F64_KWS, min_should_match=2),
        "relaxed": lambda c, r: pl.relaxed_bm25_scores_f64(r, F64_KWS, k=_relax_k(c)),
        "search_after": search_after,
        "prior_boosted": lambda c, r: pl.prior_boosted_bm25_f64(r, F64_KWS, c.prior),
        "maxp_max": maxp("max"),
        "maxp_sum": maxp("sum"),
        "maxp_first": maxp("first"),
        "phrase": lambda c, r: pl.phrase_bm25_f64(r, c.pos, ["alpha", "beta"], options=F64_OPTS),
        "bm25plus": lambda c, r: pl.bm25plus_scores_f64(r, F64_KWS),
        "proximity": lambda c, r: pl.bm25_proximity_boosted_f64(r, c.pos, F64_KWS, options=F64_OPTS),
        "sdm": lambda c, r: pl.sdm_scores_f64(r, c.pos, terms, options=F64_OPTS),
        "champion_topk": lambda c, r: champion_topk(c.champ, r, F64_KWS, k=r.n_docs),
        # two aligned "fields" over one index: each field's mask applies
        "bm25f": lambda c, r: bm25f_scores_f64([(r, 2.0, 0.5), (r, 1.0, 0.75)], F64_KWS),
    }


def _matched(r0):
    """Per-doc count of distinct query terms, from the clean postings."""
    m = np.zeros(r0.n_docs, dtype=np.int64)
    for t, _ in F64_KWS:
        m[r0.postings(t).arrays()[0]] += 1
    return m


def _relax_k(c):
    # k = the clean all-terms match count: the dead docs that match every
    # term push the live count below k, so the ladder must step down
    return int((_matched(c.r0) == len(F64_KWS)).sum())


def _live(c, ids, *rest):
    keep = ~np.isin(ids, c.dead)
    return (ids[keep],) + tuple(x[keep] for x in rest)


def _expected(c, name, run):
    """The clean copy's result with the dead ordinals removed; where a
    first stage picks docs (relaxed's ladder, cascade's cut, PRF's
    feedback set) it picks among live docs."""
    from search_engine_ray import pipelines as pl
    from search_engine_ray.engine.prf import feedback_terms

    if name == "relaxed":
        live = np.ones(c.r0.n_docs, dtype=bool)
        live[c.dead] = False
        m = _matched(c.r0)[live]
        k = _relax_k(c)
        m_used = max((j for j in range(1, len(F64_KWS) + 1) if (m >= j).sum() >= k), default=1)
        return _live(c, *pl.msm_bm25_scores_f64(c.r0, F64_KWS, min_should_match=m_used)) + (m_used,)
    if name == "cascade":
        ids_t, sc_t = _live(c, *pl.tfidf_scores_f64(c.r0, F64_KWS))
        names = np.asarray([int(c.r0.doc_names[d]) for d in ids_t])
        allowed = np.zeros(c.r0.n_docs, dtype=bool)
        allowed[ids_t[np.lexsort((names, -sc_t))[:5]]] = True
        return _live(c, *pl.bm25_filtered_scores_f64(c.r0, F64_KWS, allowed))
    if name == "prf":
        ids0, _ = _live(c, *pl.bm25_scores_f64(c.r0, F64_KWS))
        fb = [str(c.r0.doc_names[d]) for d in ids0[:3]]
        exp = feedback_terms(
            c.docs_ds, fb, F64_OPTS, c.r0._df, c.r0.n_docs,
            exclude={t for t, _ in F64_KWS}, fb_terms=2,
        )
        expanded = F64_KWS + [(t, 1) for t, _ in exp]
        return _live(c, *pl.bm25_scores_f64(c.r0, expanded)) + ([t for t, _ in exp],)
    ids, sc, *extra = run(c, c.r0)
    return _live(c, ids, sc) + tuple(extra)


@pytest.mark.parametrize("name", sorted(_f64_runners()))
def test_f64_scorers_honor_tombstones(f64_pair, name):
    """Every float64 scorer in pipelines.py, plus champion_topk and BM25F: on the
    tombstoned copy the result is the clean copy's with the dead docs
    removed — same order, same float64 bits (statistics stay
    corpus-wide), same extra outputs."""
    c = f64_pair
    run = _f64_runners()[name]
    got = run(c, c.r)
    want = _expected(c, name, run)
    assert len(want[0]) > 0, "the query must rank something on the live docs"
    assert not set(got[0].tolist()) & set(c.dead.tolist())
    assert got[0].tolist() == want[0].tolist()
    assert got[1].dtype == want[1].dtype
    assert got[1].tobytes() == want[1].tobytes()
    assert list(got[2:]) == list(want[2:])


def test_cli_f64_queries_drop_tombstoned_doc(f64_pair, capsys, tmp_path):
    """query --relax / --after / --sdm-positions on an index whose top BM25
    doc is tombstoned never print that doc, and every printed doc keeps
    the score it has on the clean index."""
    import json

    from search_engine_ray.cli import main
    from search_engine_ray.pipelines import bm25_scores_f64

    c = f64_pair
    clean = c.r0.index_dir
    tomb = str(tmp_path / "tomb1")
    shutil.copytree(clean, tomb)
    victim = str(c.r0.doc_names[bm25_scores_f64(c.r0, F64_KWS)[0][0]])
    delete_docs(tomb, [victim])
    q = "alpha beta gamma gamma"

    def run(idx, *args):
        assert main(["query", idx, q, *args]) == 0
        rows = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
        rows = [x for x in rows if "doc" in x]
        return [(str(x["doc"]), x.get("score", x.get("score_micros"))) for x in rows]

    for args in (["--relax"], ["--after=99999999999,-1"], ["--sdm-positions", c.pos]):
        before = run(clean, *args, "--k", "1000")
        after = run(tomb, *args, "--k", "1000")
        assert victim in dict(before), args
        assert after == [row for row in before if row[0] != victim], args


@pytest.mark.parametrize("scorer", ["lmd", "lmjm", "bm25plus", "pivoted", "pl2"])
def test_cli_f64_scorers_on_tombstoned_index(f64_pair, capsys, scorer):
    """query --scorer lmd|lmjm|bm25plus|pivoted|pl2 on the tombstoned copy
    exits 0 and prints the clean index's ranking minus the dead docs, each
    with its clean-index score; --k and --filter-expr cut that ranking."""
    import json

    from search_engine_ray.cli import main

    c = f64_pair
    dead = {str(c.r.doc_names[d]) for d in c.dead}
    q = "alpha beta gamma gamma"

    def run(idx, *args):
        assert main(["query", idx, q, "--scorer", scorer, *args]) == 0
        rows = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
        return [(str(x["doc"]), x["score"]) for x in rows if "doc" in x]

    clean = run(c.r0.index_dir, "--k", "1000")
    assert dead & {d for d, _ in clean}
    got = run(c.r.index_dir, "--k", "1000")
    assert got == [row for row in clean if row[0] not in dead]
    assert run(c.r.index_dir, "--k", "2") == got[:2]
    alpha = {str(c.r0.doc_names[d]) for d in c.r0.postings("alpha").arrays()[0]}
    filtered = run(c.r.index_dir, "--k", "1000", "--filter-expr", "alpha")
    assert filtered == [row for row in got if row[0] in alpha]


def test_maxscore_exact_under_tombstones(index_dir):
    """MaxScore with tombstones is EXACT: dead docs dropped at window eval,
    bounds stay conservative — bit-identical to TAAT with the same mask
    at every k, for bm25 and tfidf."""
    kws = _kws(index_dir)
    work = f"{BASE}/idx_maxscore"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(index_dir, work)
    r0 = IndexReader(index_dir)
    base_ids, _ = score_topic(r0, kws, scorer="bm25", k=20, method="taat")
    victims = [str(r0.doc_names[d]) for d in base_ids[:3]]
    delete_docs(work, victims)
    r = IndexReader(work)
    for scorer in ("bm25", "tfidf"):
        for k in (1, 3, 20, 1000):
            m_ids, m_scores = score_topic(r, kws, scorer=scorer, k=k, method="maxscore")
            t_ids, t_scores = score_topic(r, kws, scorer=scorer, k=k, method="taat")
            assert m_ids.tolist() == t_ids.tolist(), (scorer, k)
            np.testing.assert_array_equal(m_scores, t_scores)
            assert not {str(r.doc_names[d]) for d in m_ids} & set(victims)
    # auto also excludes
    a_ids, a_scores = score_topic(r, kws, scorer="bm25", k=20, method="auto")
    t_ids, t_scores = score_topic(r, kws, scorer="bm25", k=20, method="taat")
    assert a_ids.tolist() == t_ids.tolist()
    np.testing.assert_array_equal(a_scores, t_scores)


def test_delete_union_clear_and_errors(index_dir):
    work = f"{BASE}/idx_union"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(index_dir, work)
    assert tombstoned_names(work) == []
    assert delete_docs(work, ["b", "a"]) == 2
    assert delete_docs(work, ["a", "c"]) == 3  # idempotent union
    assert tombstoned_names(work) == ["a", "b", "c"]
    # unresolvable names don't break the reader mask (none match -> None)
    assert IndexReader(work).deleted_mask() is None
    assert clear_tombstones(work) == 3
    assert tombstoned_names(work) == []
    with pytest.raises(FileNotFoundError):
        delete_docs(f"{BASE}/not_an_index", ["x"])


def test_delete_cli(index_dir):
    work = f"{BASE}/idx_cli"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(index_dir, work)
    env = dict(os.environ, PYTHONPATH=REPO_ROOT)
    out = subprocess.run(
        [sys.executable, "-m", "search_engine_ray", "delete", work, "docA", "docB"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert out.returncode == 0 and '"n_tombstoned": 2' in out.stdout
    out = subprocess.run(
        [sys.executable, "-m", "search_engine_ray", "delete", work, "--clear"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert out.returncode == 0 and '"cleared": 2' in out.stdout


def test_sharded_search_respects_tombstones(index_dir, ray_session):
    from search_engine_ray.engine.sharded_search import search_topics_sharded

    kws = _kws(index_dir)
    work = f"{BASE}/idx_shard"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(index_dir, work)
    r0 = IndexReader(index_dir)
    base_ids, _ = score_topic(r0, kws, scorer="bm25", k=20, method="taat")
    victims = [str(r0.doc_names[d]) for d in base_ids[:2]]
    delete_docs(work, victims)
    r = IndexReader(work)
    topics = [(1, kws)]
    for scorer in ("bm25", "tfidf", "bm25adpt"):
        sharded = search_topics_sharded(work, topics, scorer=scorer, k=20).to_pandas()
        local_ids, local_scores = score_topic(r, kws, scorer=scorer, k=20)
        # bit-identical to whole-index TAAT under the same tombstones
        assert sharded["doc_id"].tolist() == local_ids.tolist()
        np.testing.assert_array_equal(
            sharded["score"].to_numpy(), local_scores.astype(np.float32)
        )
        assert set(str(r.doc_names[d]) for d in sharded["doc_id"]).isdisjoint(victims)
    # per-shard MaxScore pruning composes with tombstones the same way
    pruned = search_topics_sharded(work, topics, scorer="bm25", k=20, method="maxscore").to_pandas()
    local_ids, local_scores = score_topic(r, kws, scorer="bm25", k=20)
    assert pruned["doc_id"].tolist() == local_ids.tolist()
    np.testing.assert_array_equal(
        pruned["score"].to_numpy(), local_scores.astype(np.float32)
    )


def test_compact_equals_fresh_build(index_dir, ray_session):
    """Compaction == fresh build over the retained corpus: identical
    stats, terms table, decoded per-term postings, and bit-identical
    rankings; MaxScore is valid again afterwards."""
    import pyarrow as pa

    from search_engine_ray.engine.maintenance import compact_index

    work = f"{BASE}/idx_compact_src"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(index_dir, work)
    r0 = IndexReader(index_dir)
    # delete first, last, and two mid docs (by ordinal) for edge coverage
    victims_ord = [0, 5, 57, r0.n_docs - 1]
    victims = [str(r0.doc_names[i]) for i in victims_ord]
    delete_docs(work, victims + ["not-a-doc"])

    out = f"{BASE}/idx_compacted"
    shutil.rmtree(out, ignore_errors=True)
    stats = compact_index(work, out)
    assert stats["n_docs"] == r0.n_docs - 4
    assert stats["n_compacted_out"] == 4

    # fresh build over the retained corpus (same row order)
    import pyarrow.dataset as pads

    corpus_tbl = pads.dataset(f"{BASE}/corpus").to_table()
    keep = [n not in set(victims) for n in corpus_tbl["url"].to_pylist()]
    retained = corpus_tbl.filter(pa.array(keep))
    fresh_corpus = f"{BASE}/corpus_retained"
    shutil.rmtree(fresh_corpus, ignore_errors=True)
    os.makedirs(fresh_corpus)
    pq.write_table(retained, f"{fresh_corpus}/pages.parquet", row_group_size=64)
    fresh = f"{BASE}/idx_fresh"
    build_index(
        fresh_corpus, fresh,
        BuildConfig(block_entries=16, frags_per_shard=2), overwrite=True,
    )

    rc, rf = IndexReader(out), IndexReader(fresh)
    assert rc.n_docs == rf.n_docs
    assert rc.avgdl == rf.avgdl
    assert rc.doc_names.tolist() == rf.doc_names.tolist()
    assert rc.doc_lens.tolist() == rf.doc_lens.tolist()
    tc = pq.read_table(os.path.join(out, "terms.parquet"))
    tf_ = pq.read_table(os.path.join(fresh, "terms.parquet"))
    assert tc.equals(tf_)
    # decoded postings identical per term
    for term in tc["term"].to_pylist():
        pc_, pf_ = rc.postings(term), rf.postings(term)
        ic, tc_a, dc = pc_.arrays()
        if_, tf_a, df_ = pf_.arrays()
        np.testing.assert_array_equal(ic, if_)
        np.testing.assert_array_equal(tc_a, tf_a)
        np.testing.assert_array_equal(dc, df_)
        assert pc_.df == pf_.df

    kws = _kws(index_dir)
    for scorer in ("bm25", "tfidf", "bm25adpt"):
        c_ids, c_scores = score_topic(rc, kws, scorer=scorer, k=30, method="taat")
        f_ids, f_scores = score_topic(rf, kws, scorer=scorer, k=30, method="taat")
        np.testing.assert_array_equal(c_ids, f_ids)
        np.testing.assert_array_equal(c_scores, f_scores)
    # tombstones gone; MaxScore valid and identical to TAAT on the compacted index
    assert rc.deleted_mask() is None
    p_ids, p_scores = score_topic(rc, kws, scorer="bm25", k=30, method="maxscore")
    t_ids, t_scores = score_topic(rc, kws, scorer="bm25", k=30, method="taat")
    np.testing.assert_array_equal(p_ids, t_ids)
    np.testing.assert_array_equal(p_scores, t_scores)


def test_compact_noop_without_tombstones(index_dir, ray_session):
    from search_engine_ray.engine.maintenance import compact_index

    out = f"{BASE}/idx_compact_noop"
    shutil.rmtree(out, ignore_errors=True)
    stats = compact_index(index_dir, out)
    r0, rc = IndexReader(index_dir), IndexReader(out)
    assert stats["n_compacted_out"] == 0
    assert rc.n_docs == r0.n_docs and rc.avgdl == r0.avgdl
    kws = _kws(index_dir)
    a, sa = score_topic(r0, kws, scorer="bm25", k=20, method="taat")
    c, sc = score_topic(rc, kws, scorer="bm25", k=20, method="taat")
    np.testing.assert_array_equal(a, c)
    np.testing.assert_array_equal(sa, sc)


def test_merge_indexes_equals_full_build(index_dir, ray_session):
    """merge(A, B) == fresh build over the concatenated corpus: stats,
    df, decoded per-term postings, and bit-identical scores for all
    three scorers; MaxScore valid on the merged index."""
    import pyarrow as pa
    import pyarrow.dataset as pads

    from search_engine_ray.engine.maintenance import merge_indexes

    corpus_tbl = pads.dataset(f"{BASE}/corpus").to_table()
    half = corpus_tbl.num_rows // 2
    cfg = BuildConfig(block_entries=16, frags_per_shard=2)
    dirs = {}
    for name, tbl in (("a", corpus_tbl.slice(0, half)), ("b", corpus_tbl.slice(half))):
        cdir = f"{BASE}/corpus_{name}"
        shutil.rmtree(cdir, ignore_errors=True)
        os.makedirs(cdir)
        pq.write_table(tbl, f"{cdir}/pages.parquet", row_group_size=32)
        idir = f"{BASE}/index_{name}"
        build_index(cdir, idir, cfg, overwrite=True)
        dirs[name] = idir

    out = f"{BASE}/index_merged"
    shutil.rmtree(out, ignore_errors=True)
    stats = merge_indexes(dirs["a"], dirs["b"], out)

    rm_, rf = IndexReader(out), IndexReader(index_dir)  # index_dir = full build
    assert rm_.n_docs == rf.n_docs
    assert rm_.avgdl == rf.avgdl
    assert stats["sum_dl"] == rf.stats["sum_dl"]
    assert rm_.doc_names.tolist() == rf.doc_names.tolist()
    assert rm_.doc_lens.tolist() == rf.doc_lens.tolist()
    tm = pq.read_table(os.path.join(out, "terms.parquet"))
    tf_ = pq.read_table(os.path.join(index_dir, "terms.parquet"))
    assert tm.equals(tf_)
    for term in tm["term"].to_pylist():
        pm_, pf_ = rm_.postings(term), rf.postings(term)
        for x, y in zip(pm_.arrays(), pf_.arrays()):
            np.testing.assert_array_equal(x, y)
        assert pm_.df == pf_.df

    kws = _kws(index_dir)
    for scorer in ("bm25", "tfidf", "bm25adpt"):
        m_ids, m_scores = score_topic(rm_, kws, scorer=scorer, k=30, method="taat")
        f_ids, f_scores = score_topic(rf, kws, scorer=scorer, k=30, method="taat")
        np.testing.assert_array_equal(m_ids, f_ids)
        np.testing.assert_array_equal(m_scores, f_scores)
    p_ids, p_scores = score_topic(rm_, kws, scorer="bm25", k=30, method="maxscore")
    t_ids, t_scores = score_topic(rm_, kws, scorer="bm25", k=30, method="taat")
    np.testing.assert_array_equal(p_ids, t_ids)
    np.testing.assert_array_equal(p_scores, t_scores)


def test_merge_indexes_rejects_mismatched_options(index_dir, ray_session):
    from search_engine_ray.config import IndexOptions
    from search_engine_ray.engine.maintenance import merge_indexes

    other = f"{BASE}/index_nostem"
    build_index(
        f"{BASE}/corpus", other,
        BuildConfig(block_entries=16, frags_per_shard=2, options=IndexOptions(stemming=False)),
        overwrite=True,
    )
    with pytest.raises(ValueError, match="options"):
        merge_indexes(index_dir, other, f"{BASE}/index_bad")


def test_merge_indexes_carries_tombstones(index_dir, ray_session):
    from search_engine_ray.engine.maintenance import merge_indexes

    a = f"{BASE}/idx_ma"
    b = f"{BASE}/idx_mb"
    for d in (a, b):
        shutil.rmtree(d, ignore_errors=True)
        shutil.copytree(index_dir, d)
    r0 = IndexReader(index_dir)
    delete_docs(a, [str(r0.doc_names[0])])
    delete_docs(b, [str(r0.doc_names[1])])
    out = f"{BASE}/idx_mab"
    shutil.rmtree(out, ignore_errors=True)
    merge_indexes(a, b, out)
    assert tombstoned_names(out) == sorted(
        [str(r0.doc_names[0]), str(r0.doc_names[1])]
    )
    # both names hidden from results (both copies of each doc)
    rm_ = IndexReader(out)
    assert rm_.deleted_mask().sum() == 4


def test_fsck_healthy_and_corrupted(index_dir, ray_session):
    import glob

    import pyarrow as pa

    from search_engine_ray.engine.maintenance import fsck_index

    rep = fsck_index(index_dir)
    assert rep["violations"] == 0 and rep["df_mismatches"] == 0
    assert rep["docs_dense"] and rep["n_postings"] == rep["n_postings_stats"]

    # corrupt one block's first_doc -> metadata check must fire
    work = f"{BASE}/idx_fsck"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(index_dir, work)
    f = sorted(glob.glob(f"{work}/postings/*.parquet"))[0]
    tbl = pq.read_table(f)
    fd = tbl["first_doc"].to_pylist()
    fd[0] += 1
    tbl = tbl.set_column(
        tbl.schema.get_field_index("first_doc"), "first_doc", pa.array(fd, pa.int64())
    )
    pq.write_table(tbl, f)
    rep2 = fsck_index(work)
    assert rep2["violations"] > 0


def _tree_hashes(index_dir):
    """{file name: sha256} of every file under ``index_dir``/postings."""
    import hashlib

    post = os.path.join(index_dir, "postings")
    return {
        n: hashlib.sha256(open(os.path.join(post, n), "rb").read()).hexdigest()
        for n in sorted(os.listdir(post))
    }


def test_postings_layout_is_deterministic(index_dir, ray_session, tmp_path):
    """Two builds of one corpus, two compactions of one tombstoned index
    and two merges give byte-identical postings trees, one
    sSSSSS-bBBBBB.parquet file per (shard, bucket)."""
    import pyarrow.dataset as pads

    from search_engine_ray.engine.maintenance import compact_index, merge_indexes
    from search_engine_ray.engine.merge import parse_postings_name

    cfg = BuildConfig(block_entries=16, frags_per_shard=2)
    rebuilt = str(tmp_path / "rebuilt")
    build_index(f"{BASE}/corpus", rebuilt, cfg)
    built = _tree_hashes(index_dir)
    assert _tree_hashes(rebuilt) == built
    assert len(built) > 1 and all(parse_postings_name(n) for n in built)

    tomb = str(tmp_path / "tomb")
    shutil.copytree(index_dir, tomb)
    names = pads.dataset(f"{tomb}/docs").to_table(columns=["name"])["name"].to_pylist()
    delete_docs(tomb, names[::7])
    runs = []
    for k in range(2):
        compact_index(tomb, str(tmp_path / f"compact{k}"))
        merge_indexes(index_dir, tomb, str(tmp_path / f"merged{k}"))
        runs.append((_tree_hashes(str(tmp_path / f"compact{k}")),
                     _tree_hashes(str(tmp_path / f"merged{k}"))))
    assert runs[0] == runs[1]
    assert set(runs[0][0]) == set(built)  # compact keeps every file name


def test_unshard_addressed_postings_refused(index_dir, ray_session, tmp_path):
    """A postings file named otherwise (an index from before the
    shard-addressed layout) is refused with "rebuild" by sharded search,
    compact, merge and prune, before any output is written."""
    from search_engine_ray.engine.maintenance import (
        compact_index,
        merge_indexes,
        prune_terms,
    )
    from search_engine_ray.engine.sharded_search import search_topics_sharded

    old = str(tmp_path / "old")
    shutil.copytree(index_dir, old)
    first = sorted(os.listdir(f"{old}/postings"))[0]
    os.rename(f"{old}/postings/{first}", f"{old}/postings/part-0.parquet")
    for call in (
        lambda: search_topics_sharded(old, [(1, _kws(index_dir))], k=5),
        lambda: compact_index(old, str(tmp_path / "out")),
        lambda: merge_indexes(index_dir, old, str(tmp_path / "out")),
        lambda: merge_indexes(old, index_dir, str(tmp_path / "out")),
        lambda: prune_terms(old, str(tmp_path / "out"), df_threshold=10),
    ):
        with pytest.raises(ValueError, match="part-0.parquet.*rebuild"):
            call()
        assert not os.path.exists(tmp_path / "out")


def test_fsck_checks_postings_layout(index_dir, ray_session, tmp_path):
    """fsck counts a postings file whose name does not parse, and a row
    whose shard differs from its file name's shard."""
    import pyarrow as pa

    from search_engine_ray.engine.maintenance import fsck_index
    from search_engine_ray.engine.merge import parse_postings_name, postings_file_name

    renamed = str(tmp_path / "renamed")
    shutil.copytree(index_dir, renamed)
    first = sorted(os.listdir(f"{renamed}/postings"))[0]
    os.rename(f"{renamed}/postings/{first}", f"{renamed}/postings/part-0.parquet")
    rep = fsck_index(renamed)
    assert rep["bad_file_names"] == 1 and rep["violations"] == 1

    moved = str(tmp_path / "moved")
    shutil.copytree(index_dir, moved)
    post = f"{moved}/postings"
    src = sorted(os.listdir(post))[0]
    shard, bucket = parse_postings_name(src)
    dst = f"{post}/{postings_file_name(shard + 1, bucket)}"  # made if absent
    a = pq.read_table(f"{post}/{src}")
    held = [pq.read_table(dst)] if os.path.exists(dst) else []
    pq.write_table(a.slice(1), f"{post}/{src}")
    pq.write_table(pa.concat_tables(held + [a.slice(0, 1)]), dst)
    rep = fsck_index(moved)
    assert rep["bad_file_names"] == 0 and rep["violations"] == 1


def test_prune_terms(index_dir, ray_session):
    """Pruned terms vanish; every kept term's postings and scoring are
    bit-identical to the unpruned index; queries containing a pruned
    term silently skip it (absent-term semantics)."""
    from search_engine_ray.engine.maintenance import prune_terms

    r0 = IndexReader(index_dir)
    t = pq.read_table(os.path.join(index_dir, "terms.parquet"))
    order = np.argsort(-np.asarray(t["df"]))
    hot = [t["term"][int(i)].as_py() for i in order[:2]]
    threshold = int(t["df"][int(order[2])].as_py())  # drops exactly the top-2

    out = f"{BASE}/idx_pruned"
    shutil.rmtree(out, ignore_errors=True)
    stats = prune_terms(index_dir, out, df_threshold=threshold)
    assert stats["n_pruned_terms"] == 2
    r = IndexReader(out)
    assert r.n_docs == r0.n_docs and r.avgdl == r0.avgdl
    for term in hot:
        assert r.postings(term) is None
    # kept postings identical
    kept = [t["term"][int(i)].as_py() for i in order[2:12]]
    for term in kept:
        for x, y in zip(r.postings(term).arrays(), r0.postings(term).arrays()):
            np.testing.assert_array_equal(x, y)
    # mixed query: pruned term skipped == querying original without it
    kws_mixed = [(hot[0], 1)] + [(k, 1) for k in kept[:2]]
    p_ids, p_scores = score_topic(r, kws_mixed, scorer="bm25", k=20, method="taat")
    o_ids, o_scores = score_topic(
        r0, [(k, 1) for k in kept[:2]], scorer="bm25", k=20, method="taat"
    )
    np.testing.assert_array_equal(p_ids, o_ids)
    np.testing.assert_array_equal(p_scores, o_scores)
    # explicit terms arg unions with the threshold
    out2 = f"{BASE}/idx_pruned2"
    shutil.rmtree(out2, ignore_errors=True)
    stats2 = prune_terms(index_dir, out2, terms=[kept[0]])
    assert stats2["n_pruned_terms"] == 1
    assert IndexReader(out2).postings(kept[0]) is None


def test_tombstones_cover_all_query_surfaces(index_dir, ray_session):
    """Boolean, ranked AND, MLT, and custom scorers also honor tombstones:
    deleted docs never appear in boolean or ranked-AND results, MLT drops
    them, and a custom scorer (whose registry signature has no exclude
    mask) fails loud."""
    from search_engine_ray.engine.boolean import boolean_and, boolean_or
    from search_engine_ray.engine.scoring import conjunctive_bm25
    from search_engine_ray.engine.mlt import more_like_this
    from search_engine_ray.engine.search import register_scorer, score_topic

    kws = _kws(index_dir)
    terms = [t for t, _ in kws]
    work = f"{BASE}/idx_surfaces"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(index_dir, work)
    r0 = IndexReader(index_dir)
    base_or = boolean_or(r0, terms)
    victims_ord = base_or[:2].tolist()
    delete_docs(work, [str(r0.doc_names[d]) for d in victims_ord])
    r = IndexReader(work)

    got_or = boolean_or(r, terms)
    assert set(got_or.tolist()) == set(base_or.tolist()) - set(victims_ord)
    got_and = boolean_and(r, terms[:2])
    assert not set(got_and.tolist()) & set(victims_ord)
    c_ids, _ = conjunctive_bm25(r, kws[:2], BM25Params(), k=1000)
    assert len(c_ids) and not set(c_ids.tolist()) & set(victims_ord)

    _kws_txt = " ".join(terms)
    _, mlt_ids, _ = more_like_this(r, work, _kws_txt, IndexOptions(), k=50)
    assert not set(mlt_ids.tolist()) & set(victims_ord)

    register_scorer("t_const", lambda rd, kw, p, k: (np.arange(3), np.ones(3, np.float32)))
    try:
        with pytest.raises(ValueError, match="custom scorer"):
            score_topic(r, kws, scorer="t_const", k=5)
        # fine on an un-tombstoned index
        ids, _ = score_topic(r0, kws, scorer="t_const", k=5)
        assert ids.tolist() == [0, 1, 2]
    finally:
        from search_engine_ray.engine import search as _s

        _s._CUSTOM_SCORERS.pop("t_const", None)


def test_fsck_survives_corrupt_docs_table(index_dir, ray_session):
    """An out-of-range doc_id in the docs table is REPORTED (bad_doc_rows,
    violations > 0), not an IndexError crash."""
    import glob

    import pyarrow as pa

    from search_engine_ray.engine.maintenance import fsck_index

    work = f"{BASE}/idx_fsck_docs"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(index_dir, work)
    f = sorted(glob.glob(f"{work}/docs/*.parquet"))[0]
    tbl = pq.read_table(f)
    ids = tbl["doc_id"].to_pylist()
    ids[0] = 10_000_000  # way outside [0, n_docs)
    tbl = tbl.set_column(
        tbl.schema.get_field_index("doc_id"), "doc_id", pa.array(ids, pa.int64())
    )
    pq.write_table(tbl, f)
    rep = fsck_index(work)
    assert rep["bad_doc_rows"] == 1 and rep["violations"] >= 1


def test_lifecycle_merge_compact_fsck(index_dir, ray_session):
    """Full maintenance lifecycle: two half-indexes with tombstones ->
    union merge (tombstones carried) -> compaction (duplicate-free here,
    victims physically dropped) -> fsck clean -> scores bit-identical to
    a fresh build over the retained concatenated corpus."""
    import pyarrow as pa
    import pyarrow.dataset as pads

    from search_engine_ray.engine.maintenance import (
        compact_index,
        fsck_index,
        merge_indexes,
    )

    corpus_tbl = pads.dataset(f"{BASE}/corpus").to_table()
    half = corpus_tbl.num_rows // 2
    cfg = BuildConfig(block_entries=16, frags_per_shard=2)
    dirs = {}
    for name, tbl in (("a", corpus_tbl.slice(0, half)), ("b", corpus_tbl.slice(half))):
        cdir = f"{BASE}/lc_corpus_{name}"
        shutil.rmtree(cdir, ignore_errors=True)
        os.makedirs(cdir)
        pq.write_table(tbl, f"{cdir}/pages.parquet", row_group_size=32)
        idir = f"{BASE}/lc_index_{name}"
        build_index(cdir, idir, cfg, overwrite=True)
        dirs[name] = idir
    # tombstone one doc in each half (by its own reader's names)
    victims = []
    for name in ("a", "b"):
        rn = IndexReader(dirs[name])
        victims.append(str(rn.doc_names[1]))
        delete_docs(dirs[name], [victims[-1]])

    merged = f"{BASE}/lc_merged"
    shutil.rmtree(merged, ignore_errors=True)
    merge_indexes(dirs["a"], dirs["b"], merged)
    assert sorted(tombstoned_names(merged)) == sorted(victims)

    compacted = f"{BASE}/lc_compacted"
    shutil.rmtree(compacted, ignore_errors=True)
    stats = compact_index(merged, compacted)
    assert stats["n_compacted_out"] == 2
    rep = fsck_index(compacted)
    assert rep["violations"] == 0

    # fresh build over retained concat corpus
    keep = [u not in set(victims) for u in corpus_tbl["url"].to_pylist()]
    retained = corpus_tbl.filter(pa.array(keep))
    fresh_corpus = f"{BASE}/lc_corpus_retained"
    shutil.rmtree(fresh_corpus, ignore_errors=True)
    os.makedirs(fresh_corpus)
    pq.write_table(retained, f"{fresh_corpus}/pages.parquet", row_group_size=32)
    fresh = f"{BASE}/lc_fresh"
    build_index(fresh_corpus, fresh, cfg, overwrite=True)

    rc, rf = IndexReader(compacted), IndexReader(fresh)
    assert rc.n_docs == rf.n_docs and rc.avgdl == rf.avgdl
    assert rc.doc_names.tolist() == rf.doc_names.tolist()
    kws = _kws(index_dir)
    for scorer in ("bm25", "tfidf", "bm25adpt"):
        c_ids, c_scores = score_topic(rc, kws, scorer=scorer, k=30, method="taat")
        f_ids, f_scores = score_topic(rf, kws, scorer=scorer, k=30, method="taat")
        np.testing.assert_array_equal(c_ids, f_ids)
        np.testing.assert_array_equal(c_scores, f_scores)


def test_upsert_docs(ray_session, tmp_path):
    """Upsert replaces old versions (tombstoned at the pre-append
    watermark) while the re-indexed new versions stay live; plain
    deletes still hide every version; compaction physically drops only
    the dead versions."""
    import pyarrow as pa

    from search_engine_ray.engine.maintenance import (
        compact_index,
        fsck_index,
        read_tombstones,
        upsert_docs,
    )

    corpus = str(tmp_path / "corpus")
    os.makedirs(corpus)
    texts = ["alpha beta", "gamma delta", "epsilon zeta"]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(texts),
            }
        ),
        f"{corpus}/a-docs.parquet",
    )
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(block_entries=4, frags_per_shard=2)
    from search_engine_ray.config import IndexOptions

    cfg = BuildConfig(
        block_entries=4, frags_per_shard=2, options=IndexOptions(stemming=False)
    )
    build_index(
        corpus, idx, cfg, overwrite=True, source_column="text", name_column="doc_id"
    )

    # upsert: doc 1 changes text; doc 3 is new
    upd = str(tmp_path / "update.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 3], pa.int64()),
                "text": pa.array(["omega chi", "alpha omega"]),
            }
        ),
        upd,
    )
    stats = upsert_docs(
        idx, corpus, upd, config=cfg, source_column="text", name_column="doc_id"
    )
    assert stats["n_replaced"] == 1 and stats["n_docs"] == 5  # 3 old + 2 appended
    assert read_tombstones(idx) == {"1": 3}  # bounded at the watermark

    r = IndexReader(idx)
    mask = r.deleted_mask()
    assert mask is not None and mask.sum() == 1
    assert r.doc_names[np.flatnonzero(mask)[0]] == "1"  # the OLD version only
    # old text's term no longer matches doc 1; new text does
    from search_engine_ray.engine.boolean import boolean_or

    gamma_docs = {str(r.doc_names[d]) for d in boolean_or(r, ["gamma"])}
    assert "1" not in gamma_docs
    omega_docs = {str(r.doc_names[d]) for d in boolean_or(r, ["omega"])}
    assert omega_docs == {"1", "3"}

    # rankings only ever see the live version
    kws = [("omega", 1), ("alpha", 1)]
    ids, _ = score_topic(r, kws, scorer="bm25", k=10)
    names = [str(r.doc_names[d]) for d in ids]
    assert names.count("1") == 1 and names.count("3") == 1

    # compact physically drops the dead version; fsck clean
    out = str(tmp_path / "compacted")
    cstats = compact_index(idx, out)
    assert cstats["n_compacted_out"] == 1 and cstats["n_docs"] == 4
    rc = IndexReader(out)
    assert rc.deleted_mask() is None
    assert sorted(rc.doc_names.tolist()) == ["0", "1", "2", "3"]
    assert fsck_index(out)["violations"] == 0
    omega_c = {str(rc.doc_names[d]) for d in boolean_or(rc, ["omega"])}
    assert omega_c == {"1", "3"}
    assert not boolean_or(rc, ["gamma"]).size or "1" not in {
        str(rc.doc_names[d]) for d in boolean_or(rc, ["gamma"])
    }


def test_double_upsert_keeps_only_newest(ray_session, tmp_path):
    """Upserting the same doc twice leaves exactly the newest version
    live (tombstone bounds collapse to the dominating watermark)."""
    import pyarrow as pa

    from search_engine_ray.config import IndexOptions
    from search_engine_ray.engine.boolean import boolean_or
    from search_engine_ray.engine.maintenance import read_tombstones, upsert_docs

    corpus = str(tmp_path / "corpus")
    os.makedirs(corpus)
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["alpha one", "beta two"])}),
        f"{corpus}/a-docs.parquet",
    )
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(block_entries=4, frags_per_shard=2,
                      options=IndexOptions(stemming=False))
    build_index(corpus, idx, cfg, overwrite=True,
                source_column="text", name_column="doc_id")
    for i, text in enumerate(["gamma three", "delta four"]):
        upd = str(tmp_path / f"u{i}.parquet")
        pq.write_table(
            pa.table({"doc_id": pa.array([1], pa.int64()),
                      "text": pa.array([text])}), upd,
        )
        upsert_docs(idx, corpus, upd, config=cfg,
                    source_column="text", name_column="doc_id")
    r = IndexReader(idx)
    assert r.n_docs == 4  # 2 base + 2 upserted versions
    assert read_tombstones(idx) == {"1": 3}  # dominating watermark
    assert r.deleted_mask().sum() == 2  # both old versions dead
    live = {str(r.doc_names[d]) for d in boolean_or(r, ["delta"])}
    assert live == {"1"}
    for dead_term in ("beta", "gamma"):
        assert "1" not in {str(r.doc_names[d]) for d in boolean_or(r, [dead_term])}


def test_upsert_after_plain_delete_revives_name(ray_session, tmp_path):
    """A plain delete leaves a None (everything-dead) tombstone bound;
    a later upsert of the same name must REPLACE that bound with its
    watermark so the re-indexed version is live (round-3 advice:
    union semantics silently kept the None bound and the new version
    stayed hidden forever)."""
    import pyarrow as pa

    from search_engine_ray.config import IndexOptions
    from search_engine_ray.engine.boolean import boolean_or
    from search_engine_ray.engine.maintenance import (
        delete_docs,
        read_tombstones,
        upsert_docs,
    )

    corpus = str(tmp_path / "corpus")
    os.makedirs(corpus)
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["alpha one", "beta two"])}),
        f"{corpus}/a-docs.parquet",
    )
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(block_entries=4, frags_per_shard=2,
                      options=IndexOptions(stemming=False))
    build_index(corpus, idx, cfg, overwrite=True,
                source_column="text", name_column="doc_id")

    delete_docs(idx, ["1"])  # plain delete: every version dead
    assert read_tombstones(idx) == {"1": None}

    upd = str(tmp_path / "u.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array(["gamma three"])}), upd,
    )
    upsert_docs(idx, corpus, upd, config=cfg,
                source_column="text", name_column="doc_id")

    # the watermark bound replaced the None bound
    assert read_tombstones(idx) == {"1": 2}
    r = IndexReader(idx)
    # the NEW version is live and queryable...
    live = {str(r.doc_names[d]) for d in boolean_or(r, ["gamma"])}
    assert live == {"1"}
    # ...and the old version stays dead
    assert "1" not in {str(r.doc_names[d]) for d in boolean_or(r, ["beta"])}
    ids, _ = score_topic(r, [("gamma", 1)], scorer="bm25", k=10)
    assert [str(r.doc_names[d]) for d in ids] == ["1"]


def test_compact_broadcast_is_shard_local(index_dir, ray_session, tmp_path,
                                          monkeypatch):
    """compact_index never ships an O(n_docs) remap: every ray.put made
    during compaction is bounded by the DELETED-id count (per-shard
    slices), not the corpus size (round-3 verdict #5)."""
    import ray as _ray

    from search_engine_ray.engine import maintenance as mnt

    work = f"{BASE}/idx_compact_bcast_src"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(index_dir, work)
    r0 = IndexReader(index_dir)
    victims = [str(r0.doc_names[i]) for i in (3, 11)]
    delete_docs(work, victims)

    put_sizes = []
    real_put = _ray.put

    def spy_put(obj, **kw):
        if isinstance(obj, np.ndarray):
            put_sizes.append(len(obj))
        return real_put(obj, **kw)

    monkeypatch.setattr(_ray, "put", spy_put)
    out = f"{BASE}/idx_compact_bcast_out"
    shutil.rmtree(out, ignore_errors=True)
    stats = mnt.compact_index(work, out)
    assert stats["n_compacted_out"] == 2
    assert put_sizes, "expected per-shard slice puts"
    # every broadcast object holds at most the deleted-id set — nothing
    # proportional to n_docs
    assert max(put_sizes) <= 2, put_sizes
    assert sum(put_sizes) == 2
    # and the result still queries correctly
    r = IndexReader(out)
    assert r.n_docs == r0.n_docs - 2


def test_federated_equals_full_build(index_dir, ray_session):
    """federated_bm25_f64 over two contiguous half-indexes == the full
    build's bm25_scores_f64: every score and every rank bit-identical
    (the query-time alternative to merge_indexes)."""
    import pyarrow.dataset as pads

    from search_engine_ray.pipelines import bm25_scores_f64, federated_bm25_f64

    corpus_tbl = pads.dataset(f"{BASE}/corpus").to_table()
    half = corpus_tbl.num_rows // 2
    cfg = BuildConfig(block_entries=16, frags_per_shard=2)
    readers = []
    for name, tbl in (("fa", corpus_tbl.slice(0, half)), ("fb", corpus_tbl.slice(half))):
        cdir = f"{BASE}/corpus_{name}"
        shutil.rmtree(cdir, ignore_errors=True)
        os.makedirs(cdir)
        pq.write_table(tbl, f"{cdir}/pages.parquet", row_group_size=32)
        idir = f"{BASE}/index_{name}"
        build_index(cdir, idir, cfg, overwrite=True)
        readers.append(IndexReader(idir))

    rf = IndexReader(index_dir)
    kws = _kws(index_dir)
    gids, scores, names = federated_bm25_f64(readers, kws)
    fids, fscores = bm25_scores_f64(rf, kws)
    np.testing.assert_array_equal(scores, fscores)
    assert [names[g] for g in gids] == [rf.doc_names[d] for d in fids]
    with pytest.raises(ValueError):
        federated_bm25_f64([], kws)


def test_champion_lists(index_dir, ray_session):
    """Champion build keeps each term's true top-m contributors; queries
    over them equal exhaustive BM25 in the exact regime and for
    single positive-idf terms with k <= m."""
    from search_engine_ray.engine.champions import (
        build_champion_lists,
        champion_topk,
    )
    from search_engine_ray.pipelines import bm25_scores_f64

    rf = IndexReader(index_dir)
    out = f"{BASE}/champs_big"
    shutil.rmtree(out, ignore_errors=True)
    stats = build_champion_lists(index_dir, out, m=100000)
    assert stats["n_terms"] > 0
    kws = _kws(index_dir)
    ids, scores = champion_topk(out, rf, kws, k=30)
    fids, fscores = bm25_scores_f64(rf, kws)
    np.testing.assert_array_equal(ids, fids[:30])
    np.testing.assert_array_equal(scores, fscores[:30])

    # truncated regime: single positive-idf term, k <= m < df
    t = pq.read_table(os.path.join(index_dir, "terms.parquet"))
    n = rf.n_docs
    pos = [
        (term, df)
        for term, df in zip(t["term"].to_pylist(), t["df"].to_pylist())
        if 6 < df < n / 2
    ]
    assert pos, "fixture corpus must have a positive-idf term with df > 6"
    term = max(pos, key=lambda x: x[1])[0]
    small = f"{BASE}/champs_small"
    shutil.rmtree(small, ignore_errors=True)
    build_champion_lists(index_dir, small, m=6)
    aids, ascores = champion_topk(small, rf, [(term, 1)], k=5)
    eids, escores = bm25_scores_f64(rf, [(term, 1)])
    np.testing.assert_array_equal(aids, eids[:5])
    np.testing.assert_array_equal(ascores, escores[:5])

    # champion rows per term bounded by m
    ct = pq.read_table(os.path.join(small, "champions.parquet"))
    import collections

    cnt = collections.Counter(ct["term"].to_pylist())
    assert max(cnt.values()) <= 6

    with pytest.raises(ValueError):
        build_champion_lists(index_dir, f"{BASE}/champs_bad", m=0)


def test_segment_bloom_gating(index_dir, ray_session):
    """Per-segment term Blooms (engine/segment_bloom.py): gated
    federation is bit-identical to ungated (no false negatives by
    construction), absent terms are answered without probing the
    segment, and a segment with no filter degrades to plain probing."""
    import pyarrow.dataset as pads

    from search_engine_ray.engine.segment_bloom import (
        BloomGatedReader,
        build_term_bloom,
        load_term_bloom,
        probe_terms,
    )
    from search_engine_ray.engine.terms_io import read_terms_table
    from search_engine_ray.pipelines import federated_bm25_f64

    corpus_tbl = pads.dataset(f"{BASE}/corpus").to_table()
    half = corpus_tbl.num_rows // 2
    cfg = BuildConfig(block_entries=16, frags_per_shard=2)
    idirs = []
    for name, tbl in (("ba", corpus_tbl.slice(0, half)), ("bb", corpus_tbl.slice(half))):
        cdir = f"{BASE}/corpus_{name}"
        shutil.rmtree(cdir, ignore_errors=True)
        os.makedirs(cdir)
        pq.write_table(tbl, f"{cdir}/pages.parquet", row_group_size=32)
        idir = f"{BASE}/index_{name}"
        build_index(cdir, idir, cfg, overwrite=True)
        build_term_bloom(idir)
        idirs.append(idir)

    # no false negatives: every indexed term probes maybe-present
    for idir in idirs:
        bloom = load_term_bloom(idir)
        terms = read_terms_table(idir, columns=["term"])["term"].to_pylist()
        assert probe_terms(bloom, terms).all()

    kws = _kws(index_dir) + [("zqzqzqnotaterm", 1)]
    plain = [IndexReader(d) for d in idirs]
    gated = [BloomGatedReader.open(d) for d in idirs]
    gids, gscores, gnames = federated_bm25_f64(gated, kws)
    pids, pscores, pnames = federated_bm25_f64(plain, kws)
    np.testing.assert_array_equal(gscores, pscores)
    np.testing.assert_array_equal(gids, pids)

    # the garbage term was (almost surely) skipped without a probe;
    # check the counter discipline on a guaranteed-negative probe
    g = gated[0]
    before = g.n_probes
    if not probe_terms(load_term_bloom(idirs[0]), ["zqzqzqnotaterm"])[0]:
        assert g.postings("zqzqzqnotaterm") is None
        assert g.n_probes == before and g.n_skipped >= 1

    # real term: probed and identical postings
    term = kws[0][0]
    tp_g = g.postings(term)
    tp_p = plain[0].postings(term)
    assert (tp_g is None) == (tp_p is None)
    if tp_g is not None:
        for a, b in zip(tp_g.arrays(), tp_p.arrays()):
            np.testing.assert_array_equal(a, b)

    # segment without a filter: open() degrades to plain probing
    os.remove(os.path.join(idirs[0], "term_bloom.parquet"))
    ungated = BloomGatedReader.open(idirs[0])
    assert ungated.postings("zqzqzqnotaterm") is None
    assert ungated.postings(term) is not None


def test_refresh_index(ray_session, tmp_path):
    """Crawl refresh: multi-capture batch -> latest per url -> unchanged
    skip -> upsert.  Only the changed + new docs enter the index; the
    no-op recrawl neither grows the index nor kills its live version."""
    import pyarrow as pa

    from search_engine_ray.config import IndexOptions
    from search_engine_ray.engine.maintenance import fsck_index, refresh_index

    corpus = str(tmp_path / "corpus")
    os.makedirs(corpus)
    texts = ["alpha beta", "gamma delta", "epsilon zeta"]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(texts),
            }
        ),
        f"{corpus}/a-docs.parquet",
    )
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(
        block_entries=4, frags_per_shard=2, options=IndexOptions(stemming=False)
    )
    build_index(
        corpus, idx, cfg, overwrite=True, source_column="text", name_column="doc_id"
    )

    # captures: doc 1 recrawled twice (stale + newest CHANGED), doc 2
    # recrawled UNCHANGED, doc 9 brand new
    caps = str(tmp_path / "captures.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 1, 2, 9], pa.int64()),
                "text": pa.array(
                    ["stale version", "omega chi", "epsilon zeta", "alpha omega"]
                ),
                "warc_ts": pa.array([100, 200, 300, 50], pa.int64()),
            }
        ),
        caps,
    )
    stats = refresh_index(
        idx, corpus, caps, config=cfg,
        source_column="text", name_column="doc_id", ts_column="warc_ts",
    )
    assert stats["n_captures"] == 4
    assert stats["n_latest"] == 3  # doc 1 collapsed to its newest capture
    assert stats["n_unchanged"] == 1  # doc 2's recrawl skipped
    assert stats["n_upserts"] == 2 and stats["n_replaced"] == 1
    assert stats["n_docs"] == 5  # 3 originals + changed doc1 + new doc9

    r = IndexReader(idx)
    mask = r.deleted_mask()
    assert mask is not None and int(mask.sum()) == 1  # only old doc 1
    assert fsck_index(idx)["violations"] == 0
    # ranking sees the new version ("omega"), not the stale capture
    from search_engine_ray.pipelines import bm25_scores_f64

    ids, _ = bm25_scores_f64(r, [("omega", 1)])
    ids = ids[~mask[ids]]
    names = {str(r.doc_names[d]) for d in ids}
    assert names == {"1", "9"}
    ids2, _ = bm25_scores_f64(r, [("stale", 1)])
    assert len(ids2[~mask[ids2]]) == 0  # the stale capture never entered
    ids3, _ = bm25_scores_f64(r, [("epsilon", 1)])
    live3 = {str(r.doc_names[d]) for d in ids3[~mask[ids3]]}
    assert live3 == {"2"}  # unchanged doc stayed live, not duplicated

    # idempotence: re-running the same captures is a full no-op
    stats2 = refresh_index(
        idx, corpus, caps, config=cfg,
        source_column="text", name_column="doc_id", ts_column="warc_ts",
    )
    assert stats2["n_upserts"] == 0 and stats2["n_docs"] == 5


def test_refresh_index_same_content_across_urls(ray_session, tmp_path):
    """Identical capture bodies across different urls must not cross-match
    in the latest-pick (review finding: content hash is not row-unique) —
    a stale capture of url A sharing bytes with url B's newest capture
    must still lose to A's newer capture."""
    import pyarrow as pa

    from search_engine_ray.config import IndexOptions
    from search_engine_ray.engine.maintenance import refresh_index

    corpus = str(tmp_path / "corpus")
    os.makedirs(corpus)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(["alpha beta", "gamma delta"]),
            }
        ),
        f"{corpus}/a-docs.parquet",
    )
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(
        block_entries=4, frags_per_shard=2, options=IndexOptions(stemming=False)
    )
    build_index(
        corpus, idx, cfg, overwrite=True, source_column="text", name_column="doc_id"
    )
    caps = str(tmp_path / "captures.parquet")
    # doc 0: stale capture 'shared body' (ts 1) then newer 'omega chi'
    # (ts 2); doc 1: newest capture IS 'shared body' (ts 9) — the same
    # bytes as doc 0's stale one
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 0, 1], pa.int64()),
                "text": pa.array(["shared body", "omega chi", "shared body"]),
                "warc_ts": pa.array([1, 2, 9], pa.int64()),
            }
        ),
        caps,
    )
    stats = refresh_index(
        idx, corpus, caps, config=cfg,
        source_column="text", name_column="doc_id", ts_column="warc_ts",
    )
    assert stats["n_latest"] == 2  # one winner per doc
    assert stats["n_upserts"] == 2 and stats["n_replaced"] == 2
    r = IndexReader(idx)
    mask = r.deleted_mask()
    from search_engine_ray.pipelines import bm25_scores_f64

    ids, _ = bm25_scores_f64(r, [("shared", 1)])
    live = {str(r.doc_names[d]) for d in ids[~mask[ids]]}
    assert live == {"1"}  # doc 0's stale 'shared body' never entered
    ids2, _ = bm25_scores_f64(r, [("omega", 1)])
    assert {str(r.doc_names[d]) for d in ids2[~mask[ids2]]} == {"0"}


def test_refresh_index_empty_captures(ray_session, tmp_path):
    import pyarrow as pa

    from search_engine_ray.config import IndexOptions
    from search_engine_ray.engine.maintenance import refresh_index

    corpus = str(tmp_path / "corpus")
    os.makedirs(corpus)
    pq.write_table(
        pa.table(
            {"doc_id": pa.array([0], pa.int64()), "text": pa.array(["alpha"])}
        ),
        f"{corpus}/a-docs.parquet",
    )
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(
        block_entries=4, frags_per_shard=2, options=IndexOptions(stemming=False)
    )
    build_index(
        corpus, idx, cfg, overwrite=True, source_column="text", name_column="doc_id"
    )
    caps = str(tmp_path / "captures.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "text": pa.array([], pa.string()),
                "warc_ts": pa.array([], pa.int64()),
            }
        ),
        caps,
    )
    stats = refresh_index(
        idx, corpus, caps, config=cfg,
        source_column="text", name_column="doc_id", ts_column="warc_ts",
    )
    assert stats["n_captures"] == 0 and stats["n_upserts"] == 0
    assert stats["n_docs"] == 1
