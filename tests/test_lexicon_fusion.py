"""Lexicon (prefix/wildcard dictionary) and RRF fusion operators."""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from search_engine_ray.config import BuildConfig
from search_engine_ray.corpus.pages import generate_pages_table
from search_engine_ray.engine.fusion import rrf_fuse_lists, rrf_fuse_runs
from search_engine_ray.engine.lexicon import (
    _prefix_upper,
    expand_prefix_query,
    match_terms,
    prefix_terms,
)


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    from search_engine_ray.engine.build import build_index

    root = tmp_path_factory.mktemp("lexicon")
    corpus = str(root / "corpus")
    os.makedirs(corpus)
    pq.write_table(
        generate_pages_table(48, seed=7), os.path.join(corpus, "pages.parquet"), row_group_size=16
    )
    out = str(root / "index")
    build_index(corpus, out, BuildConfig(block_entries=16, frags_per_shard=2), overwrite=True)
    return out


@pytest.fixture(scope="module")
def all_terms(index_dir):
    t = pq.read_table(os.path.join(index_dir, "terms.parquet"))
    return dict(zip(t["term"].to_pylist(), t["df"].to_pylist()))


def test_prefix_upper():
    assert _prefix_upper("abc") == "abd"
    assert _prefix_upper("a\U0010ffff") == "b"
    assert _prefix_upper("\U0010ffff") is None


def test_prefix_terms_matches_dictionary(index_dir, all_terms):
    for prefix in ("a", "s", "te", "zzz"):
        got = prefix_terms(index_dir, prefix)
        exp = sorted((t, d) for t, d in all_terms.items() if t.startswith(prefix))
        assert list(zip(got["term"].to_pylist(), got["df"].to_pylist())) == exp


def test_prefix_terms_empty_prefix_raises(index_dir):
    with pytest.raises(ValueError):
        prefix_terms(index_dir, "")


def test_prefix_terms_limit(index_dir, all_terms):
    got = prefix_terms(index_dir, "s", limit=3)
    exp = sorted(t for t in all_terms if t.startswith("s"))[:3]
    assert got["term"].to_pylist() == exp


def test_match_terms_wildcards(index_dir, all_terms):
    import re as _re

    for pattern in ("*a*", "s*", "?e*", "*ing", "s?a*", "nomatch*zz"):
        rx = _re.compile(
            "^" + "".join(".*" if c == "*" else "." if c == "?" else _re.escape(c) for c in pattern) + "$"
        )
        got = match_terms(index_dir, pattern)
        exp = sorted(t for t in all_terms if rx.match(t))
        assert got["term"].to_pylist() == exp, pattern


def test_match_terms_exact_no_metachar(index_dir, all_terms):
    term = next(iter(sorted(all_terms)))
    got = match_terms(index_dir, term)
    assert got["term"].to_pylist() == [term]
    assert match_terms(index_dir, "definitely-not-a-term").num_rows == 0


def test_expand_prefix_query_cap(index_dir, all_terms):
    full = expand_prefix_query(index_dir, "s", max_expand=10_000)
    assert [t for t, q in full] == sorted(t for t in all_terms if t.startswith("s"))
    assert all(q == 1 for _, q in full)
    capped = expand_prefix_query(index_dir, "s", max_expand=2)
    assert len(capped) == 2
    # highest-df terms win the cap
    top2 = sorted(
        (t for t in all_terms if t.startswith("s")),
        key=lambda t: (-all_terms[t], t),
    )[:2]
    assert sorted(t for t, _ in capped) == sorted(top2)


def _brute_rrf(rank_lists, k=60):
    scores = {}
    for ids in rank_lists:
        for rank, d in enumerate(ids, 1):
            scores[d] = scores.get(d, 0) + 1_000_000 // (k + rank)
    return scores


def test_rrf_fuse_lists():
    a = np.array([3, 1, 2], dtype=np.int64)
    b = np.array([2, 3, 9], dtype=np.int64)
    ids, sc = rrf_fuse_lists([a, b])
    exp = _brute_rrf([[3, 1, 2], [2, 3, 9]])
    assert dict(zip(ids.tolist(), sc.tolist())) == exp
    # descending score, ties -> ascending id
    assert all(
        (sc[i], -ids[i]) >= (sc[i + 1], -ids[i + 1]) for i in range(len(ids) - 1)
    )
    ids2, sc2 = rrf_fuse_lists([a, b], top_k=2)
    assert ids2.tolist() == ids.tolist()[:2]


def test_rrf_fuse_lists_empty():
    ids, sc = rrf_fuse_lists([])
    assert len(ids) == 0 and len(sc) == 0


def test_rrf_fuse_runs_matches_lists(ray_session):
    import pyarrow as pa
    import ray.data

    rng = np.random.default_rng(5)
    runs_lists = {}
    run_dss = []
    for topic in (1, 2):
        runs_lists[topic] = []
    for _ in range(3):
        tbls = []
        for topic in (1, 2):
            docs = rng.permutation(30)[:12].astype(np.int64)
            runs_lists[topic].append(docs.tolist())
            tbls.append(
                pa.table(
                    {
                        "topic": pa.array(np.full(len(docs), topic, dtype=np.int64)),
                        "doc": pa.array(docs),
                        "rank": pa.array(np.arange(1, len(docs) + 1, dtype=np.int64)),
                    }
                )
            )
        run_dss.append(ray.data.from_arrow(pa.concat_tables(tbls)))

    fused = rrf_fuse_runs(run_dss, top_k=5).to_pandas()
    for topic in (1, 2):
        ids, sc = rrf_fuse_lists(
            [np.asarray(l) for l in runs_lists[topic]], top_k=5
        )
        part = fused[fused["topic"] == topic].sort_values("fused_rank")
        assert part["doc"].tolist() == ids.tolist()
        assert part["fused_micros"].tolist() == sc.tolist()
        assert part["fused_rank"].tolist() == list(range(1, 6))


def test_more_like_this(index_dir, ray_session):
    import numpy as np

    from search_engine_ray.config import IndexOptions
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.engine.mlt import more_like_this, select_query_terms

    opt = IndexOptions(True, True, True)
    reader = IndexReader(index_dir)
    # use doc 0's own text: its top term set must retrieve similar docs,
    # and the source ordinal must be excluded
    import pyarrow.parquet as pq_

    src_name = reader.doc_names[0]
    kws, ids, scores = more_like_this(
        reader, index_dir, "nonexistent tokens only zzz", opt, top_terms=5, k=5
    )
    assert kws == [] and len(ids) == 0

    # terms drawn from the index vocabulary: selection is deterministic,
    # bounded, and qtf=1 each
    terms_tbl = pq_.read_table(f"{index_dir}/terms.parquet")
    text = " ".join(terms_tbl["term"].to_pylist()[:20])
    kws2 = select_query_terms(index_dir, text, opt, reader.n_docs, top_terms=7)
    assert len(kws2) <= 7 and all(q == 1 for _, q in kws2)
    assert kws2 == select_query_terms(index_dir, text, opt, reader.n_docs, top_terms=7)

    kws3, ids3, scores3 = more_like_this(
        reader, index_dir, text, opt, exclude_doc=0, top_terms=7, k=10
    )
    assert 0 not in ids3.tolist()
    assert np.all(np.diff(scores3) <= 1e-12)  # descending scores


def test_suggest_terms(index_dir, all_terms):
    from search_engine_ray.engine.lexicon import suggest_terms

    got = suggest_terms(index_dir, "s", k=3)
    exp = sorted(
        ((t, d) for t, d in all_terms.items() if t.startswith("s")),
        key=lambda r: (-r[1], r[0]),
    )[:3]
    assert list(zip(got["term"].to_pylist(), got["df"].to_pylist())) == exp
    assert suggest_terms(index_dir, "zzzz", k=3).num_rows == 0


def _ref_lev(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        ndp = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            ndp[j] = min(dp[j] + 1, ndp[j - 1] + 1, dp[j - 1] + (a[i - 1] != b[j - 1]))
        dp = ndp
    return dp[len(b)]


def test_levenshtein_kernel_matches_reference():
    import random

    from search_engine_ray.engine.lexicon import levenshtein_dists

    random.seed(11)
    for _ in range(50):
        q = "".join(random.choice("abcdé") for _ in range(random.randint(0, 6)))
        ws = ["".join(random.choice("abcdé") for _ in range(random.randint(0, 8)))
              for _ in range(12)] + ["", q]
        assert levenshtein_dists(ws, q).tolist() == [_ref_lev(w, q) for w in ws]


def test_fuzzy_terms_and_spell(index_dir, all_terms, ray_session):
    import ray.data

    from search_engine_ray.engine.lexicon import (
        fuzzy_terms,
        fuzzy_terms_ds,
        spell_correct,
    )

    q = sorted(all_terms)[len(all_terms) // 2]  # a real dictionary term
    for query, d in ((q, 1), (q[:-1] + "z", 1), ("xqzzy", 2)):
        got = fuzzy_terms(index_dir, query, max_dist=d)
        exp = sorted(
            (t, all_terms[t], _ref_lev(t, query))
            for t in all_terms
            if _ref_lev(t, query) <= d
        )
        assert list(zip(*[got[c].to_pylist() for c in ("term", "df", "dist")])) == exp
        # distributed variant returns the same row set
        terms_tbl = pq.read_table(os.path.join(index_dir, "terms.parquet"))
        ds = ray.data.from_arrow(terms_tbl).repartition(4)
        got_ds = fuzzy_terms_ds(ds, query, max_dist=d).to_pandas()
        if len(got_ds) == 0:
            assert exp == []
        else:
            assert sorted(zip(got_ds["term"], got_ds["df"], got_ds["dist"])) == exp
    # spell ranking: dist asc, df desc, term asc
    sc = spell_correct(index_dir, q[:-1] + "z", max_dist=2, k=5)
    rows = list(zip(sc["dist"].to_pylist(),
                    [-x for x in sc["df"].to_pylist()],
                    sc["term"].to_pylist()))
    assert rows == sorted(rows)
    cands = [(_ref_lev(t, q[:-1] + "z"), -all_terms[t], t)
             for t in all_terms if _ref_lev(t, q[:-1] + "z") <= 2]
    assert rows == sorted(cands)[:5]


def test_bm25_boosted_scores(index_dir, ray_session):
    import numpy as np

    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.pipelines import bm25_boosted_scores_f64, bm25_scores_f64

    r = IndexReader(index_dir)
    t = pq.read_table(os.path.join(index_dir, "terms.parquet"))
    kws = [(t["term"][i].as_py(), 1) for i in range(0, min(40, t.num_rows), 13)]
    rng = np.random.default_rng(5)
    boost = rng.choice([1.0, 1.5, 2.0], size=r.n_docs)
    b_ids, b_scores = bm25_boosted_scores_f64(r, kws, boost)
    u_ids, u_scores = bm25_scores_f64(r, kws)
    exp = {d: s * boost[d] for d, s in zip(u_ids, u_scores)}
    assert set(b_ids.tolist()) == set(u_ids.tolist())
    for d, s in zip(b_ids, b_scores):
        assert s == exp[d]
    # sorted by boosted score desc, doc asc
    key = [(-s, d) for d, s in zip(b_ids, b_scores)]
    assert key == sorted(key)
    with pytest.raises(ValueError):
        bm25_boosted_scores_f64(r, kws, boost[:-1])


def test_prf_feedback_terms_and_expansion(index_dir, all_terms, ray_session):
    """feedback_terms equals the brute-force tf_sum*ln(N/df) ranking over
    the feedback docs; expanded retrieval equals manual keyword union."""
    import math

    import ray.data

    from search_engine_ray.config import IndexOptions
    from search_engine_ray.corpus.pages import generate_pages_table
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.engine.prf import feedback_terms
    from search_engine_ray.pipelines import bm25_scores_f64, prf_expanded_bm25_f64
    from search_engine_ray.text.vectorized import tokenize_batch

    r = IndexReader(index_dir)
    opts = IndexOptions()  # index fixture uses defaults (stemming on)
    docs_tbl = generate_pages_table(48, seed=7)
    ds = ray.data.from_arrow(docs_tbl).repartition(3)

    kws = sorted(all_terms, key=lambda t: -all_terms[t])[:2]
    kws = [(t, 1) for t in kws]
    urls = docs_tbl["url"].to_pylist()
    fb_ids = [urls[0], urls[3], urls[7]]

    got = feedback_terms(
        ds, fb_ids, opts, r._df, r.n_docs, exclude={t for t, _ in kws},
        fb_terms=8, text_column="text", id_column="url",
    )
    # brute force over the same 3 docs
    import numpy as np
    import pyarrow as pa

    texts = pa.array([docs_tbl["text"][urls.index(u)].as_py() for u in fb_ids])
    tb = tokenize_batch(texts, opts)
    counts = np.bincount(tb.term_codes, minlength=len(tb.terms))
    exp = []
    for t, c in zip(tb.terms, counts):
        if t in {k for k, _ in kws} or t not in r._df or c == 0:
            continue
        exp.append((t, float(c) * math.log(r.n_docs / r._df[t])))
    exp.sort(key=lambda x: (-x[1], x[0]))
    assert got == exp[:8]

    # expanded retrieval == manual union scoring
    ids, scores, terms = prf_expanded_bm25_f64(
        r, ds, kws, opts, fb_docs=3, fb_terms=4, text_column="text",
        id_column="url",
    )
    assert len(terms) <= 4 and not set(terms) & {t for t, _ in kws}
    m_ids, m_scores = bm25_scores_f64(r, list(kws) + [(t, 1) for t in terms])
    np.testing.assert_array_equal(ids, m_ids)
    np.testing.assert_array_equal(scores, m_scores)


def test_prf_excludes_tombstoned_docs(index_dir, all_terms, ray_session, tmp_path):
    """PRF honors tombstones like every other query surface (round-3
    advice): a deleted doc appears in neither the final ranking nor the
    feedback set that seeds expansions."""
    import shutil

    import numpy as np
    import ray.data

    from search_engine_ray.config import IndexOptions
    from search_engine_ray.corpus.pages import generate_pages_table
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.engine.maintenance import delete_docs
    from search_engine_ray.pipelines import bm25_scores_f64, prf_expanded_bm25_f64

    work = str(tmp_path / "idx_prf_tomb")
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(index_dir, work)
    opts = IndexOptions()
    docs_tbl = generate_pages_table(48, seed=7)
    ds = ray.data.from_arrow(docs_tbl).repartition(3)

    kws = sorted(all_terms, key=lambda t: -all_terms[t])[:2]
    kws = [(t, 1) for t in kws]
    r0 = IndexReader(work)
    ids0, _, _ = prf_expanded_bm25_f64(
        r0, ds, kws, opts, fb_docs=3, fb_terms=4,
        text_column="text", id_column="url",
    )
    # tombstone the top PRF hit, re-run on a fresh reader
    victim = str(r0.doc_names[ids0[0]])
    delete_docs(work, [victim])
    r = IndexReader(work)
    ids, scores, terms = prf_expanded_bm25_f64(
        r, ds, kws, opts, fb_docs=3, fb_terms=4,
        text_column="text", id_column="url",
    )
    assert victim not in {str(r.doc_names[d]) for d in ids}
    # the surviving ranking equals manual expanded scoring with the dead
    # doc masked — i.e. the tombstone filter, not a score change
    m_ids, m_scores = bm25_scores_f64(r, list(kws) + [(t, 1) for t in terms])
    mk = ~r.deleted_mask()[m_ids]
    np.testing.assert_array_equal(ids, m_ids[mk])
    np.testing.assert_array_equal(scores, m_scores[mk])


def test_facet_ranges(ray_session):
    """Range facets: half-open buckets, underflow/overflow, edge validation,
    agreement with a direct recompute over the match set."""
    import os
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from search_engine_ray.config import BuildConfig, IndexOptions
    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.pipelines import facet_ranges

    base = "/tmp/se_ray_facet_ranges"
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    texts = ["alpha beta", "alpha", "gamma delta", "alpha epsilon", "zeta"]
    vals = [-5, 10, 25, 10, 99]
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(5, dtype=np.int64)),
            "text": pa.array(texts),
            "v": pa.array(vals, pa.int64()),
        }
    )
    corpus = f"{base}/corpus"
    os.makedirs(corpus)
    pq.write_table(tbl, f"{corpus}/documents.parquet")
    idx = f"{base}/index"
    build_index(
        corpus, idx, BuildConfig(options=IndexOptions(stemming=False)),
        source_column="text", name_column="doc_id", overwrite=True,
    )
    r = IndexReader(idx)
    ds = ray.data.from_arrow(tbl)
    out = (
        facet_ranges(r, ["alpha"], ds, "v", edges=[0, 20, 50])
        .to_pandas()
        .sort_values("bucket", ignore_index=True)
    )
    # matches: docs 0 (-5 -> underflow), 1 (10 -> bucket 0), 3 (10 -> bucket 0)
    assert out["bucket"].tolist() == [-1, 0]
    assert out["n_docs"].tolist() == [1, 2]
    assert out["lo"].tolist()[0] == np.iinfo(np.int64).min
    assert out["hi"].tolist() == [0, 20]
    # overflow bucket
    out2 = facet_ranges(r, ["zeta"], ds, "v", edges=[0, 20, 50]).to_pandas()
    assert out2["bucket"].tolist() == [2]
    assert out2["lo"].tolist() == [50]
    assert out2["hi"].tolist() == [np.iinfo(np.int64).max]
    import pytest as _pytest

    with _pytest.raises(ValueError):
        facet_ranges(r, ["alpha"], ds, "v", edges=[5])
    with _pytest.raises(ValueError):
        facet_ranges(r, ["alpha"], ds, "v", edges=[5, 5])


def _brute_comb(run_scores):
    """run_scores: list of {doc: score_micros} dicts -> (combsum, combmnz)."""
    combsum, nz = {}, {}
    for run in run_scores:
        mn, mx = min(run.values()), max(run.values())
        for d, s in run.items():
            nrm = 1_000_000 if mx == mn else (s - mn) * 1_000_000 // (mx - mn)
            combsum[d] = combsum.get(d, 0) + nrm
            nz[d] = nz.get(d, 0) + 1
    return combsum, {d: nz[d] * combsum[d] for d in combsum}


def test_comb_fuse_runs_matches_brute(ray_session):
    import pyarrow as pa
    import ray.data

    from search_engine_ray.engine.fusion import comb_fuse_runs

    rng = np.random.default_rng(11)
    per_topic = {1: [], 2: []}
    run_dss = []
    for _ in range(3):
        tbls = []
        for topic in (1, 2):
            docs = rng.permutation(30)[:12].astype(np.int64)
            scores = rng.integers(0, 5_000_000, len(docs)).astype(np.int64)
            per_topic[topic].append(dict(zip(docs.tolist(), scores.tolist())))
            tbls.append(
                pa.table(
                    {
                        "topic": pa.array(np.full(len(docs), topic, dtype=np.int64)),
                        "doc": pa.array(docs),
                        "score_micros": pa.array(scores),
                    }
                )
            )
        run_dss.append(ray.data.from_arrow(pa.concat_tables(tbls)))

    fused = comb_fuse_runs(run_dss).to_pandas()
    for topic in (1, 2):
        combsum, combmnz = _brute_comb(per_topic[topic])
        part = fused[fused["topic"] == topic]
        got_sum = dict(zip(part["doc"], part["combsum_micros"]))
        got_mnz = dict(zip(part["doc"], part["combmnz_micros"]))
        assert got_sum == combsum
        assert got_mnz == combmnz
        n_runs = dict(zip(part["doc"], part["n_runs"]))
        assert all(
            n_runs[d] == sum(d in r for r in per_topic[topic]) for d in n_runs
        )


def test_comb_fuse_runs_constant_run(ray_session):
    """A constant-score run contributes 1_000_000 per retrieved doc."""
    import pyarrow as pa
    import ray.data

    from search_engine_ray.engine.fusion import comb_fuse_runs

    t = pa.table(
        {
            "topic": pa.array([1, 1, 1], type=pa.int64()),
            "doc": pa.array([7, 8, 9], type=pa.int64()),
            "score_micros": pa.array([42, 42, 42], type=pa.int64()),
        }
    )
    fused = comb_fuse_runs([ray.data.from_arrow(t)]).to_pandas()
    assert sorted(fused["doc"]) == [7, 8, 9]
    assert set(fused["combsum_micros"]) == {1_000_000}
    assert set(fused["combmnz_micros"]) == {1_000_000}


def test_qpp_predictors(index_dir, all_terms, ray_session):
    """df/cf from the pruned postings read equal brute counts over the
    dictionary; micros match the closed-form float64 compositions."""
    import json

    from search_engine_ray.engine.qpp import qpp_predictors

    with open(os.path.join(index_dir, "stats.json")) as fh:
        n_docs = int(json.load(fh)["n_docs"])

    # pick three real terms + one absent term (silent-drop contract)
    terms = sorted(all_terms)[:3] + ["zzzznotaterm"]
    out = qpp_predictors(index_dir, terms).to_pandas()
    assert out["term"].tolist() == sorted(all_terms)[:3]

    post = pq.read_table(os.path.join(index_dir, "postings")).to_pandas()
    from search_engine_ray.engine.codec import vbyte_decode

    for _, row in out.iterrows():
        sub = post[post["term"] == row["term"]]
        n_per = sub["n"].to_numpy(dtype=np.int64)
        assert row["df"] == n_per.sum()
        cf = sum(
            int(vbyte_decode(e, int(k)).sum())
            for e, k in zip(sub["tfs_enc"], n_per)
        )
        assert row["cf"] == cf
        idf = np.log((n_docs - row["df"] + 0.5) / (row["df"] + 0.5))
        scq = (1.0 + np.log(float(row["cf"]))) * np.log(1.0 + n_docs / row["df"])
        assert row["idf_micros"] == int(np.floor(idf * 1e6 + 0.5))
        assert row["scq_micros"] == int(np.floor(scq * 1e6 + 0.5))
