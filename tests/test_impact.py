"""Impact-ordered index + score-at-a-time retrieval (engine/impact.py).

Covers: quantizer exactness vs a brute-force per-posting recompute,
exhaustive SAAT == impact-TAAT, the deterministic anytime budget prefix,
big-budget == exhaustive, unknown-term drop, and meta integrity.  The
DuckDB oracle conformance of the same tier runs in test_entry_contract
via the saat_top10 / saat_anytime_top10 gates.
"""

import datetime
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from search_engine_ray.config import BuildConfig
from search_engine_ray.corpus.pages import PAGES_SCHEMA, write_pages_parquet
from search_engine_ray.engine.build import build_index
from search_engine_ray.engine.impact import (
    build_impact_index,
    read_impact_meta,
    saat_topk,
)
from search_engine_ray.engine.index_reader import IndexReader

BASE = "/tmp/se_ray_test_impact"
N_DOCS = 200
Q = 64  # fewer levels than default so bucket collisions are exercised


@pytest.fixture(scope="module")
def built(ray_session):
    corpus = f"{BASE}/corpus"
    index = f"{BASE}/index"
    impact = f"{BASE}/impact"
    shutil.rmtree(BASE, ignore_errors=True)
    write_pages_parquet(corpus, N_DOCS, seed=7, n_files=2, row_group_size=64)
    build_index(corpus, index, BuildConfig(block_entries=16), overwrite=True)
    build_impact_index(index, impact, quant_levels=Q)
    return index, impact


def _brute_quantized(index_dir: str, quant_levels: int):
    """Recompute every posting's q from the raw index — the spec the
    distributed build must hit bit-for-bit."""
    r = IndexReader(index_dir)
    n, avgdl, k1, b = r.n_docs, r.avgdl, 1.2, 0.75
    terms = pq.read_table(f"{index_dir}/terms.parquet")["term"].to_pylist()
    per_term: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    all_m = []
    for t in terms:
        tp = r.postings(t)
        ids, tfs, dls = tp.arrays()
        idf = np.log(1.0 + (n - tp.df + 0.5) / (tp.df + 0.5))
        c = idf * (tfs * (k1 + 1)) / (tfs + k1 * (1 - b + b * (dls / avgdl)))
        m = np.maximum(np.floor(c * 1e6 + 0.5).astype(np.int64), 0)
        per_term[t] = (ids, m)
        all_m.append(m)
    maxm = max(int(np.concatenate(all_m).max()), 1)
    smax = max(int(np.floor(np.sqrt(float(maxm)))), 1)
    qs = {
        t: (ids, 1 + np.floor(np.sqrt(m.astype(np.float64))).astype(np.int64)
            * (quant_levels - 1) // smax)
        for t, (ids, m) in per_term.items()
    }
    return qs, maxm


def test_meta_and_totals(built):
    index, impact = built
    meta = read_impact_meta(impact)
    import json
    with open(f"{index}/stats.json") as fh:
        stats = json.load(fh)
    assert meta["n_docs"] == stats["n_docs"]
    assert meta["n_postings"] == stats["n_postings"]
    assert meta["quant_levels"] == Q
    _, maxm = _brute_quantized(index, Q)
    assert meta["max_micros"] == maxm


def test_segments_match_brute_force(built):
    """Every (term, q) segment holds exactly the docIDs the brute-force
    quantizer assigns, ascending."""
    index, impact = built
    qs, _ = _brute_quantized(index, Q)
    seg = pads.dataset(f"{impact}/segments").to_table()
    from search_engine_ray.engine.codec import decode_concat_rows

    lens = np.asarray(seg["n"], dtype=np.int64)
    flat = decode_concat_rows(seg["docs_enc"], lens, delta=True)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    got: dict[tuple[str, int], np.ndarray] = {}
    for i, (t, q) in enumerate(zip(seg["term"].to_pylist(), seg["q"].to_pylist())):
        got[(t, q)] = flat[starts[i] : starts[i] + lens[i]]
    expected: dict[tuple[str, int], np.ndarray] = {}
    for t, (ids, qarr) in qs.items():
        for q in np.unique(qarr):
            expected[(t, int(q))] = np.sort(ids[qarr == q])
    assert set(got) == set(expected)
    for k in expected:
        assert np.array_equal(got[k], expected[k]), k
        assert np.all(np.diff(got[k]) > 0)  # strictly ascending, no dups


def test_exhaustive_equals_taat(built):
    index, impact = built
    qs, _ = _brute_quantized(index, Q)
    r = IndexReader(index)
    kws = [t for t in list(qs)[:4]]
    keywords = [(t, 1) for t in kws]
    scores = np.zeros(r.n_docs, dtype=np.int64)
    touched = np.zeros(r.n_docs, dtype=bool)
    for t in kws:
        ids, qarr = qs[t]
        scores[ids] += qarr
        touched[ids] = True
    cand = np.flatnonzero(touched)
    order = np.lexsort((cand, -scores[cand]))
    ids10, sc10, processed = saat_topk(impact, keywords, k=10)
    assert np.array_equal(ids10, cand[order][:10])
    assert np.array_equal(sc10, scores[cand[order][:10]])
    assert processed == int(touched.sum() * 0 + sum(len(qs[t][0]) for t in kws))


def test_qtf_scales_contribution(built):
    _, impact = built
    meta = read_impact_meta(impact)
    seg = pads.dataset(f"{impact}/segments").to_table(columns=["term"])
    term = seg["term"][0].as_py()
    i1, s1, _ = saat_topk(impact, [(term, 1)], k=None)
    i3, s3, _ = saat_topk(impact, [(term, 3)], k=None)
    assert np.array_equal(i1, i3)
    assert np.array_equal(s1 * 3, s3)


def test_anytime_budget_prefix(built):
    """The admitted set is the longest (q desc, term asc) prefix of
    segments with cumulative postings <= budget — recompute it directly."""
    index, impact = built
    qs, _ = _brute_quantized(index, Q)
    kws = list(qs)[:4]
    keywords = [(t, 1) for t in kws]
    segs = []
    for t in kws:
        ids, qarr = qs[t]
        for q in np.unique(qarr):
            segs.append((t, int(q), ids[qarr == q]))
    segs.sort(key=lambda s: (-s[1], s[0]))
    total = sum(len(s[2]) for s in segs)
    budget = total // 2
    scores = np.zeros(read_impact_meta(impact)["n_docs"], dtype=np.int64)
    touched = np.zeros_like(scores, dtype=bool)
    processed = 0
    for t, q, ids in segs:
        if processed + len(ids) > budget:
            break
        scores[ids] += q
        touched[ids] = True
        processed += len(ids)
    assert 0 < processed < total  # the budget really truncates
    cand = np.flatnonzero(touched)
    order = np.lexsort((cand, -scores[cand]))
    got_ids, got_sc, got_p = saat_topk(impact, keywords, k=10, budget=budget)
    assert got_p == processed
    assert np.array_equal(got_ids, cand[order][:10])
    assert np.array_equal(got_sc, scores[cand[order][:10]])


def test_big_budget_is_exhaustive(built):
    index, impact = built
    qs, _ = _brute_quantized(index, Q)
    keywords = [(t, 1) for t in list(qs)[:3]]
    a = saat_topk(impact, keywords, k=10)
    b = saat_topk(impact, keywords, k=10, budget=10**9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert a[2] == b[2]


def test_unknown_terms_dropped(built):
    _, impact = built
    ids, sc, processed = saat_topk(impact, [("zz_missing_term", 1)], k=10)
    assert len(ids) == 0 and processed == 0


def _head_keywords(index: str, n: int = 4) -> list[tuple[str, int]]:
    qs, _ = _brute_quantized(index, Q)
    return [(t, 1) for t in sorted(qs, key=lambda t: (-len(qs[t][0]), t))[:n]]


def test_saat_serves_a_tier_rebuilt_in_place(built, tmp_path):
    """A tier rebuilt into a directory this process already served from
    (here with other quant_levels) is served as rebuilt, not from the copy
    loaded before the rebuild."""
    index, impact = built
    kws = _head_keywords(index)
    tier, fresh = str(tmp_path / "tier"), str(tmp_path / "fresh")
    shutil.copytree(impact, tier)
    before = saat_topk(tier, kws, k=20, budget=500)
    build_impact_index(index, fresh, quant_levels=8)
    want = saat_topk(fresh, kws, k=20, budget=500)
    assert not np.array_equal(before[1], want[1])
    build_impact_index(index, tier, quant_levels=8)
    assert read_impact_meta(tier)["quant_levels"] == 8
    got = saat_topk(tier, kws, k=20, budget=500)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2] == want[2]


@pytest.mark.parametrize("warm", [False, True])
def test_saat_missing_bucket_contributes_nothing(built, tmp_path, warm):
    """A bucket file deleted before the first query, or after the tier
    was loaded, drops its terms' segments without raising: the answer is
    the intact tier's answer to the query without those terms."""
    from search_engine_ray.engine.merge import term_bucket_array

    index, impact = built
    kws = _head_keywords(index)
    n_buckets = read_impact_meta(impact)["num_buckets"]
    bucket_of = dict(zip(
        [t for t, _ in kws],
        term_bucket_array(pa.array([t for t, _ in kws]), n_buckets).to_pylist(),
    ))
    gone = bucket_of[kws[0][0]]
    rest = [(t, q) for t, q in kws if bucket_of[t] != gone]
    assert rest
    tier = str(tmp_path / "tier")
    shutil.copytree(impact, tier)
    if warm:
        saat_topk(tier, kws, k=None)
    os.remove(f"{tier}/segments/bucket={gone}/part.parquet")
    for budget in (None, 300):
        got = saat_topk(tier, kws, k=None, budget=budget)
        want = saat_topk(impact, rest, k=None, budget=budget)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]


@pytest.mark.parametrize("n_shards", [1, 3, 5])
def test_sharded_bit_identical(built, n_shards):
    """Doc-range-sharded SAAT == single-process SAAT, exhaustively and
    under an anytime budget, for any shard count, with and without a
    tombstone mask."""
    from search_engine_ray.engine.impact import saat_topk_sharded

    index, impact = built
    qs, _ = _brute_quantized(index, Q)
    n_docs = read_impact_meta(impact)["n_docs"]
    rare = [(t, 1) for t in list(qs)[:4]]
    head = [(t, 1) for t in sorted(qs, key=lambda t: (-len(qs[t][0]), t))[:4]]

    def half(kws):
        return sum(len(qs[t][0]) for t, _ in kws) // 2

    def mask_of(kws):
        mask = np.zeros(n_docs, dtype=bool)
        mask[saat_topk(impact, kws, k=10)[0][:3]] = True  # the current top 3 ...
        mask[::7] = True  # ... and docs spread over every shard
        return mask

    cases = [
        (rare, None, None),
        (rare, half(rare), None),
        (rare, None, mask_of(rare)),  # every match masked: all shards empty
        (head, None, mask_of(head)),
        (head, half(head), mask_of(head)),
    ]
    masked_hits = 0
    for kws, budget, exclude in cases:
        a = saat_topk(impact, kws, k=10, budget=budget, exclude=exclude)
        b = saat_topk_sharded(
            impact, kws, k=10, budget=budget, n_shards=n_shards, exclude=exclude)
        assert np.array_equal(a[0], b[0]), (kws, budget, exclude is None)
        assert np.array_equal(a[1], b[1])
        assert a[2] == b[2]
        if exclude is not None:
            assert not exclude[b[0]].any()
            masked_hits += len(b[0])
    assert masked_hits > 0


def test_exclude_mask(built):
    """A tombstone mask removes docs from the ranking immediately, like
    every other scorer after a delete."""
    index, impact = built
    qs, _ = _brute_quantized(index, Q)
    kws = [(t, 1) for t in list(qs)[:3]]
    base_ids, _sc, _p = saat_topk(impact, kws, k=5)
    from search_engine_ray.engine.impact import read_impact_meta

    mask = np.zeros(read_impact_meta(impact)["n_docs"], dtype=bool)
    mask[base_ids[0]] = True  # kill the top doc
    got_ids, _s2, _p2 = saat_topk(impact, kws, k=5, exclude=mask)
    assert base_ids[0] not in got_ids
    assert got_ids[0] == base_ids[1]  # rest of the ranking shifts up


def test_empty_postings_give_empty_tier(ray_session, tmp_path):
    """An index with no postings (every token a stopword) builds an empty,
    valid tier, and SAAT over it returns empty arrays."""
    corpus, index, impact = (str(tmp_path / d) for d in ("corpus", "index", "impact"))
    n = 3
    pages = pa.table({
        "url": [f"http://example.com/{i}" for i in range(n)],
        "warc_ts": pa.array([datetime.datetime(2020, 1, 1)] * n, pa.timestamp("us")),
        "html": [b"<html><body>the of and</body></html>"] * n,
        "text": ["the of and"] * n,
        "lang": ["en"] * n,
    }, schema=PAGES_SCHEMA)
    os.makedirs(corpus)
    pq.write_table(pages, f"{corpus}/pages.parquet")
    build_index(corpus, index, BuildConfig(), overwrite=True)
    build_impact_index(index, impact, quant_levels=Q)
    meta = read_impact_meta(impact)
    assert (meta["n_docs"], meta["n_segments"], meta["n_postings"]) == (n, 0, 0)
    ids, sc, processed = saat_topk(impact, [("the", 1), ("spark", 1)], k=10)
    assert len(ids) == 0 and len(sc) == 0 and processed == 0


def test_impact_fsck_clean_and_corrupt(built, tmp_path):
    import glob
    import shutil as sh

    from search_engine_ray.engine.impact import verify_impact_index

    index, impact = built
    report = verify_impact_index(index, impact)
    assert report["violations"] == 0, report
    assert report["n_segments"] > 0

    # corrupt ONE segment file: flip a q value -> checksum + count rows split
    bad = str(tmp_path / "impact_bad")
    sh.copytree(impact, bad)
    f = sorted(glob.glob(f"{bad}/segments/bucket=*/part.parquet"))[0]
    t = pq.read_table(f)
    qcol = np.asarray(t["q"], dtype=np.int64).copy()
    qcol[0] += 1 if qcol[0] < Q else -1
    t = t.set_column(t.schema.get_field_index("q"), "q", pa.array(qcol))
    pq.write_table(t, f)
    report2 = verify_impact_index(index, bad)
    assert report2["violations"] > 0
    assert report2["checksum_mismatches"] > 0


def test_rerank_two_tier(built):
    """saat_rerank == exact-scorer ordering restricted to the SAAT
    candidate set, recomputed independently."""
    from search_engine_ray.engine.impact import saat_rerank

    index, impact = built
    qs, _ = _brute_quantized(index, Q)
    kws = [(t, 1) for t in list(qs)[:3]]
    n_cand, k = 7, 5
    cand, _sc, _p = saat_topk(impact, kws, k=n_cand)
    r = IndexReader(index)

    def exact(reader, keywords):
        n, avgdl = reader.n_docs, reader.avgdl
        scores = np.zeros(n)
        touched = np.zeros(n, bool)
        for t, _ in keywords:
            tp = reader.postings(t)
            if tp is None:
                continue
            ids, tfs, dls = tp.arrays()
            idf = np.log((n - tp.df + 0.5) / (tp.df + 0.5))
            scores[ids] += idf * (tfs * 2.2) / (
                tfs + 1.2 * (1 - 0.75 + 0.75 * (dls / avgdl)))
            touched[ids] = True
        c = np.flatnonzero(touched)
        return c, scores[c]

    got_ids, got_sc, _ = saat_rerank(
        impact, r, kws, k=k, n_candidates=n_cand, scores_fn=exact)
    assert set(got_ids.tolist()) <= set(cand.tolist())
    c_ids, c_scores = exact(r, kws)
    lut = dict(zip(c_ids.tolist(), c_scores.tolist()))
    exp_order = sorted(cand.tolist(), key=lambda d: (-lut[d], d))[:k]
    assert got_ids.tolist() == exp_order
    assert np.allclose(got_sc, [lut[d] for d in exp_order], rtol=0, atol=0)


def test_rerank_drops_candidates_the_exact_tier_skips(built):
    """A candidate the exact tier does not score is dropped from the
    result; every returned score is finite."""
    from search_engine_ray.engine.impact import saat_rerank
    from search_engine_ray.pipelines import bm25_scores_f64

    index, impact = built
    qs, _ = _brute_quantized(index, Q)
    kws = [(t, 1) for t in list(qs)[:3]]
    cand, _sc, _p = saat_topk(impact, kws, k=7)
    skipped = int(cand[0])

    def without_top(reader, keywords):
        ids, scores = bm25_scores_f64(reader, keywords)
        keep = ids != skipped
        return ids[keep], scores[keep]

    ids, scores, _ = saat_rerank(
        impact, IndexReader(index), kws, k=7, n_candidates=7, scores_fn=without_top)
    assert skipped not in ids.tolist()
    assert len(ids) == len(cand) - 1
    assert np.isfinite(scores).all()
