"""End-to-end index build vs the oracle + partition invariance + resume."""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from search_engine_ray.config import BuildConfig, IndexOptions
from search_engine_ray.corpus.pages import write_pages_parquet
from search_engine_ray.engine.build import build_index
from search_engine_ray.engine.index_reader import IndexReader
from search_engine_ray.engine.reader import plan_fragments, read_fragment
from search_engine_ray.oracle.indexer import OracleIndex

N_DOCS = 240
SEED = 42
BASE = "/tmp/se_ray_test"


def _oracle_from_corpus(corpus_dir: str, options: IndexOptions) -> OracleIndex:
    docs = []
    for frag in plan_fragments(corpus_dir):
        tbl = read_fragment(frag, columns=["url", "text"])
        docs.extend(zip(tbl["url"].to_pylist(), tbl["text"].to_pylist()))
    return OracleIndex.build(docs, options)


@pytest.fixture(scope="module")
def built(ray_session):
    corpus_dir = f"{BASE}/corpus_a"
    index_dir = f"{BASE}/index_a"
    shutil.rmtree(BASE, ignore_errors=True)
    write_pages_parquet(corpus_dir, N_DOCS, seed=SEED, n_files=3, row_group_size=48)
    config = BuildConfig(block_entries=16, frags_per_shard=2)
    stats = build_index(corpus_dir, index_dir, config, term_buckets=8, overwrite=True)
    oracle = _oracle_from_corpus(corpus_dir, config.options)
    return corpus_dir, index_dir, stats, oracle


def test_stats_match_oracle(built):
    _, _, stats, oracle = built
    assert stats["n_docs"] == oracle.n_docs
    assert stats["sum_dl"] == sum(oracle.doc_lens)
    assert abs(stats["avgdl"] - oracle.avgdl) < 1e-12
    assert stats["n_terms"] == len(oracle.postings)


def test_docs_table_matches(built):
    _, index_dir, _, oracle = built
    reader = IndexReader(index_dir)
    assert reader.doc_names.tolist() == oracle.doc_names
    assert reader.doc_lens.tolist() == oracle.doc_lens


def test_postings_decode_equal(built):
    _, index_dir, _, oracle = built
    reader = IndexReader(index_dir)
    for term, (doc_ids, tfs) in oracle.postings.items():
        tp = reader.postings(term)
        assert tp is not None, term
        ids, etfs, dls = tp.arrays()
        assert ids.tolist() == doc_ids, term
        assert etfs.tolist() == tfs, term
        assert tp.df == len(doc_ids)
        # dls column matches the doc table (J3 denormalization)
        assert dls.tolist() == [oracle.doc_lens[d] for d in doc_ids]
        # invariants: sorted unique ids, block metadata consistent
        assert (np.diff(ids) > 0).all() if len(ids) > 1 else True
        for b in tp.blocks:
            bids, btfs, _ = b.decode()
            assert b.first_doc == bids[0] and b.last_doc == bids[-1]
            assert b.n == len(bids)
    # no extra terms in the engine index
    engine_terms = set(reader._df)
    assert engine_terms == set(oracle.postings)


def test_sum_tf_equals_doc_len(built):
    _, index_dir, _, oracle = built
    reader = IndexReader(index_dir)
    acc = np.zeros(reader.n_docs, dtype=np.int64)
    for term in reader._df:
        ids, tfs, _ = reader.postings(term).arrays()
        acc[ids] += tfs
    assert acc.tolist() == oracle.doc_lens


def test_partition_invariance(built, ray_session):
    """Same corpus at a different file/row-group layout -> identical index."""
    corpus_dir, index_dir, _, _ = built
    corpus_b = f"{BASE}/corpus_b"
    index_b = f"{BASE}/index_b"
    write_pages_parquet(corpus_b, N_DOCS, seed=SEED, n_files=1, row_group_size=512)
    # also exercises tokenize sub-batching (32-doc sub-slices of 240-row RGs)
    config = BuildConfig(block_entries=16, frags_per_shard=1, tokenize_sub_batch=32)
    build_index(corpus_b, index_b, config, term_buckets=3, overwrite=True)

    ra, rb = IndexReader(index_dir), IndexReader(index_b)
    assert ra.doc_names.tolist() == rb.doc_names.tolist()
    assert set(ra._df) == set(rb._df)
    for term in ra._df:
        a, b = ra.postings(term).arrays(), rb.postings(term).arrays()
        for x, y in zip(a, b):
            assert x.tolist() == y.tolist(), term


def test_resume_recomputes_only_missing(built, ray_session):
    corpus_dir, index_dir, _, oracle = built
    index_c = f"{BASE}/index_c"
    config = BuildConfig(block_entries=16, frags_per_shard=2)
    build_index(corpus_dir, index_c, config, term_buckets=8, overwrite=True)

    # simulate a crash: merge output lost + one fragment's outputs lost
    os.remove(os.path.join(index_c, ".complete"))
    shutil.rmtree(os.path.join(index_c, "postings"))
    os.remove(os.path.join(index_c, "terms.parquet"))
    victim = sorted(glob.glob(os.path.join(index_c, "manifest", "frag-*.json")))[1]
    frag_id = json.load(open(victim))["frag_id"]
    os.remove(victim)
    os.remove(os.path.join(index_c, "segments", f"part-{frag_id:06d}.parquet"))
    os.remove(os.path.join(index_c, "docs", f"part-{frag_id:06d}.parquet"))

    surviving = sorted(glob.glob(os.path.join(index_c, "manifest", "frag-*.json")))
    mtimes = {p: os.path.getmtime(p) for p in surviving}

    build_index(corpus_dir, index_c, config, term_buckets=8)

    # untouched fragments were skipped (manifests not rewritten)
    for p, t in mtimes.items():
        assert os.path.getmtime(p) == t
    # result identical to the pristine build
    ra, rc = IndexReader(index_dir), IndexReader(index_c)
    assert ra.doc_names.tolist() == rc.doc_names.tolist()
    for term in ra._df:
        a, c = ra.postings(term).arrays(), rc.postings(term).arrays()
        for x, y in zip(a, c):
            assert x.tolist() == y.tolist(), term


def test_incremental_append(built, ray_session, tmp_path):
    """New corpus files sorting after all prior files extend the index:
    old docIDs and manifests untouched, new docs appended, merge re-run."""
    import pyarrow.parquet as pq

    from search_engine_ray.corpus.pages import generate_pages_table

    corpus = str(tmp_path / "corpus")
    index_dir = str(tmp_path / "index")
    os.makedirs(corpus)
    base_tbl = generate_pages_table(60, seed=21)
    pq.write_table(base_tbl, os.path.join(corpus, "a-pages.parquet"), row_group_size=32)
    config = BuildConfig(block_entries=16, frags_per_shard=2)
    stats1 = build_index(corpus, index_dir, config, overwrite=True)
    r1 = IndexReader(index_dir)
    names1 = r1.doc_names.tolist()
    mtimes = {
        p: os.path.getmtime(os.path.join(index_dir, "manifest", p))
        for p in os.listdir(os.path.join(index_dir, "manifest"))
    }

    extra = generate_pages_table(30, seed=22, adversarial=False)
    pq.write_table(extra, os.path.join(corpus, "z-pages.parquet"), row_group_size=32)
    stats2 = build_index(corpus, index_dir, config)
    assert stats2["n_docs"] == stats1["n_docs"] + 30
    r2 = IndexReader(index_dir)
    # old docIDs stable, new appended after
    assert r2.doc_names[: len(names1)].tolist() == names1
    # old fragments were not recomputed
    for p, t in mtimes.items():
        assert os.path.getmtime(os.path.join(index_dir, "manifest", p)) == t
    # combined index equals a from-scratch build over the combined corpus
    oracle = _oracle_from_corpus(corpus, config.options)
    assert r2.doc_lens.tolist() == oracle.doc_lens
    for term in list(oracle.postings)[:150]:
        ids, tfs, _ = r2.postings(term).arrays()
        assert ids.tolist() == oracle.postings[term][0], term
        assert tfs.tolist() == oracle.postings[term][1], term

    # a file sorting BEFORE existing ones must refuse
    pq.write_table(extra, os.path.join(corpus, "0-pages.parquet"))
    with pytest.raises(ValueError, match="reassign existing docIDs"):
        build_index(corpus, index_dir, config)


def test_degenerate_all_stopword_corpus(ray_session, tmp_path):
    """Every token filtered -> empty postings; build, read, query and
    fsck must all stay well-defined."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.config import BM25Params
    from search_engine_ray.corpus.extract import html_from_text
    from search_engine_ray.engine.scoring import taat_bm25

    corpus = str(tmp_path / "c")
    os.makedirs(corpus)
    texts = ["the and with", "a an of", "1 2 3"]
    pq.write_table(
        pa.table(
            {
                "url": pa.array([f"u{i}" for i in range(3)]),
                "html": pa.array([html_from_text(t, "t") for t in texts], pa.binary()),
            }
        ),
        os.path.join(corpus, "p.parquet"),
    )
    stats = build_index(corpus, str(tmp_path / "i"), BuildConfig(), overwrite=True)
    assert stats["n_docs"] == 3 and stats["n_terms"] == 0 and stats["avgdl"] == 0.0
    r = IndexReader(str(tmp_path / "i"))
    assert r.doc_lens.tolist() == [0, 0, 0]
    ids, scores = taat_bm25(r, [("the", 1)], BM25Params(), 10)
    assert len(ids) == 0
    # one empty postings file, named like any other, and a clean fsck
    from search_engine_ray.engine.maintenance import fsck_index

    assert os.listdir(str(tmp_path / "i" / "postings")) == ["s00000-b00000.parquet"]
    assert fsck_index(str(tmp_path / "i"))["violations"] == 0


def test_build_is_idempotent(built, ray_session):
    corpus_dir, index_dir, stats, _ = built
    again = build_index(corpus_dir, index_dir, BuildConfig(block_entries=16, frags_per_shard=2), term_buckets=8)
    assert again["n_docs"] == stats["n_docs"]


def test_merge_handles_mixed_old_segment_schema(built, ray_session):
    """Cross-version resume: segment files written WITHOUT the r2 per-row
    stats columns (round-1 format) may sit next to new ones after an
    append; NULL-stat rows must take the full merge path and the index
    must come out identical."""
    corpus_dir, index_dir, _, _ = built
    mixed = f"{BASE}/index_mixed"
    config = BuildConfig(block_entries=16, frags_per_shard=2)
    build_index(corpus_dir, mixed, config, term_buckets=8, overwrite=True)

    # rewrite one segment file in the OLD schema (drop the stats columns)
    seg_files = sorted(glob.glob(os.path.join(mixed, "segments", "part-*.parquet")))
    import pyarrow.parquet as pq_

    old = pq_.read_table(seg_files[0])
    stripped = old.drop_columns(["max_doc", "max_tf", "min_tf", "min_dl", "max_dl"])
    pq_.write_table(stripped, seg_files[0])

    # force a merge re-run over the mixed segment dir (stage 1 resumes)
    os.remove(os.path.join(mixed, ".complete"))
    shutil.rmtree(os.path.join(mixed, "postings"))
    os.remove(os.path.join(mixed, "terms.parquet"))
    build_index(corpus_dir, mixed, config, term_buckets=8)

    reference_dir = f"{BASE}/index_mixed_ref"
    build_index(corpus_dir, reference_dir, config, term_buckets=8, overwrite=True)
    ra, rb = IndexReader(mixed), IndexReader(reference_dir)
    assert set(ra._df) == set(rb._df)
    for term in ra._df:
        a, b = ra.postings(term).arrays(), rb.postings(term).arrays()
        for x, y in zip(a, b):
            assert np.array_equal(x, y), term


def test_positional_sidecar_and_phrase(ray_session, tmp_path):
    """Positions sidecar: build, resume (manifest skip), and phrase
    semantics — adjacency over kept-token ordinals, stopword-dropped
    query words, repeated-term phrases, absent terms."""
    import pandas as pd
    import pyarrow as pa

    from search_engine_ray.engine.positions import build_position_index, phrase_search

    opt = IndexOptions(case_folding=True, remove_stopwords=True, stemming=False)
    src = str(tmp_path / "docs.parquet")
    df = pd.DataFrame(
        {
            "doc_id": [10, 20, 30, 40],
            "text": [
                "alpha beta gamma alpha beta",
                "beta alpha the beta gamma",   # 'the' is a stopword: consumes no slot
                "alpha alpha alpha",
                "gamma beta alpha",
            ],
        }
    )
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src)
    idx = str(tmp_path / "pos")
    stats = build_position_index(src, idx, opt, source_column="text", name_column="doc_id")
    assert stats["n_postings"] > 0

    out = phrase_search(idx, ["alpha", "beta"], opt).to_pandas()
    got = dict(zip(out["doc_id"], out["n_matches"]))
    # doc20: 'the' removed -> kept stream [beta alpha beta gamma]: stopword
    # gaps COLLAPSE (positions are kept-token ordinals), so 'alpha beta'
    # matches across the removed 'the'
    assert got == {10: 2, 20: 1}
    # stopword inside the QUERY phrase is dropped silently -> 'beta' alone
    out2 = phrase_search(idx, ["the", "beta"], opt).to_pandas()
    assert set(out2["doc_id"]) == {10, 20, 40}
    # repeated-term phrase
    out3 = phrase_search(idx, ["alpha", "alpha"], opt).to_pandas()
    assert dict(zip(out3["doc_id"], out3["n_matches"])) == {30: 2}
    # absent term -> empty, typed
    out4 = phrase_search(idx, ["zzzmissing", "alpha"], opt)
    assert out4.num_rows == 0 and out4.schema.names == ["doc_id", "n_matches"]

    # resume: rebuild skips every fragment via its manifest
    stats2 = build_position_index(src, idx, opt, source_column="text", name_column="doc_id")
    assert stats2 == stats


def test_proximity_search(ray_session, tmp_path):
    """Proximity over the positional sidecar vs a brute-force pair count
    on kept-token ordinals."""
    import pandas as pd
    import pyarrow as pa

    from search_engine_ray.engine.positions import build_position_index, proximity_search
    from search_engine_ray.text.tokenizer import normalize_text_oracle

    opt = IndexOptions(case_folding=True, remove_stopwords=True, stemming=False)
    src = str(tmp_path / "docs.parquet")
    texts = [
        "alpha x x beta alpha",
        "beta the alpha",        # stopword collapses: kept [beta alpha]
        "alpha alpha gamma",
        "beta x x x x x alpha",
        "gamma gamma",
    ]
    ids = [1, 2, 3, 4, 5]
    df = pd.DataFrame({"doc_id": ids, "text": texts})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src)
    idx = str(tmp_path / "pos")
    build_position_index(src, idx, opt, source_column="text", name_column="doc_id")

    def brute(ta, tb, w):
        exp = {}
        for d, t in zip(ids, texts):
            toks = normalize_text_oracle(t, case_folding=True, remove_stopwords=True, stemming=False)
            n = sum(
                1
                for i, x in enumerate(toks)
                for j, y in enumerate(toks)
                if x == ta and y == tb and abs(i - j) <= w
            )
            if n:
                exp[d] = n
        return exp

    for ta, tb, w in [("alpha", "beta", 3), ("alpha", "beta", 1), ("beta", "alpha", 5), ("alpha", "gamma", 0)]:
        out = proximity_search(idx, ta, tb, window=w, options=opt).to_pandas()
        assert dict(zip(out["doc_id"], out["n_pairs"])) == brute(ta, tb, w), (ta, tb, w)

    # same-term, empty-after-normalization, and absent-term queries -> empty
    assert proximity_search(idx, "alpha", "alpha", 2, opt).num_rows == 0
    assert proximity_search(idx, "the", "beta", 2, opt).num_rows == 0
    assert proximity_search(idx, "zzz", "beta", 2, opt).num_rows == 0
    import pytest as _pytest

    with _pytest.raises(ValueError):
        proximity_search(idx, "alpha", "beta", -1, opt)


def test_ordered_window_search(ray_session, tmp_path):
    """Ordered sloppy phrase (a precedes b within slop) vs brute force on
    kept-token ordinals; asymmetric by construction."""
    import pandas as pd
    import pyarrow as pa

    from search_engine_ray.engine.positions import (
        build_position_index,
        ordered_window_search,
    )
    from search_engine_ray.text.tokenizer import normalize_text_oracle

    opt = IndexOptions(case_folding=True, remove_stopwords=True, stemming=False)
    src = str(tmp_path / "docs.parquet")
    texts = [
        "alpha x x beta alpha",      # alpha@0..beta@3 ordered dist 3; beta@3..alpha@4 NOT (wrong order)
        "beta the alpha",            # kept [beta alpha]: beta precedes alpha
        "alpha beta alpha beta",     # multiple ordered pairs
        "beta x x x x x alpha",
        "gamma gamma",
    ]
    ids = [1, 2, 3, 4, 5]
    df = pd.DataFrame({"doc_id": ids, "text": texts})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src)
    idx = str(tmp_path / "pos")
    build_position_index(src, idx, opt, source_column="text", name_column="doc_id")

    def brute(ta, tb, slop):
        exp = {}
        for d, t in zip(ids, texts):
            toks = normalize_text_oracle(
                t, case_folding=True, remove_stopwords=True, stemming=False
            )
            n = sum(
                1
                for i, x in enumerate(toks)
                for j, y in enumerate(toks)
                if x == ta and y == tb and 1 <= j - i <= slop
            )
            if n:
                exp[d] = n
        return exp

    for ta, tb, s in [
        ("alpha", "beta", 3), ("alpha", "beta", 1),
        ("beta", "alpha", 1), ("beta", "alpha", 6),
    ]:
        out = ordered_window_search(idx, ta, tb, slop=s, options=opt).to_pandas()
        assert dict(zip(out["doc_id"], out["n_pairs"])) == brute(ta, tb, s), (ta, tb, s)

    # ordered != unordered: doc 1 has beta->alpha only in one direction
    fwd = ordered_window_search(idx, "beta", "alpha", 1, opt).to_pandas()
    rev = ordered_window_search(idx, "alpha", "beta", 1, opt).to_pandas()
    assert dict(zip(fwd["doc_id"], fwd["n_pairs"])) != dict(zip(rev["doc_id"], rev["n_pairs"]))

    assert ordered_window_search(idx, "alpha", "alpha", 2, opt).num_rows == 0
    assert ordered_window_search(idx, "zzz", "beta", 2, opt).num_rows == 0
    import pytest as _pytest

    with _pytest.raises(ValueError):
        ordered_window_search(idx, "alpha", "beta", 0, opt)


def test_distributed_terms_directory_layout(built, ray_session, monkeypatch):
    """Forcing the distributed terms-finalization branch (round-3 verdict
    #7: no driver-side collect at 10^9 terms) yields a sorted terms/
    DIRECTORY that every reader surface treats identically to the
    single-file layout: same df map, same lexicon probes, same stats,
    same rankings."""
    import numpy as np
    import pyarrow.parquet as pq

    from search_engine_ray.engine import build as build_mod
    from search_engine_ray.engine.diagnostics import index_stats
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.engine.lexicon import fuzzy_terms, prefix_terms
    from search_engine_ray.engine.search import score_topic
    from search_engine_ray.engine.terms_io import read_terms_table, terms_source

    corpus_dir, index_dir, stats, oracle = built

    monkeypatch.setattr(build_mod, "TERMS_DRIVER_MAX_ROWS", 0)
    out = f"{BASE}/index_terms_dir"
    config = BuildConfig(block_entries=16, frags_per_shard=2)
    stats2 = build_index(corpus_dir, out, config, term_buckets=8, overwrite=True)

    src = terms_source(out)
    assert os.path.isdir(src), "expected a terms/ directory layout"
    assert not os.path.exists(os.path.join(out, "terms.parquet"))
    assert stats2["n_terms"] == stats["n_terms"]
    assert stats2["n_docs"] == stats["n_docs"]

    # identical, globally sorted terms table
    ref = pq.read_table(os.path.join(index_dir, "terms.parquet"))
    got = read_terms_table(out)
    assert got["term"].to_pylist() == ref["term"].to_pylist()
    assert got["df"].to_pylist() == ref["df"].to_pylist()

    # readers: df map, lexicon probes, diagnostics, ranking
    r_ref, r_dir = IndexReader(index_dir), IndexReader(out)
    assert r_ref._df == r_dir._df
    some_prefix = next(t for t in r_ref._df if len(t) >= 2)[:2]
    assert prefix_terms(out, some_prefix).to_pylist() == \
        prefix_terms(index_dir, some_prefix).to_pylist()
    probe = max(r_ref._df, key=len)
    assert fuzzy_terms(out, probe, 1).to_pylist() == \
        fuzzy_terms(index_dir, probe, 1).to_pylist()
    assert index_stats(out)["n_terms"] == index_stats(index_dir)["n_terms"]
    kws = [(t, 1) for t in sorted(r_ref._df, key=lambda t: -r_ref._df[t])[:3]]
    for scorer in ("bm25", "tfidf"):
        i1, s1 = score_topic(r_ref, kws, scorer=scorer, k=15)
        i2, s2 = score_topic(r_dir, kws, scorer=scorer, k=15)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(s1, s2)


def _record_codec(path: str, codec: str) -> None:
    meta = {}
    if os.path.exists(path):
        with open(path) as fh:
            meta = json.load(fh)
    with open(path, "w") as fh:
        json.dump(dict(meta, codec=codec), fh)


def test_non_vbyte_index_and_sidecar_refused(built, ray_session, tmp_path):
    """Delta+VByte is the only postings encoding: an index or positions
    sidecar whose metadata records another codec is refused by every
    reader, maintenance verb, derived tier and resume, with a ValueError
    that names the codec and says to rebuild."""
    import pandas as pd
    import pyarrow as pa

    from search_engine_ray.engine.champions import build_champion_lists
    from search_engine_ray.engine.impact import build_impact_index
    from search_engine_ray.engine.maintenance import (
        compact_index,
        fsck_index,
        merge_indexes,
        prune_terms,
        upsert_docs,
    )
    from search_engine_ray.engine.positions import (
        build_position_index,
        ordered_window_search,
        phrase_search,
        proximity_search,
    )
    from search_engine_ray.engine.qpp import qpp_predictors

    corpus_dir, index_dir, stats, _ = built
    assert stats["codec"] == "vbyte"
    config = BuildConfig(block_entries=16, frags_per_shard=2)
    corpus = str(tmp_path / "corpus")
    shutil.copytree(corpus_dir, corpus)
    bad = str(tmp_path / "fixed_index")
    shutil.copytree(index_dir, bad)
    _record_codec(os.path.join(bad, "stats.json"), "fixed")
    update = sorted(glob.glob(os.path.join(corpus, "*.parquet")))[0]
    for call in (
        lambda: IndexReader(bad),
        lambda: fsck_index(bad),
        lambda: compact_index(bad, str(tmp_path / "compacted")),
        lambda: merge_indexes(index_dir, bad, str(tmp_path / "merged")),
        lambda: prune_terms(bad, str(tmp_path / "pruned"), df_threshold=10),
        lambda: build_impact_index(bad, str(tmp_path / "impact")),
        lambda: build_champion_lists(bad, str(tmp_path / "champions")),
        lambda: qpp_predictors(bad, ["a"]),
        lambda: build_index(corpus, bad, config, term_buckets=8),
        lambda: upsert_docs(bad, corpus, update),
    ):
        with pytest.raises(ValueError, match="'fixed'.*rebuild"):
            call()
    # the refused upsert tombstoned nothing and placed no file
    assert not os.path.exists(os.path.join(bad, "tombstones.parquet"))
    assert len(os.listdir(corpus)) == len(os.listdir(corpus_dir))

    # an interrupted build left by an older version records its codec in
    # build_codec.json; resuming it must refuse unless that is vbyte
    partial = str(tmp_path / "partial_index")
    shutil.copytree(index_dir, partial)
    for name in (".complete", "stats.json"):
        os.remove(os.path.join(partial, name))
    _record_codec(os.path.join(partial, "build_codec.json"), "pfor")
    with pytest.raises(ValueError, match="'pfor'.*rebuild"):
        build_index(corpus, partial, config, term_buckets=8)

    opt = IndexOptions(case_folding=True, remove_stopwords=True, stemming=False)
    src = str(tmp_path / "docs.parquet")
    pq.write_table(
        pa.Table.from_pandas(
            pd.DataFrame({"doc_id": [1, 2], "text": ["alpha beta", "beta alpha"]}),
            preserve_index=False,
        ),
        src,
    )
    pos = str(tmp_path / "pos")
    build_position_index(src, pos, opt, source_column="text", name_column="doc_id")
    assert phrase_search(pos, ["alpha", "beta"]).num_rows == 1
    _record_codec(os.path.join(pos, "positions_stats.json"), "fixed")
    for call in (
        lambda: phrase_search(pos, ["alpha", "beta"]),
        lambda: phrase_search(pos, ["alpha", "beta"], opt),
        lambda: proximity_search(pos, "alpha", "beta", 2),
        lambda: ordered_window_search(pos, "alpha", "beta", 2, opt),
        lambda: build_position_index(src, pos, opt, source_column="text", name_column="doc_id"),
    ):
        with pytest.raises(ValueError, match="'fixed'.*rebuild"):
            call()
    os.remove(os.path.join(pos, "positions_stats.json"))
    _record_codec(os.path.join(pos, "positions_codec.json"), "fixed")
    with pytest.raises(ValueError, match="'fixed'.*rebuild"):
        build_position_index(src, pos, opt, source_column="text", name_column="doc_id")
