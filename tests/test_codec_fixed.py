"""Fixed-width postings codec: roundtrips, codec dispatch, and the
bit-identity contract — an index built with codec="fixed" must score,
fsck, compact, and maintain exactly like its vbyte twin."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from search_engine_ray.config import BuildConfig
from search_engine_ray.corpus.pages import write_pages_parquet
from search_engine_ray.engine.build import build_index
from search_engine_ray.engine.codec import (
    decode_cells,
    decode_one,
    decode_one_delta,
    encode_cells,
    fixed_decode,
    fixed_decode_cells,
    fixed_encode_cells,
    index_codec,
)
from search_engine_ray.engine.index_reader import IndexReader
from search_engine_ray.engine.search import score_topic, search_topics

BASE = "/tmp/se_ray_codec"


# ---------------------------------------------------------------- unit ----

@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=40),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_fixed_cells_roundtrip(rows):
    flat = np.array([v for r in rows for v in r], dtype=np.uint64)
    lens = np.array([len(r) for r in rows], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    cells = fixed_encode_cells(flat, starts)
    assert len(cells) == len(rows)
    back = fixed_decode_cells(cells, lens)
    assert back.tolist() == flat.tolist()
    # single-cell decode agrees with the batched kernel
    for i, r in enumerate(rows[:5]):
        one = fixed_decode(cells[i].as_py(), len(r))
        assert one.tolist() == r


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=30, unique=True),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=40, deadline=None)
def test_dispatch_delta_roundtrip_both_codecs(rows):
    rows = [sorted(r) for r in rows]
    flat = np.array([v for r in rows for v in r], dtype=np.int64)
    lens = np.array([len(r) for r in rows], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    for codec in ("vbyte", "fixed"):
        cells = encode_cells(flat, starts, delta=True, codec=codec)
        back = decode_cells(cells, lens, delta=True, codec=codec)
        assert back.tolist() == flat.tolist()
        one = decode_one_delta(cells[0].as_py(), int(lens[0]), codec)
        assert one.tolist() == rows[0]
        nd = encode_cells(flat, starts, delta=False, codec=codec)
        assert decode_one(nd[0].as_py(), int(lens[0]), codec).tolist() == [
            v for v in rows[0]
        ]


def test_fixed_width_boundaries():
    # values straddling every width boundary, one cell each
    vals = np.array([255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**63], dtype=np.uint64)
    starts = np.arange(7, dtype=np.int64)
    cells = fixed_encode_cells(vals, starts)
    widths = [cells[i].as_py()[0] for i in range(7)]
    assert widths == [1, 2, 2, 4, 4, 8, 8]
    assert fixed_decode_cells(cells, np.ones(7, np.int64)).tolist() == vals.tolist()


def test_unknown_codec_rejected():
    with pytest.raises(ValueError):
        encode_cells(np.array([1]), np.array([0]), delta=False, codec="nope")
    with pytest.raises(ValueError):
        decode_cells(pa.array([b"\x01\x01"]), np.array([1]), delta=False, codec="nope")


def test_corrupt_fixed_cell_rejected():
    with pytest.raises(ValueError):
        fixed_decode(b"\x03\x01\x02\x03", 1)  # width 3 is not a legal width


# ---------------------------------------------------------- end-to-end ----

@pytest.fixture(scope="module")
def twin_indexes(ray_session):
    shutil.rmtree(BASE, ignore_errors=True)
    corpus = f"{BASE}/corpus"
    write_pages_parquet(corpus, 150, seed=33, n_files=2, row_group_size=64)
    dirs = {}
    for codec in ("vbyte", "fixed"):
        out = f"{BASE}/index_{codec}"
        cfg = BuildConfig(block_entries=16, frags_per_shard=2, codec=codec)
        stats = build_index(corpus, out, cfg, term_buckets=8, overwrite=True)
        assert stats["codec"] == codec
        dirs[codec] = out
    return corpus, dirs


def _topics(index_dir, n_terms=4):
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(index_dir, "terms.parquet"))
    order = np.argsort(-np.asarray(t["df"]))[:n_terms]
    return [(1, [(t["term"][int(i)].as_py(), 1) for i in order])]


def test_stats_detect_codec(twin_indexes):
    _, dirs = twin_indexes
    assert index_codec(dirs["vbyte"]) == "vbyte"
    assert index_codec(dirs["fixed"]) == "fixed"


def test_search_bit_identical_across_codecs(twin_indexes, ray_session):
    _, dirs = twin_indexes
    topics = _topics(dirs["vbyte"])
    for scorer in ("bm25", "tfidf"):
        for method in ("taat", "maxscore"):
            a = search_topics(dirs["vbyte"], topics, scorer=scorer, k=30, method=method)
            b = search_topics(dirs["fixed"], topics, scorer=scorer, k=30, method=method)
            assert a.equals(b), (scorer, method)


def test_postings_decode_identical(twin_indexes):
    _, dirs = twin_indexes
    ra, rb = IndexReader(dirs["vbyte"]), IndexReader(dirs["fixed"])
    terms = sorted(ra._df)[:50]
    for t in terms:
        pa_, pb_ = ra.postings(t), rb.postings(t)
        for x, y in zip(pa_.arrays(), pb_.arrays()):
            assert x.tolist() == y.tolist(), t


def test_fsck_green_on_fixed(twin_indexes, ray_session):
    from search_engine_ray.engine.maintenance import fsck_index

    _, dirs = twin_indexes
    rep = fsck_index(dirs["fixed"])
    assert rep["violations"] == 0


def test_compact_fixed_matches_vbyte(twin_indexes, ray_session):
    from search_engine_ray.engine.maintenance import compact_index, delete_docs

    _, dirs = twin_indexes
    r = IndexReader(dirs["fixed"])
    victims = [str(n) for n in r.doc_names[:5]]
    outs = {}
    for codec, src in dirs.items():
        work = f"{BASE}/work_{codec}"
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(src, work)
        delete_docs(work, victims)
        out = f"{BASE}/compacted_{codec}"
        shutil.rmtree(out, ignore_errors=True)
        stats = compact_index(work, out)
        assert stats.get("codec", "vbyte") == codec
        assert index_codec(out) == codec
        outs[codec] = out
    topics = _topics(dirs["vbyte"])
    a = search_topics(outs["vbyte"], topics, scorer="bm25", k=30)
    b = search_topics(outs["fixed"], topics, scorer="bm25", k=30)
    assert a.equals(b)


def test_merge_rejects_codec_mismatch(twin_indexes, ray_session):
    from search_engine_ray.engine.maintenance import merge_indexes

    _, dirs = twin_indexes
    with pytest.raises(ValueError, match="codec"):
        merge_indexes(dirs["vbyte"], dirs["fixed"], f"{BASE}/bad_merge", overwrite=True)


def test_resume_rejects_codec_switch(twin_indexes, ray_session):
    # an INCOMPLETE fixed build must refuse to resume under vbyte (the
    # already-written segment cells are physically fixed-width); the
    # complete-marker fast path above this guard is a read-only no-op and
    # is allowed for any config
    corpus, dirs = twin_indexes
    work = f"{BASE}/resume_switch"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(dirs["fixed"], work)
    os.remove(os.path.join(work, ".complete"))
    with pytest.raises(ValueError, match="codec"):
        build_index(
            corpus,
            work,
            BuildConfig(block_entries=16, frags_per_shard=2, codec="vbyte"),
            term_buckets=8,
        )


def test_positions_sidecar_both_codecs(twin_indexes, ray_session):
    from search_engine_ray.config import IndexOptions
    from search_engine_ray.engine.positions import (
        build_position_index,
        ordered_window_search,
        phrase_search,
        proximity_search,
    )

    corpus, _ = twin_indexes
    opts = IndexOptions(stemming=False)
    dirs = {}
    for codec in ("vbyte", "fixed"):
        out = f"{BASE}/pos_{codec}"
        shutil.rmtree(out, ignore_errors=True)
        stats = build_position_index(
            corpus, out, opts, source_column="html", name_column="url", codec=codec
        )
        assert stats["codec"] == codec
        dirs[codec] = out
    # find a real bigram from the corpus text to query
    import pyarrow.dataset as pads
    import pyarrow.compute as pc

    from search_engine_ray.corpus.extract import extract_text_batch

    from search_engine_ray.text.tokenizer import normalize_query_word

    tbl = pads.dataset(corpus).to_table(columns=["html"])
    words = extract_text_batch(tbl["html"].combine_chunks())[0].as_py().split()
    # adjacent pair that BOTH survive normalization to distinct terms
    w1 = w2 = None
    for i in range(len(words) - 1):
        a_ = normalize_query_word(words[i], stemming=False)
        b_ = normalize_query_word(words[i + 1], stemming=False)
        if a_ and b_ and a_ != b_:
            w1, w2 = words[i], words[i + 1]
            break
    assert w1 is not None
    for fn, args in (
        (phrase_search, ([w1, w2],)),
        (proximity_search, (w1, w2, 3)),
        (ordered_window_search, (w1, w2, 3)),
    ):
        a = fn(dirs["vbyte"], *args)
        b = fn(dirs["fixed"], *args)
        assert a.equals(b), fn.__name__
        assert a.num_rows > 0, fn.__name__  # the probe must actually match

    # codec switch on an existing sidecar must refuse
    with pytest.raises(ValueError, match="codec"):
        build_position_index(
            corpus, dirs["fixed"], opts, source_column="html",
            name_column="url", codec="vbyte",
        )


def test_champion_lists_fixed(twin_indexes, ray_session):
    # champions decode segment cells directly (decode_one/_delta path) —
    # the exact regime (m >= every df) must be bit-identical across codecs
    from search_engine_ray.engine.champions import build_champion_lists, champion_topk

    _, dirs = twin_indexes
    kws = _topics(dirs["vbyte"])[0][1]
    outs = {}
    for codec, src in dirs.items():
        out = f"{BASE}/champ_{codec}"
        shutil.rmtree(out, ignore_errors=True)
        build_champion_lists(src, out, m=4096)
        outs[codec] = out
    ra, rb = IndexReader(dirs["vbyte"]), IndexReader(dirs["fixed"])
    ia, sa = champion_topk(outs["vbyte"], ra, kws, k=20)
    ib, sb = champion_topk(outs["fixed"], rb, kws, k=20)
    assert ia.tolist() == ib.tolist()
    assert sa.tolist() == sb.tolist()


def test_sharded_search_fixed(twin_indexes, ray_session):
    from search_engine_ray.engine.sharded_search import search_topics_sharded

    _, dirs = twin_indexes
    topics = _topics(dirs["vbyte"])
    a = search_topics_sharded(dirs["vbyte"], topics, scorer="bm25", k=20).to_pandas()
    b = search_topics_sharded(dirs["fixed"], topics, scorer="bm25", k=20).to_pandas()
    assert a.equals(b)
