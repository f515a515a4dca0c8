"""PFor (patched frame-of-reference) postings codec: roundtrips incl.
exception-heavy skew, codec dispatch, and the bit-identity contract — an
index built with codec="pfor" must score and fsck exactly like its vbyte
twin."""

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
    index_codec,
    pfor_decode,
    pfor_decode_cells,
    pfor_encode_cells,
)
from search_engine_ray.engine.maintenance import fsck_index
from search_engine_ray.engine.search import search_topics

BASE = "/tmp/se_ray_codec_pfor"


# ---------------------------------------------------------------- unit ----

@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=40),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_pfor_cells_roundtrip(rows):
    flat = np.array([v for r in rows for v in r], dtype=np.uint64)
    lens = np.array([len(r) for r in rows], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    cells = pfor_encode_cells(flat, starts)
    assert len(cells) == len(rows)
    back = pfor_decode_cells(cells, lens)
    assert back.tolist() == flat.tolist()
    for i, r in enumerate(rows[:5]):
        assert pfor_decode(cells[i].as_py(), len(r)).tolist() == r


def test_pfor_exception_patching():
    # 120 tiny values + 8 huge: b stays small, the 8 land as exceptions
    rng = np.random.default_rng(9)
    small = rng.integers(1, 100, size=120)
    big = rng.integers(2**40, 2**50, size=8)
    vals = np.concatenate([small, big]).astype(np.uint64)
    rng.shuffle(vals)
    cells = pfor_encode_cells(vals, np.asarray([0]))
    buf = cells[0].as_py()
    b = buf[4]
    n_exc = int.from_bytes(buf[5:9], "little")
    assert b <= 7  # 87.5th percentile of mostly-tiny values
    assert 8 <= n_exc <= 16  # the huge values (plus at most the tie tail)
    assert pfor_decode(buf, 128).tolist() == vals.tolist()
    # compression actually happened: far below 8 bytes/value
    assert len(buf) < 128 * 4


def test_pfor_all_zero_and_constant_rows():
    vals = np.asarray([0, 0, 0, 7, 7, 7, 7], dtype=np.uint64)
    starts = np.asarray([0, 3], dtype=np.int64)
    cells = pfor_encode_cells(vals, starts)
    assert pfor_decode_cells(cells, np.asarray([3, 4])).tolist() == vals.tolist()


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=30, unique=True),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=40, deadline=None)
def test_dispatch_delta_roundtrip_pfor(rows):
    rows = [sorted(r) for r in rows]
    flat = np.array([v for r in rows for v in r], dtype=np.int64)
    lens = np.array([len(r) for r in rows], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    cells = encode_cells(flat, starts, delta=True, codec="pfor")
    back = decode_cells(cells, lens, delta=True, codec="pfor")
    assert back.tolist() == flat.tolist()
    assert decode_one_delta(cells[0].as_py(), int(lens[0]), "pfor").tolist() == rows[0]
    nd = encode_cells(flat, starts, delta=False, codec="pfor")
    assert decode_one(nd[0].as_py(), int(lens[0]), "pfor").tolist() == rows[0]


def test_pfor_count_mismatch_rejected():
    cells = pfor_encode_cells(np.asarray([5, 6], dtype=np.uint64), np.asarray([0]))
    with pytest.raises(ValueError):
        pfor_decode(cells[0].as_py(), count=3)
    with pytest.raises(ValueError):
        pfor_decode_cells(cells, np.asarray([3]))


# ---------------------------------------------------------- end-to-end ----

@pytest.fixture(scope="module")
def twin_indexes(ray_session):
    shutil.rmtree(BASE, ignore_errors=True)
    corpus = f"{BASE}/corpus"
    write_pages_parquet(corpus, 150, seed=47, n_files=2, row_group_size=64)
    dirs = {}
    for codec in ("vbyte", "pfor"):
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


def test_pfor_index_detects_and_fscks(twin_indexes):
    _, dirs = twin_indexes
    assert index_codec(dirs["pfor"]) == "pfor"
    assert fsck_index(dirs["pfor"])["violations"] == 0


def test_search_bit_identical_vbyte_vs_pfor(twin_indexes, ray_session):
    _, dirs = twin_indexes
    topics = _topics(dirs["vbyte"])
    for scorer in ("bm25", "tfidf"):
        for method in ("taat", "maxscore"):
            a = search_topics(dirs["vbyte"], topics, scorer=scorer, k=30, method=method)
            b = search_topics(dirs["pfor"], topics, scorer=scorer, k=30, method=method)
            assert a.equals(b), (scorer, method)
