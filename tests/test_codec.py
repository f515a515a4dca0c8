"""Delta+VByte codec: decode(encode(x)) == x, vectorized offsets correct,
and metadata recording any other postings codec is refused."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from search_engine_ray.engine.codec import (
    decode_concat_rows,
    delta_decode,
    encode_rows,
    load_meta,
    vbyte_decode,
    vbyte_encode,
    vbyte_encode_offsets,
)


def test_empty():
    assert vbyte_encode(np.array([], dtype=np.int64)) == b""
    assert len(vbyte_decode(b"")) == 0
    empty = np.array([], dtype=np.int64)
    cells = encode_rows(empty, empty, delta=True)
    assert len(cells) == 0
    assert len(decode_concat_rows(cells, empty, delta=True)) == 0


def test_known_values():
    vals = np.array([0, 1, 127, 128, 255, 16383, 16384, 2**40, 2**63 - 1], dtype=np.uint64)
    out = vbyte_decode(vbyte_encode(vals), len(vals))
    assert (out == vals).all()
    with pytest.raises(ValueError):
        vbyte_decode(vbyte_encode(vals), len(vals) + 1)


@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=200))
def test_vbyte_roundtrip(values):
    vals = np.asarray(values, dtype=np.uint64)
    got = vbyte_decode(vbyte_encode(vals))
    assert got.tolist() == values


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=30, unique=True),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=60, deadline=None)
def test_delta_roundtrip(rows):
    """Rows of ascending ids, one delta cell per row: the batched decoder
    and the single-cell decoders both give the ids back."""
    rows = [sorted(r) for r in rows]
    flat = np.array([v for r in rows for v in r], dtype=np.int64)
    lens = np.array([len(r) for r in rows], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    cells = encode_rows(flat, starts, delta=True)
    assert len(cells) == len(rows)
    assert decode_concat_rows(cells, lens, delta=True).tolist() == flat.tolist()
    for i, r in enumerate(rows[:5]):
        assert delta_decode(cells[i].as_py(), len(r)).tolist() == r
    plain = encode_rows(flat, starts, delta=False)
    assert decode_concat_rows(plain, lens, delta=False).tolist() == flat.tolist()
    assert vbyte_decode(plain[0].as_py(), len(rows[0])).tolist() == rows[0]


def test_offsets_slicing():
    vals = np.array([5, 300, 0, 2**21, 7], dtype=np.uint64)
    buf, ends = vbyte_encode_offsets(vals)
    # slicing the buffer at any value boundary yields a valid stream
    for split in range(1, len(vals)):
        left = buf[: ends[split - 1]].tobytes()
        right = buf[ends[split - 1] :].tobytes()
        assert vbyte_decode(left).tolist() == vals[:split].tolist()
        assert vbyte_decode(right).tolist() == vals[split:].tolist()


def test_delta_rejects_unsorted():
    with pytest.raises(ValueError):
        encode_rows(np.array([3, 2], dtype=np.int64), np.array([0]), delta=True)


def test_load_meta_refuses_other_codecs(tmp_path):
    path = tmp_path / "stats.json"
    for meta in ({"n_docs": 3}, {"n_docs": 3, "codec": "vbyte"}):
        path.write_text(json.dumps(meta))
        assert load_meta(str(path)) == meta
    for codec in ("fixed", "pfor"):
        path.write_text(json.dumps({"n_docs": 3, "codec": codec}))
        with pytest.raises(ValueError, match=f"'{codec}'.*rebuild"):
            load_meta(str(path))
