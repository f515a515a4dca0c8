"""Delta + VByte posting compression (vectorized numpy, no per-row loops).

Replaces the reference's raw ``(int32 docId, uint16 tf)*`` dump
(/root/reference/src/Indexing/WriteableIndex.cs:154-188) with the standard
compressed layout for web-scale posting lists: docIDs are delta-gapped then
VByte-encoded (7 data bits per byte, high bit terminates a value,
little-endian groups); tfs and doc lengths are VByte-encoded directly.

Both directions are O(max_bytes_per_value) vectorized passes (<= 10 numpy
ops over the whole array), so encode/decode speed scales with memory
bandwidth, not Python overhead.

This is the one encoding of every segment, posting block, impact segment
and positions sidecar cell; ``load_meta`` refuses artifacts whose metadata
records any other codec.
"""

from __future__ import annotations

import numpy as np

_MAX_BYTES = 10  # enough for uint64
# value v needs k bytes iff v >= 2^(7*(k-1)); thresholds for k = 2..10
_BYTE_THRESHOLDS = (np.uint64(1) << (np.uint64(7) * np.arange(1, 10, dtype=np.uint64)))


def vbyte_encode_offsets(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """VByte-encode a non-negative int array.

    Returns ``(bytes_u8, ends)`` where ``ends[i]`` is the byte offset one
    past value i — callers slice the single buffer into contiguous runs
    (e.g. one slice per 128-entry posting block) with zero re-encoding.
    """
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
    # bytes per value in ONE pass (values below 2^(7k) need k bytes) — a
    # bit-length loop here would make ~40 full-array passes and saturate
    # memory bandwidth when many merge workers run concurrently
    nbytes = np.searchsorted(_BYTE_THRESHOLDS, v, side="right") + 1
    ends = np.cumsum(nbytes)
    total = int(ends[-1])
    out = np.zeros(total, dtype=np.uint8)
    starts = ends - nbytes
    shifted = v.copy()
    maxb = int(nbytes.max())
    for j in range(maxb):
        sel = nbytes > j
        out[starts[sel] + j] = (shifted[sel] & np.uint64(0x7F)).astype(np.uint8)
        shifted = shifted >> np.uint64(7)
    out[ends - 1] |= 0x80  # terminator bit on the last byte of each value
    return out, ends


def vbyte_encode(values: np.ndarray) -> bytes:
    """VByte-encode a non-negative int array."""
    out, _ends = vbyte_encode_offsets(values)
    return out.tobytes()


def vbyte_decode(buf: bytes, count: int | None = None) -> np.ndarray:
    data = np.frombuffer(buf, dtype=np.uint8)
    if data.size == 0:
        return np.empty(0, dtype=np.uint64)
    ends = np.flatnonzero(data & 0x80)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    values = np.zeros(len(ends), dtype=np.uint64)
    maxb = int(lengths.max())
    for j in range(maxb):
        sel = lengths > j
        values[sel] |= (data[starts[sel] + j] & np.uint64(0x7F)).astype(np.uint64) << np.uint64(7 * j)
    if count is not None and len(values) != count:
        raise ValueError(f"decoded {len(values)} values, expected {count}")
    return values


def sliced_binary(data: np.ndarray, value_ends: np.ndarray, run_starts: np.ndarray, n_values: int):
    """Zero-copy Arrow BinaryArray: one slice of a shared encode buffer per
    run of values (runs = posting rows / blocks).  ``run_starts`` are value
    indices; byte boundaries come from ``value_ends``."""
    import pyarrow as pa

    if n_values and int(value_ends[-1]) > np.iinfo(np.int32).max:
        # pa.binary() offsets are int32; a silent wrap would corrupt posting
        # blocks.  Reachable only with user-forced term_buckets / extreme
        # skew — the auto bucket sizing keeps groups ~0.5 MiB (ADVICE r1).
        raise ValueError(
            f"encoded payload ({int(value_ends[-1])} bytes) exceeds the 2 GiB "
            "binary-offset limit for one merge group; increase term_buckets "
            "(or leave it on auto sizing)"
        )
    n_runs = len(run_starts)
    offsets = np.empty(n_runs + 1, dtype=np.int32)
    starts_prev = run_starts - 1
    byte_starts = np.where(run_starts > 0, value_ends[starts_prev], 0)
    offsets[:-1] = byte_starts
    offsets[-1] = value_ends[-1] if n_values else 0
    return pa.Array.from_buffers(
        pa.binary(),
        n_runs,
        [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(data.tobytes())],
    )


def encode_rows(values: np.ndarray, row_starts: np.ndarray, delta: bool):
    """One VByte pass over ``values`` (optionally delta-gapped with the gap
    stream restarting at each row), sliced zero-copy into one binary cell
    per row.  The inverse of ``decode_concat_rows``."""
    if delta:
        v = np.asarray(values, dtype=np.int64)
        gaps = v.copy()
        if len(v):
            gaps[1:] -= v[:-1]
            gaps[row_starts] = v[row_starts]
            if len(v) > 1 and gaps.min() < 0:
                raise ValueError("values must be ascending within each row")
        payload = gaps.astype(np.uint64)
    else:
        payload = np.asarray(values, dtype=np.uint64)
    data, ends = vbyte_encode_offsets(payload)
    return sliced_binary(data, ends, row_starts, len(payload))


def _concat_binary_bytes(col) -> bytes:
    """Contiguous bytes of a (Large)BinaryArray's rows in row order
    (zero-copy)."""
    import pyarrow as pa

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    off_dtype = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[arr.offset : arr.offset + len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    return data[offs[0] : offs[-1]]


def decode_concat_rows(col, n_per_row: np.ndarray, delta: bool) -> np.ndarray:
    """Decode a column of per-row VByte cells into one flat value array
    (values in row order).  For delta cells the absolute values are
    reconstructed per row with a single vectorized cumsum."""
    flat = _concat_binary_bytes(col)
    total = int(n_per_row.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    vals = vbyte_decode(flat, total)
    if not delta:
        return vals.astype(np.int64)
    cum = np.cumsum(vals.astype(np.int64))
    row_ends = np.cumsum(n_per_row)
    bases = np.repeat(
        np.concatenate(([0], cum[row_ends[:-1] - 1])), n_per_row
    )
    return cum - bases


def delta_decode(buf: bytes, count: int | None = None) -> np.ndarray:
    """Decode ONE delta-gapped cell back to its ascending ids."""
    gaps = vbyte_decode(buf, count)
    return np.cumsum(gaps.astype(np.int64))


def load_meta(path: str) -> dict:
    """Read a JSON metadata file that may record the postings codec
    (``stats.json``, ``positions_stats.json``, or a ``build_codec.json`` /
    ``positions_codec.json`` resume marker left by an older build) and
    refuse it unless that codec is delta+VByte, the only encoding this
    engine reads.  Files without a codec field predate it and are VByte."""
    import json

    with open(path) as fh:
        meta = json.load(fh)
    codec = meta.get("codec", "vbyte")
    if codec != "vbyte":
        raise ValueError(
            f"{path} records postings codec {codec!r}; only 'vbyte' is "
            "supported — rebuild the index"
        )
    return meta
