"""Stage 2 of the index build: the term-keyed shuffle.

The reference folds per-worker indexes serially on one thread with docID
rebasing (/root/reference/src/Indexing/Indexer.cs:100-112,
WriteableIndex.cs:74-100).  Here the merge is the one genuine all-to-all:

    read_parquet(segments) -> groupby(bucket, shard) -> map_groups(merge)

Keys and skew (SURVEY.md §4, §7.4.3):

- ``bucket = crc32(term) % term_buckets`` coarsens the exchange so one
  group carries MANY terms and the per-group merge is a single vectorized
  pass (lexsort + reduceat), not a Python call per term.
- ``shard = frag_id // frags_per_shard`` caps any group's payload by doc
  range: a head term (df ~ N, e.g. a disabled stopword) is merged
  per-shard into independent fixed-size blocks and is NEVER concatenated
  into one payload anywhere — the MaxScore cursors consume blocks
  independently.  Blocks are globally docID-ordered because fragments
  (hence shards) own disjoint ascending docID ranges.

Each output block row carries delta+VByte-compressed postings (one
vectorized encode per group, sliced zero-copy per block) plus
idf-independent score-bound metadata:

    ub_tfn / lb_tfn = max / min over the block of tf/(tf + k1*(1-b+b*dl/avgdl))
    ub_logtf        = max ln(1+tf)

so query-time bounds are ``idf * (ub_tfn if idf>0 else lb_tfn) * qtf_factor``
(BM25) and ``idf * ub_logtf`` (TF-IDF >= 0).  df/idf live in the separate
tiny ``terms`` table and never force block rewrites.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import BuildConfig
from .codec import decode_concat_rows, encode_rows

POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("shard", pa.int32()),
        ("block_no", pa.int32()),
        ("n", pa.int32()),
        ("first_doc", pa.int64()),
        ("last_doc", pa.int64()),
        ("docs_enc", pa.binary()),
        ("tfs_enc", pa.binary()),
        ("dls_enc", pa.binary()),
        ("ub_tfn", pa.float32()),
        ("lb_tfn", pa.float32()),
        ("ub_logtf", pa.float32()),
    ]
)


def term_bucket_array(terms: pa.Array, n_buckets: int) -> pa.Array:
    """Stable bucket id per term (crc32 over utf-8, mod n_buckets).

    Computed over the dictionary-encoded uniques only — the Python crc32
    loop touches each distinct term once per batch.
    """
    denc = terms.dictionary_encode() if not isinstance(terms, pa.DictionaryArray) else terms
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    uniq = denc.dictionary.to_pylist()
    buckets = np.asarray(
        [zlib.crc32(t.encode("utf-8")) % n_buckets for t in uniq], dtype=np.int32
    )
    codes = np.asarray(denc.indices, dtype=np.int64)
    return pa.array(buckets[codes] if len(codes) else np.empty(0, np.int32), pa.int32())


def add_merge_keys(batch: pa.Table, frags_per_shard: int, term_buckets: int) -> pa.Table:
    term_col = batch["term"].combine_chunks() if isinstance(batch["term"], pa.ChunkedArray) else batch["term"]
    shard = pc.cast(pc.divide(batch["frag_id"], frags_per_shard), pa.int32())
    bucket = term_bucket_array(term_col, term_buckets)
    return batch.append_column("shard", shard).append_column("bucket", bucket)


def encode_blocks(
    terms_u: pa.Array,
    term_flat_starts: "np.ndarray",
    term_flat_ends: "np.ndarray",
    doc_ids: "np.ndarray",
    tfs: "np.ndarray",
    dls: "np.ndarray",
    shard: int,
    block_entries: int,
    k1: float,
    b: float,
    avgdl: float,
) -> pa.Table:
    """Vectorized block layout + score-bound metadata + per-block
    delta+VByte encode for per-term flat posting ranges (globally
    docID-sorted within each term).  Shared by the build merge and index
    compaction."""
    bk = block_entries
    term_lens = term_flat_ends - term_flat_starts
    n_blocks_t = (term_lens + bk - 1) // bk
    total_blocks = int(n_blocks_t.sum())
    bt = np.repeat(np.arange(len(term_lens)), n_blocks_t)  # term idx per block
    blk_no = np.arange(total_blocks) - np.repeat(
        np.concatenate(([0], np.cumsum(n_blocks_t)[:-1])), n_blocks_t
    )
    blk_starts = term_flat_starts[bt] + blk_no * bk
    blk_ends = np.minimum(blk_starts + bk, term_flat_ends[bt])

    norm = 1.0 - b + b * (dls.astype(np.float64) / avgdl)
    tfn = tfs / (tfs + k1 * norm)
    logtf = np.log1p(tfs)
    ub_tfn = np.maximum.reduceat(tfn, blk_starts)
    lb_tfn = np.minimum.reduceat(tfn, blk_starts)
    ub_logtf = np.maximum.reduceat(logtf, blk_starts)

    docs_enc = encode_rows(doc_ids, blk_starts, delta=True)
    tfs_enc = encode_rows(tfs, blk_starts, delta=False)
    dls_enc = encode_rows(dls, blk_starts, delta=False)
    return pa.table(
        {
            "term": terms_u.take(pa.array(bt)),
            "shard": pa.array(np.full(total_blocks, shard, dtype=np.int32)),
            "block_no": pa.array(blk_no.astype(np.int32)),
            "n": pa.array((blk_ends - blk_starts).astype(np.int32)),
            "first_doc": pa.array(doc_ids[blk_starts], pa.int64()),
            "last_doc": pa.array(doc_ids[blk_ends - 1], pa.int64()),
            "docs_enc": docs_enc,
            "tfs_enc": tfs_enc,
            "dls_enc": dls_enc,
            "ub_tfn": pa.array(ub_tfn.astype(np.float32)),
            "lb_tfn": pa.array(lb_tfn.astype(np.float32)),
            "ub_logtf": pa.array(ub_logtf.astype(np.float32)),
        },
        schema=POSTINGS_SCHEMA,
    )


def make_merge_fn(config: BuildConfig, avgdl: float):
    """map_groups callable for one (bucket, shard) group — many terms, one pass."""
    k1 = config.bm25.k1
    b = config.bm25.b
    bk = config.block_entries

    def _passthrough(g1: pa.Table, shard: int) -> pa.Table:
        """Blocks for single-input-row tail terms WITHOUT decode/re-encode:
        a segment row's encoding (delta restarting at the row, first value
        absolute) IS the block encoding when the row fits one block, so the
        three compressed cells transfer as-is; bounds come from the per-row
        tf/dl extrema (valid, slightly loose — see segments.SEGMENT_SCHEMA).
        Tail terms dominate ROW count in any Zipf vocabulary, so this skips
        most per-row work of the exchange's reduce side."""
        max_tf = np.asarray(g1["max_tf"], dtype=np.float64)
        min_tf = np.asarray(g1["min_tf"], dtype=np.float64)
        min_dl = np.asarray(g1["min_dl"], dtype=np.float64)
        max_dl = np.asarray(g1["max_dl"], dtype=np.float64)
        ub = max_tf / (max_tf + k1 * (1.0 - b + b * (min_dl / avgdl)))
        lb = min_tf / (min_tf + k1 * (1.0 - b + b * (max_dl / avgdl)))
        n_rows = g1.num_rows
        return pa.table(
            {
                "term": g1["term"],
                "shard": pa.array(np.full(n_rows, shard, dtype=np.int32)),
                "block_no": pa.array(np.zeros(n_rows, dtype=np.int32)),
                "n": g1["df_local"],
                "first_doc": g1["min_doc"],
                "last_doc": g1["max_doc"],
                "docs_enc": g1["docs_enc"],
                "tfs_enc": g1["tfs_enc"],
                "dls_enc": g1["dls_enc"],
                "ub_tfn": pa.array(ub.astype(np.float32)),
                "lb_tfn": pa.array(lb.astype(np.float32)),
                "ub_logtf": pa.array(np.log1p(max_tf).astype(np.float32)),
            },
            schema=POSTINGS_SCHEMA,
        )

    def merge_group(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return POSTINGS_SCHEMA.empty_table()
        shard = group["shard"][0].as_py()

        term_col = group["term"].combine_chunks() if isinstance(group["term"], pa.ChunkedArray) else group["term"]
        denc = term_col.dictionary_encode()
        codes = np.asarray(denc.indices, dtype=np.int64)

        # split: terms with ONE input row that fits one block pass through
        # compressed; the rest take the decode->merge->encode path.  (Old
        # segment files without the stats columns — resumed round-1 builds —
        # fall back to the full path for every row.)
        stats_cols = ("max_doc", "max_tf", "min_tf", "min_dl", "max_dl")
        if all(c in group.column_names for c in stats_cols):
            df_local_all = np.asarray(group["df_local"], dtype=np.int64)
            counts = np.bincount(codes, minlength=len(denc.dictionary))
            single = (counts[codes] == 1) & (df_local_all <= bk)
            # cross-version resume: an appended build mixes old segment
            # files (no stats columns -> NULL after schema unification)
            # with new ones; NULL-stat rows must take the full merge path
            if any(group[c].null_count for c in stats_cols):
                for c in stats_cols:
                    col = group[c]
                    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
                    single &= ~np.asarray(pc.is_null(col))
        else:
            single = np.zeros(len(codes), dtype=bool)
        pt_table = None
        if single.any():
            pt_table = _passthrough(group.filter(pa.array(single)), shard)
            if single.all():
                return pt_table
            group = group.filter(pa.array(~single))
            term_col = group["term"].combine_chunks() if isinstance(group["term"], pa.ChunkedArray) else group["term"]
            denc = term_col.dictionary_encode()
            codes = np.asarray(denc.indices, dtype=np.int64)

        min_doc = np.asarray(group["min_doc"])

        # order segment rows by (term, min_doc); disjoint fragment doc
        # ranges make the per-term concatenation globally docID-sorted
        # (streaming analogue of PostingList.Append, PostingList.cs:84-120).
        order = np.lexsort((min_doc, codes))
        tbl = group.select(["df_local", "docs_enc", "tfs_enc", "dls_enc"]).take(pa.array(order))
        codes = codes[order]

        # decode the whole group's compressed rows in three vectorized passes
        row_lens = np.asarray(tbl["df_local"], dtype=np.int64)
        doc_ids = decode_concat_rows(tbl["docs_enc"], row_lens, delta=True)
        tfs = decode_concat_rows(tbl["tfs_enc"], row_lens, delta=False)
        dls = decode_concat_rows(tbl["dls_enc"], row_lens, delta=False)

        # per-term flat ranges
        row_term_change = np.empty(len(codes), dtype=bool)
        row_term_change[0] = True
        np.not_equal(codes[1:], codes[:-1], out=row_term_change[1:])
        flat_row_starts = np.concatenate(([0], np.cumsum(row_lens)[:-1]))
        term_flat_starts = flat_row_starts[row_term_change]
        term_flat_ends = np.append(term_flat_starts[1:], len(doc_ids))
        term_lens = term_flat_ends - term_flat_starts
        term_codes_u = codes[row_term_change]
        terms_u = denc.dictionary.take(pa.array(term_codes_u))

        # vectorized block layout + encode (shared with compaction)
        merged_tbl = encode_blocks(
            terms_u, term_flat_starts, term_flat_ends, doc_ids, tfs, dls,
            shard, bk, k1, b, avgdl,
        )
        if pt_table is not None:
            return pa.concat_tables([pt_table, merged_tbl])
        return merged_tbl

    return merge_group
