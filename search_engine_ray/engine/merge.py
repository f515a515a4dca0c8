"""Stage 2 of the index build: the term-keyed shuffle, and the postings
file layout every later verb reads and rewrites.

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

Layout: each merge group is written as ONE file,
``postings/sSSSSS-bBBBBB.parquet`` (shard, bucket), its rows sorted by
(term, block_no) and committed through a hidden tmp + ``os.replace`` —
so two builds of one corpus give byte-identical trees, and a file holds
every block of its terms in its shard.  ``postings_files`` maps the
directory to {shard: [paths]} from the names alone; compact, merge and
prune rewrite file by file (``map_postings_files``) with no second
shuffle, through the same re-block kernel as the build (``reblock``).

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

import os
import re
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

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
    docID-sorted within each term).  Called by ``reblock`` only."""
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




def _flat(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def reblock(
    rows: pa.Table,
    shard: int,
    block_entries: int,
    k1: float,
    b: float,
    avgdl: float,
    remap=None,
) -> pa.Table:
    """The one re-block kernel (build merge, compact, merge_indexes): one
    shard's compressed posting rows (term, first_doc, n and the three
    ``*_enc`` cells; other columns are ignored) sorted by
    (term, first_doc) -> decoded in three vectorized passes -> docIDs
    through ``remap(ids) -> (new_ids, keep)`` (``keep`` None keeps every
    entry) -> per-term runs -> ``encode_blocks`` with ``avgdl``.  Rows of
    one term cover disjoint ascending doc ranges, so each run is globally
    docID-sorted (streaming analogue of PostingList.Append,
    PostingList.cs:84-120)."""
    if rows.num_rows == 0:
        return POSTINGS_SCHEMA.empty_table()
    denc = _flat(rows["term"]).dictionary_encode()
    codes = np.asarray(denc.indices, dtype=np.int64)
    order = np.lexsort((np.asarray(rows["first_doc"]), codes))
    tbl = rows.select(["n", "docs_enc", "tfs_enc", "dls_enc"]).take(pa.array(order))
    row_lens = np.asarray(tbl["n"], dtype=np.int64)
    doc_ids = decode_concat_rows(tbl["docs_enc"], row_lens, delta=True)
    tfs = decode_concat_rows(tbl["tfs_enc"], row_lens, delta=False)
    dls = decode_concat_rows(tbl["dls_enc"], row_lens, delta=False)
    entry_codes = np.repeat(codes[order], row_lens)
    if remap is not None:
        doc_ids, keep = remap(doc_ids)
        if keep is not None:
            entry_codes, doc_ids, tfs, dls = entry_codes[keep], doc_ids[keep], tfs[keep], dls[keep]
    if len(doc_ids) == 0:
        return POSTINGS_SCHEMA.empty_table()

    change = np.empty(len(entry_codes), dtype=bool)
    change[0] = True
    np.not_equal(entry_codes[1:], entry_codes[:-1], out=change[1:])
    term_flat_starts = np.flatnonzero(change)
    term_flat_ends = np.append(term_flat_starts[1:], len(entry_codes))
    terms_u = denc.dictionary.take(pa.array(entry_codes[term_flat_starts]))
    return encode_blocks(
        terms_u, term_flat_starts, term_flat_ends, doc_ids, tfs, dls,
        shard, block_entries, k1, b, avgdl,
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

        # split: terms with ONE input row that fits one block pass through
        # compressed; the rest take the decode->merge->encode path.  (Old
        # segment files without the stats columns — resumed round-1 builds —
        # fall back to the full path for every row.)
        stats_cols = ("max_doc", "max_tf", "min_tf", "min_dl", "max_dl")
        if all(c in group.column_names for c in stats_cols):
            denc = _flat(group["term"]).dictionary_encode()
            codes = np.asarray(denc.indices, dtype=np.int64)
            df_local_all = np.asarray(group["df_local"], dtype=np.int64)
            counts = np.bincount(codes, minlength=len(denc.dictionary))
            single = (counts[codes] == 1) & (df_local_all <= bk)
            # cross-version resume: an appended build mixes old segment
            # files (no stats columns -> NULL after schema unification)
            # with new ones; NULL-stat rows must take the full merge path
            if any(group[c].null_count for c in stats_cols):
                for c in stats_cols:
                    single &= ~np.asarray(pc.is_null(_flat(group[c])))
        else:
            single = np.zeros(group.num_rows, dtype=bool)
        pt_table = None
        if single.any():
            pt_table = _passthrough(group.filter(pa.array(single)), shard)
            if single.all():
                return pt_table
            group = group.filter(pa.array(~single))

        segment_names = {"min_doc": "first_doc", "df_local": "n"}
        rows = group.rename_columns([segment_names.get(c, c) for c in group.column_names])
        merged_tbl = reblock(rows, shard, bk, k1, b, avgdl)
        if pt_table is not None:
            return pa.concat_tables([pt_table, merged_tbl])
        return merged_tbl

    return merge_group


# ---- the postings file layout: one file per (shard, bucket) ----

_POSTINGS_NAME = re.compile(r"s(\d{5,})-b(\d{5,})\.parquet")


def postings_file_name(shard: int, bucket: int) -> str:
    return f"s{shard:05d}-b{bucket:05d}.parquet"


def parse_postings_name(name: str) -> tuple[int, int] | None:
    """(shard, bucket) of a postings file name; None if it does not parse."""
    m = _POSTINGS_NAME.fullmatch(name)
    return (int(m[1]), int(m[2])) if m else None


def listed_names(postings_dir: str) -> list[str]:
    """The file names a Parquet reader sees in ``postings_dir``, sorted —
    hidden names (``.`` / ``_``, e.g. an uncommitted tmp) are skipped."""
    return sorted(n for n in os.listdir(postings_dir) if not n.startswith((".", "_")))


def postings_files(postings_dir: str) -> dict[int, list[str]]:
    """{shard: [file paths]} of a postings directory, ascending, from the
    file names alone — no file is opened.  Any other name (an index
    written before the shard-addressed layout) raises ``ValueError``."""
    files: dict[int, list[str]] = {}
    for name in listed_names(postings_dir):
        key = parse_postings_name(name)
        if key is None:
            raise ValueError(
                f"postings file {name!r} in {postings_dir} is not named "
                "sSSSSS-bBBBBB.parquet (an index written by an older "
                "version) — rebuild the index"
            )
        files.setdefault(key[0], []).append(os.path.join(postings_dir, name))
    return dict(sorted(files.items()))


def shard_first_docs(files: dict[int, list[str]]) -> dict[int, int]:
    """shard -> its lowest docID, from the Parquet footer statistics of
    the shard's own files (shards own disjoint ascending doc ranges, so
    these starts delimit them); shards with no rows are left out."""
    lo: dict[int, int] = {}
    for shard, paths in files.items():
        for path in paths:
            md = pq.read_metadata(path)
            col = md.schema.names.index("first_doc")
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(col).statistics
                if md.row_group(rg).num_rows and st is not None and st.has_min_max:
                    lo[shard] = min(lo.get(shard, st.min), st.min)
    return lo


def write_postings_file(tbl: pa.Table, path: str) -> int:
    """Commit one postings file: rows sorted by (term, block_no), written
    to a hidden tmp beside ``path`` and moved in by ``os.replace``, so a
    reader never sees a partial file and the bytes depend on the rows
    alone.  Returns the row count."""
    tbl = tbl.sort_by([("term", "ascending"), ("block_no", "ascending")]).combine_chunks()
    folder, name = os.path.split(path)
    os.makedirs(folder, exist_ok=True)
    tmp = os.path.join(folder, f".{name}.tmp")
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    return tbl.num_rows


def map_postings_files(files: dict[int, list[str]], out_dir: str, fn, shard_off: int = 0) -> None:
    """The maintenance verbs' one rewrite pass, a task per postings file:
    each task reads one file of ``files``, calls ``fn(table, shard)`` with
    its shard id shifted by ``shard_off`` and commits the result under
    the same (shifted) name in ``out_dir``.  A file holds every block of
    its terms in its shard, so no exchange is needed."""
    import ray.data

    jobs = []
    for shard, paths in files.items():
        for path in paths:
            bucket = parse_postings_name(os.path.basename(path))[1]
            dst = os.path.join(out_dir, postings_file_name(shard + shard_off, bucket))
            jobs.append({"src": path, "dst": dst, "shard": shard + shard_off})

    def one(batch: pa.Table) -> pa.Table:
        job = batch.to_pylist()[0]
        n = write_postings_file(fn(pq.read_table(job["src"]), job["shard"]), job["dst"])
        return pa.table({"rows": pa.array([n], pa.int64())})

    ray.data.from_items(jobs).map_batches(
        one, batch_size=1, batch_format="pyarrow"
    ).materialize()
