"""Stage 1 of the index build: per-fragment posting segments.

A ``SegmentBuilder`` is the engine's analogue of the reference's per-worker
``WriteableIndex`` + ``Stemmer`` + ``Parser`` trio
(/root/reference/src/Indexing/Indexer.cs:50-52): a callable CLASS used with
``build_segments_batch``, which caches one per worker process, so its state
(the Porter memo cache) is built once and reused across the fragment tasks.

Per fragment it:
1. reads its Parquet row group column-pruned (url + html, or url + text),
2. extracts text from HTML via the vectorized kernel (byte-identical to the
   oracle extractor — tests/test_extract.py),
3. tokenizes/normalizes with the vectorized Arrow kernel,
4. aggregates (term, doc) -> tf with a single lexsort + run-length pass —
   the vectorized form of AddWord/PostingList tf-folding
   (WriteableIndex.cs:54-69, PostingList.cs:26-72),
5. atomically writes ``segments/part-NNNNNN.parquet`` (term-sorted posting
   rows with doc_ids/tfs/doc-length arrays) and ``docs/part-NNNNNN.parquet``,
6. writes a per-fragment manifest JSON LAST (the commit marker) and returns
   it as the stage's dataflow output.

Resume: a fragment whose manifest already exists is skipped entirely —
no data read, no recompute (north-rule checkpointing).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import BuildConfig
from ..corpus.extract import extract_text_batch
from ..text.vectorized import tokenize_batch
from .codec import encode_rows
from .reader import Fragment, read_fragment

# Postings are delta+VByte-compressed PER SEGMENT ROW, not just in the final
# index: the term shuffle then moves ~2-4 bytes/posting instead of 16, which
# directly cuts the one all-to-all's bandwidth (the binding resource for an
# exchange, on any hardware).  The merge decodes a whole group with two
# vectorized passes (codec.decode_concat_rows).
SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("frag_id", pa.int32()),
        ("min_doc", pa.int64()),
        ("max_doc", pa.int64()),
        ("df_local", pa.int32()),
        # per-row tf/dl extrema: lets the merge PASS THROUGH a tail term's
        # single compressed row (no decode/re-encode) while still emitting
        # valid block-max bounds — tfn is monotone increasing in tf and
        # decreasing in dl, so f(max_tf, min_dl) >= true block max and
        # f(min_tf, max_dl) <= true block min (bounds, not exact extrema).
        ("max_tf", pa.int32()),
        ("min_tf", pa.int32()),
        ("min_dl", pa.int32()),
        ("max_dl", pa.int32()),
        ("docs_enc", pa.binary()),
        ("tfs_enc", pa.binary()),
        ("dls_enc", pa.binary()),
    ]
)

DOCS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("name", pa.string()),
        ("doc_len", pa.int32()),
    ]
)

MANIFEST_SCHEMA = pa.schema(
    [
        ("frag_id", pa.int32()),
        ("stage", pa.string()),
        ("n_docs", pa.int64()),
        ("n_terms", pa.int64()),
        ("n_postings", pa.int64()),
        ("sum_dl", pa.int64()),
        ("bytes", pa.int64()),
        ("input_lineage", pa.string()),
        ("content_hash", pa.string()),
        ("skipped", pa.bool_()),
    ]
)


def _atomic_write_parquet(table: pa.Table, path: str) -> int:
    # ensure the parent exists HERE, not only in SegmentBuilder.__init__:
    # builders are cached per worker process, and a caller may rebuild into
    # a deleted index_dir (e.g. overwrite=True rebuilds) while warm workers
    # still hold the old instance
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, path)
    return os.path.getsize(path)


def build_fragment_postings(
    names: list[str] | pa.Array,
    texts: pa.Array,
    base: int,
    frag_id: int,
    config: BuildConfig,
) -> tuple[pa.Table, pa.Table]:
    """Pure function: one fragment's (docs table, segment table)."""
    tb = tokenize_batch(texts, config.options)
    n_docs = len(tb.doc_lens)

    doc_ids_global = np.arange(base, base + n_docs, dtype=np.int64)
    docs_table = pa.table(
        {
            "doc_id": pa.array(doc_ids_global, pa.int64()),
            "name": pa.array(names, pa.string()) if not isinstance(names, pa.Array) else names.cast(pa.string()),
            "doc_len": pa.array(tb.doc_lens, pa.int32()),
        },
        schema=DOCS_SCHEMA,
    )

    if len(tb.term_codes) == 0:
        seg_table = SEGMENT_SCHEMA.empty_table()
        return docs_table, seg_table

    # (term, doc) -> tf in one vectorized pass; doc_idx ascending within a
    # term after the stable lexsort, so posting lists are docID-sorted by
    # construction (the PostingList invariant, SURVEY.md §2.6 K3).
    order = np.lexsort((tb.doc_idx, tb.term_codes))
    t_sorted = tb.term_codes[order]
    d_sorted = tb.doc_idx[order]
    pair_change = np.empty(len(order), dtype=bool)
    pair_change[0] = True
    np.logical_or(t_sorted[1:] != t_sorted[:-1], d_sorted[1:] != d_sorted[:-1], out=pair_change[1:])
    pair_starts = np.flatnonzero(pair_change)
    tf = np.diff(np.append(pair_starts, len(order))).astype(np.int32)
    p_term = t_sorted[pair_starts]
    p_doc = d_sorted[pair_starts]

    term_change = np.empty(len(p_term), dtype=bool)
    term_change[0] = True
    np.not_equal(p_term[1:], p_term[:-1], out=term_change[1:])
    term_starts = np.flatnonzero(term_change)
    offsets = np.append(term_starts, len(p_term)).astype(np.int32)
    seg_terms = tb.terms[p_term[term_starts]]

    global_docs = doc_ids_global[p_doc]
    dls = tb.doc_lens[p_doc].astype(np.int64)
    # uint16 tf semantics: saturate here, before encoding (the reference's
    # ushort wraps unchecked, PostingList.cs:32,47 — documented deviation).
    tf64 = np.minimum(tf.astype(np.int64), 65535)

    row_starts = offsets[:-1].astype(np.int64)
    seg_table = pa.table(
        {
            "term": pa.array(seg_terms, pa.string()),
            "frag_id": pa.array(np.full(len(term_starts), frag_id, dtype=np.int32)),
            "min_doc": pa.array(global_docs[term_starts], pa.int64()),
            "max_doc": pa.array(global_docs[offsets[1:] - 1], pa.int64()),
            "df_local": pa.array(np.diff(offsets).astype(np.int32)),
            "max_tf": pa.array(np.maximum.reduceat(tf64, row_starts).astype(np.int32)),
            "min_tf": pa.array(np.minimum.reduceat(tf64, row_starts).astype(np.int32)),
            "min_dl": pa.array(np.minimum.reduceat(dls, row_starts).astype(np.int32)),
            "max_dl": pa.array(np.maximum.reduceat(dls, row_starts).astype(np.int32)),
            "docs_enc": encode_rows(global_docs, row_starts, delta=True),
            "tfs_enc": encode_rows(tf64, row_starts, delta=False),
            "dls_enc": encode_rows(dls, row_starts, delta=False),
        },
        schema=SEGMENT_SCHEMA,
    )
    return docs_table, seg_table


# Stateless-task entry point: SegmentBuilder instances cached per worker
# process (Ray reuses workers, so the Porter memo and compiled state stay
# warm across tasks without actor-pool startup cost).
_PROCESS_BUILDERS: dict[tuple, "SegmentBuilder"] = {}


def build_segments_batch(batch: dict, **kwargs) -> "pa.Table":
    key = tuple(sorted((k, str(v)) for k, v in kwargs.items()))
    builder = _PROCESS_BUILDERS.get(key)
    if builder is None:
        builder = SegmentBuilder(**kwargs)
        _PROCESS_BUILDERS[key] = builder
    return builder(batch)


class SegmentBuilder:
    """Per-worker stage state: fragment descriptors in -> manifest rows out."""

    def __init__(self, index_dir: str, config: BuildConfig, source_column: str = "html", name_column: str = "url"):
        self.index_dir = index_dir
        self.config = config
        self.source_column = source_column
        self.name_column = name_column
        os.makedirs(os.path.join(index_dir, "segments"), exist_ok=True)
        os.makedirs(os.path.join(index_dir, "docs"), exist_ok=True)
        os.makedirs(os.path.join(index_dir, "manifest"), exist_ok=True)

    def _manifest_path(self, frag_id: int) -> str:
        return os.path.join(self.index_dir, "manifest", f"frag-{frag_id:06d}.json")

    def _process_one(self, frag: Fragment) -> dict:
        mpath = self._manifest_path(frag.frag_id)
        if os.path.exists(mpath):
            with open(mpath) as fh:
                m = json.load(fh)
            m["skipped"] = True
            return m

        table = read_fragment(frag, columns=[self.name_column, self.source_column])
        col = table[self.source_column]
        if self.source_column == "html":
            texts = extract_text_batch(col)
        else:
            texts = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        names = table[self.name_column].combine_chunks() if isinstance(table[self.name_column], pa.ChunkedArray) else table[self.name_column]

        # cache-resident sub-slices (see BuildConfig.tokenize_sub_batch):
        # each emits independent segment rows over a disjoint doc range
        sub = self.config.tokenize_sub_batch or table.num_rows or 1
        docs_parts, seg_parts = [], []
        for lo in range(0, table.num_rows, sub):
            d, s = build_fragment_postings(
                names.slice(lo, sub), texts.slice(lo, sub),
                frag.base + lo, frag.frag_id, self.config,
            )
            docs_parts.append(d)
            if s.num_rows:
                seg_parts.append(s)
        docs_table = (
            pa.concat_tables(docs_parts) if docs_parts else DOCS_SCHEMA.empty_table()
        )
        seg_table = (
            pa.concat_tables(seg_parts) if seg_parts else SEGMENT_SCHEMA.empty_table()
        )

        seg_path = os.path.join(self.index_dir, "segments", f"part-{frag.frag_id:06d}.parquet")
        docs_path = os.path.join(self.index_dir, "docs", f"part-{frag.frag_id:06d}.parquet")
        seg_bytes = _atomic_write_parquet(seg_table, seg_path)
        docs_bytes = _atomic_write_parquet(docs_table, docs_path)

        n_postings = int(pa.compute.sum(seg_table["df_local"]).as_py() or 0)
        sum_dl = int(pa.compute.sum(docs_table["doc_len"]).as_py() or 0)
        content_hash = hashlib.sha256(
            b"|".join(
                [
                    str(seg_table.num_rows).encode(),
                    str(n_postings).encode(),
                    str(sum_dl).encode(),
                ]
            )
        ).hexdigest()[:16]
        manifest = {
            "frag_id": frag.frag_id,
            "stage": "segments",
            "n_docs": int(docs_table.num_rows),
            "n_terms": int(seg_table.num_rows),
            "n_postings": n_postings,
            "sum_dl": sum_dl,
            "bytes": int(seg_bytes + docs_bytes),
            "input_lineage": f"{frag.path}#rg{frag.row_group}@{frag.base}",
            "content_hash": content_hash,
            "skipped": False,
        }
        os.makedirs(os.path.dirname(mpath), exist_ok=True)
        tmp = mpath + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(manifest, fh)
        os.replace(tmp, mpath)
        return manifest

    def __call__(self, batch: dict) -> pa.Table:
        rows = [
            self._process_one(
                Fragment(
                    frag_id=int(batch["frag_id"][i]),
                    path=str(batch["path"][i]),
                    row_group=int(batch["row_group"][i]),
                    base=int(batch["base"][i]),
                    n_rows=int(batch["n_rows"][i]),
                )
            )
            for i in range(len(batch["frag_id"]))
        ]
        return pa.Table.from_pylist(rows, schema=MANIFEST_SCHEMA)
