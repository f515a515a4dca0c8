"""Query-side index access — the engine's ReadableIndex
(/root/reference/src/Indexing/ReadableIndex.cs).

An ``IndexReader`` is constructed once per query actor
(``map_batches(QueryScorer, concurrency=N)`` holds one in ``__init__`` —
the reference's process-global loaded index, Program.cs:83, T3 in
SURVEY.md §2.3).  Two load modes:

- ``preload=True``: pull the whole postings directory into RAM grouped by
  term (fine at test scale; the analogue of DeserializeFromDisk).
- ``preload=False``: per-term pruned Parquet reads via a pyarrow dataset
  filter — at cluster scale each scorer actor owns a term-range partition
  of ``postings/`` and touches only requested terms' row groups.

Blocks for one term are kept in ascending doc-range order and decoded
lazily (MaxScore cursors read block metadata first and skip whole
blocks by doc range without decoding them).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from .codec import delta_decode, load_meta, vbyte_decode

_BLOCK_COLS = [
    "term", "shard", "block_no", "n", "first_doc", "last_doc",
    "docs_enc", "tfs_enc", "dls_enc", "ub_tfn", "lb_tfn", "ub_logtf",
]


@dataclass
class Block:
    n: int
    first_doc: int
    last_doc: int
    docs_enc: bytes
    tfs_enc: bytes
    dls_enc: bytes
    ub_tfn: float
    lb_tfn: float
    ub_logtf: float
    _decoded: tuple | None = field(default=None, repr=False)

    def decode(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._decoded is None:
            ids = delta_decode(self.docs_enc, self.n)
            tfs = vbyte_decode(self.tfs_enc, self.n).astype(np.int64)
            dls = vbyte_decode(self.dls_enc, self.n).astype(np.int64)
            self._decoded = (ids, tfs, dls)
        return self._decoded


@dataclass
class TermPostings:
    term: str
    df: int
    blocks: list[Block]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated (doc_ids, tfs, dls) across blocks — docID ascending."""
        parts = [b.decode() for b in self.blocks]
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]),
        )


def _blocks_from_table(tbl: pa.Table) -> dict[str, list[Block]]:
    out: dict[str, list[Block]] = {}
    terms = tbl["term"].to_pylist()
    cols = {c: tbl[c].to_pylist() for c in _BLOCK_COLS if c not in ("term",)}
    for i, t in enumerate(terms):
        out.setdefault(t, []).append(
            Block(
                n=cols["n"][i],
                first_doc=cols["first_doc"][i],
                last_doc=cols["last_doc"][i],
                docs_enc=cols["docs_enc"][i],
                tfs_enc=cols["tfs_enc"][i],
                dls_enc=cols["dls_enc"][i],
                ub_tfn=cols["ub_tfn"][i],
                lb_tfn=cols["lb_tfn"][i],
                ub_logtf=cols["ub_logtf"][i],
            )
        )
    for blocks in out.values():
        blocks.sort(key=lambda b: b.first_doc)  # disjoint ranges -> total order
    return out


class IndexReader:
    def __init__(
        self, index_dir: str, preload: bool = True, as_of: int | None = None
    ):
        """``as_of``: read the index as of maintenance generation K
        (engine/maintenance.snapshot_generation): tombstones come from
        the gen-K snapshot and every docID at or above the generation's
        watermark is hidden (docs appended later did not exist yet).
        Statistics (n_docs/avgdl/df) stay CURRENT — the same rule live
        tombstones follow, so as-of ranking == the tombstone-masked
        ranking of that moment."""
        self.index_dir = index_dir
        self.as_of = as_of
        self.stats = load_meta(os.path.join(index_dir, "stats.json"))
        self.n_docs: int = self.stats["n_docs"]
        self.avgdl: float = self.stats["avgdl"]

        from .terms_io import read_terms_table

        terms_tbl = read_terms_table(index_dir)
        self._df: dict[str, int] = dict(
            zip(terms_tbl["term"].to_pylist(), terms_tbl["df"].to_pylist())
        )

        # docs table: dense docIDs -> direct array indexing (J2/J3 lookups)
        docs_tbl = pq.read_table(os.path.join(index_dir, "docs"))
        order = np.argsort(np.asarray(docs_tbl["doc_id"]))
        self.doc_names = np.asarray(docs_tbl["name"].to_pylist(), dtype=object)[order]
        self.doc_lens = np.asarray(docs_tbl["doc_len"], dtype=np.int64)[order]

        self._preloaded: dict[str, list[Block]] | None = None
        self._dataset = None
        if preload:
            tbl = pq.read_table(os.path.join(index_dir, "postings"))
            self._preloaded = _blocks_from_table(tbl)
        else:
            self._dataset = pads.dataset(os.path.join(index_dir, "postings"))

    def deleted_mask(self) -> np.ndarray | None:
        """Boolean mask over doc ordinals of tombstoned docs (see
        engine/maintenance.py), or None when the index has no tombstones.
        Resolved once per reader (once per query actor); names absent
        from the docs table are skipped."""
        if not hasattr(self, "_deleted_mask"):
            watermark = None
            if self.as_of is not None:
                from .maintenance import read_generation

                entries, watermark = read_generation(self.index_dir, self.as_of)
            else:
                p = os.path.join(self.index_dir, "tombstones.parquet")
                if not os.path.exists(p):
                    self._deleted_mask = None
                    return None
                from .maintenance import read_tombstones

                entries = read_tombstones(p)
            # isin (not a name->id dict): a union-merged index can hold
            # DUPLICATE names — every copy of a tombstoned name hides;
            # bounded entries (upserts) hide only ordinals < before_id
            mask = np.isin(
                self.doc_names, np.asarray(list(entries), dtype=object)
            )
            for i in np.flatnonzero(mask):  # tombstone-sized loop
                b = entries.get(self.doc_names[i])
                if b is not None and i >= b:
                    mask[i] = False
            if watermark is not None and watermark < len(mask):
                mask[watermark:] = True  # docs appended after gen K
            self._deleted_mask = mask if mask.any() else None
        return self._deleted_mask

    def doc_id_of(self, name: str) -> int:
        """Name -> docID (the reference's O(n) IsDocumentInIndex,
        WriteableIndex.cs:43-46, as an O(1) lazily-built hash lookup).
        Returns -1 when absent."""
        if not hasattr(self, "_name_to_id"):
            self._name_to_id = {n: i for i, n in enumerate(self.doc_names)}
        return self._name_to_id.get(name, -1)

    # --- J1: term -> posting blocks (absent terms -> None, silently
    # dropped like GetPostingLists, ReadableIndex.cs:29-42) ---
    def df(self, term: str) -> int | None:
        """Document frequency of ``term`` (None if absent) — metadata only,
        no posting decode."""
        return self._df.get(term)

    def postings(self, term: str) -> TermPostings | None:
        df = self._df.get(term)
        if df is None:
            return None
        if self._preloaded is not None:
            blocks = self._preloaded.get(term, [])
        else:
            tbl = self._dataset.to_table(filter=pads.field("term") == term)
            blocks = _blocks_from_table(tbl).get(term, [])
        return TermPostings(term=term, df=df, blocks=blocks)

    def get_many(self, terms: list[str]) -> list[TermPostings]:
        """Batch lookup preserving query order; absent terms dropped."""
        if self._preloaded is None and len(terms) > 1:
            # one pruned scan for all requested terms
            tbl = self._dataset.to_table(
                filter=pads.field("term").isin([t for t in terms if t in self._df])
            )
            found = _blocks_from_table(tbl)
            return [
                TermPostings(t, self._df[t], found.get(t, []))
                for t in terms
                if t in self._df
            ]
        out = []
        for t in terms:
            tp = self.postings(t)
            if tp is not None:
                out.append(tp)
        return out
