"""Term-partitioned query execution — the OTHER classic IR distribution
axis (Moffat et al.'s term- vs document-partitioning trade).

``sharded_search.py`` partitions by DOC RANGE: every shard scores its own
documents completely and the answer is a top-k merge.  Term partitioning
instead gives each shard custody of a slice of the VOCABULARY: a query
fetches each term's complete posting list from the one shard that owns it
and scores centrally.  The classic trade: term partitioning touches only
|query terms| shards per query (lower fan-out, better for short queries
and low-latency serving tiers) at the cost of shipping posting payloads
instead of k-row results; document partitioning wins for heavy queries.
Both now exist, bit-identical to the single-reader path, so deployments
can pick per workload.

Design: ``TermShardedReader`` subclasses IndexReader with
``preload=False`` metadata (terms/df via the pruned dictionary read, docs
table, stats) and overrides ONLY the posting fetches to route to a pool
of ``TermShardActor``s.  Everything downstream — TAAT, MaxScore,
boolean ops, every registered scorer, tombstone masks — runs
UNCHANGED over the facade, which is what guarantees bit-identity.

Ownership is ``md5(term) % n_shards`` (content hash, never Python's
seeded ``hash``), computed identically by the reader and the actors.

Scale notes: each actor holds ~1/n_shards of the postings in RAM.  In
this layout actors filter their slice out of a full postings scan at
startup (one-time IO); a physical bucket-partitioned postings directory
would turn that into a pruned read — the query path is identical either
way.  Reference framing: the reference engine holds one in-RAM index
(ReadableIndex, /root/reference/src/Indexing/ReadableIndex.cs); this
module is the vocabulary-partitioned distribution of the same read API.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.dataset as pads
import ray

from .index_reader import IndexReader, TermPostings, _blocks_from_table

_POSTING_COLS = [
    "term", "shard", "block_no", "n", "first_doc", "last_doc",
    "docs_enc", "tfs_enc", "dls_enc", "ub_tfn", "lb_tfn", "ub_logtf",
]


def _owner_of(term: str, n_shards: int) -> int:
    return int.from_bytes(hashlib.md5(term.encode()).digest()[:8], "big") % n_shards


@ray.remote
class TermShardActor:
    """Holds the posting blocks of every term with md5(term) % n_shards ==
    shard_id.  Startup streams the postings directory batch-wise and keeps
    only the owned slice (bounded RAM: ~1/n_shards of the index)."""

    def __init__(self, index_dir: str, n_shards: int, shard_id: int):
        import json

        with open(os.path.join(index_dir, "stats.json")) as fh:
            codec = json.load(fh).get("codec", "vbyte")
        self._blocks = {}
        dset = pads.dataset(os.path.join(index_dir, "postings"))
        for batch in dset.to_batches(columns=_POSTING_COLS):
            tbl = pa.Table.from_batches([batch])
            if tbl.num_rows == 0:
                continue
            terms = tbl["term"].to_pylist()
            keep = [
                i for i, t in enumerate(terms)
                if _owner_of(t, n_shards) == shard_id
            ]
            if not keep:
                continue
            sub = tbl.take(pa.array(keep))
            for t, blocks in _blocks_from_table(sub, codec).items():
                self._blocks.setdefault(t, []).extend(blocks)
        for blocks in self._blocks.values():
            blocks.sort(key=lambda b: b.first_doc)

    def get(self, terms: list[str]) -> dict:
        """term -> list[Block] for the requested terms this shard owns."""
        return {t: self._blocks[t] for t in terms if t in self._blocks}


class TermShardedReader(IndexReader):
    """IndexReader facade whose posting fetches fan out to term-shard
    actors — one RPC per shard that owns at least one query term.  All
    metadata (df, doc names/lengths, stats, tombstones) comes from the
    normal pruned reads, so every scorer and pruning method downstream is
    byte-for-byte the single-reader code path."""

    def __init__(self, index_dir: str, n_shards: int = 4):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        super().__init__(index_dir, preload=False)
        self.n_shards = n_shards
        self._actors = [
            TermShardActor.remote(index_dir, n_shards, i) for i in range(n_shards)
        ]

    def _fetch(self, terms: list[str]) -> dict:
        by_owner: dict[int, list[str]] = {}
        for t in terms:
            by_owner.setdefault(_owner_of(t, self.n_shards), []).append(t)
        futures = [self._actors[o].get.remote(ts) for o, ts in by_owner.items()]
        found: dict = {}
        for part in ray.get(futures):
            found.update(part)
        return found

    def postings(self, term: str) -> TermPostings | None:
        df = self._df.get(term)
        if df is None:
            return None
        blocks = self._fetch([term]).get(term, [])
        return TermPostings(term=term, df=df, blocks=blocks)

    def get_many(self, terms: list[str]) -> list[TermPostings]:
        present = [t for t in terms if t in self._df]
        found = self._fetch(sorted(set(present)))
        return [
            TermPostings(t, self._df[t], found.get(t, [])) for t in present
        ]
