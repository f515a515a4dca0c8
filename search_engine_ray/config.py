"""Configuration dataclasses mirroring the reference's option surface.

IndexOptions  ← /root/reference/src/Indexing/IndexOptions.cs:8-12 (CaseFolding,
RemoveStopWords, DoStemming).  QueryOptions ←
/root/reference/src/Indexing/QueryOptions.cs:8-12 (UseHeadline, UseDescription,
UseNarrative).  BM25 constants ← /root/reference/src/Program.cs:100-102
(k1=1.2, k3=100, b=0.75; BM25-ADPT shares k3/b).

IndexOptions are persisted with the index (stats.json) and re-applied at query
time so queries normalize identically to the corpus
(reference: Program.cs:92, TopicParser.cs:102-123).

BuildConfig holds the build's physical knobs.  The postings encoding is not
one of them: every index is delta+VByte (engine/codec.py).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, field


@dataclass(frozen=True)
class IndexOptions:
    case_folding: bool = True
    remove_stopwords: bool = True
    stemming: bool = True

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "IndexOptions":
        return IndexOptions(**d)


@dataclass(frozen=True)
class QueryOptions:
    use_title: bool = True
    use_description: bool = False
    use_narrative: bool = False


@dataclass(frozen=True)
class BM25Params:
    k1: float = 1.2
    k3: float = 100.0
    b: float = 0.75


@dataclass(frozen=True)
class BuildConfig:
    """Physical knobs for the Ray Data index-build pipeline.

    Stage 1 runs one task per fragment and the term-shuffle partition
    count follows the data, so neither needs a knob at cluster scale; keep
    ``block_entries`` fixed (MaxScore cursors consume blocks
    independently, so head-term posting lists are never materialized as
    one payload — see SURVEY.md §2.5 A2 / §7.4.3).
    """

    options: IndexOptions = field(default_factory=IndexOptions)
    bm25: BM25Params = field(default_factory=BM25Params)
    # posting entries per compressed block (cursor skipping granularity)
    block_entries: int = 128
    # fragments whose terms shuffle under the same shard key:
    # shard = frag_id // frags_per_shard. Bounds any single groupby payload
    # to ~frags_per_shard fragments' worth of one term's postings.
    frags_per_shard: int = 64
    # Tokenize/segment a fragment in sub-slices of this many docs so the
    # token arrays stay cache-resident (measured 1.7x aggregate throughput
    # at 24-way parallelism on DRAM-constrained hosts).  Sub-slices emit
    # independent segment rows with disjoint ascending doc ranges, which the
    # merge orders by (term, min_doc) exactly like separate fragments.
    # None/0 disables.
    tokenize_sub_batch: int | None = 512
