"""Doc-range-sharded query execution — the 10^12-document path.

A single QueryScorer actor preloading the whole index (engine/search.py)
mirrors the reference's in-RAM ReadableIndex and is right for indexes that
fit one node.  At web scale neither the postings nor a dense per-doc score
array fit anywhere, so scoring shards by DOC RANGE, which the index layout
already provides: the merge writes one postings file per
``(shard, term-bucket)`` where ``shard = frag_id // frags_per_shard`` owns a
contiguous docID range and a document's postings all live in its own
shard; the file names say which shard, so a shard opens only its own
files.  Consequences:

- each shard scorer computes COMPLETE scores for its documents (no
  cross-shard combination of partial scores is ever needed);
- per-term float32 accumulation order within a document is unchanged, so
  sharded scores are bit-identical to whole-index TAAT (tested);
- global df/idf and avgdl come from the tiny terms/stats tables, loaded by
  every shard actor (broadcast-small side);
- the global answer is a per-topic top-k merge over per-shard top-k rows —
  k rows per (topic, shard), a reduction, not a shuffle of scores.

Dataflow: shard descriptors -> ``run_shards`` (one actor call per shard)
emitting local top-k rows -> ``merge_topk`` on the driver, ties broken by
ascending docID.  Doc-range-sharded SAAT (engine/impact.py) goes through
the same dispatch and merge.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads

from ..config import BM25Params
from .codec import load_meta
from .index_reader import Block, TermPostings, _blocks_from_table
from .merge import postings_files


class _ShardIndexView:
    """IndexReader-shaped view over one shard's postings with GLOBAL stats.

    Dense score arrays are allocated over the shard's doc range only; doc
    ids are offset back to global ids on output.
    """

    def __init__(self, index_dir: str, shard: int, terms: list[str] | None = None):
        """``terms``: prune BOTH the dictionary and the postings read to the
        query's term set (predicate pushdown) — shard-actor RSS then stays
        independent of dictionary/corpus size (round-1 finding #6: loading
        the full df map per shard actor does not survive a 10^12-doc
        dictionary)."""
        self.stats = load_meta(os.path.join(index_dir, "stats.json"))
        self.avgdl = self.stats["avgdl"]
        from .terms_io import read_terms_table, terms_dataset

        if terms is None:
            terms_tbl = read_terms_table(index_dir)
        else:
            # typed, so an empty term set filters to nothing instead of
            # failing on a null-typed value set
            terms = pa.array(list(terms), pa.string())
            terms_tbl = terms_dataset(index_dir).to_table(
                filter=pads.field("term").isin(terms)
            )
        self._df = dict(zip(terms_tbl["term"].to_pylist(), terms_tbl["df"].to_pylist()))

        # only this shard's own files (engine/merge.py layout)
        ds = pads.dataset(postings_files(os.path.join(index_dir, "postings"))[shard])
        tbl = ds.to_table(filter=None if terms is None else pads.field("term").isin(terms))
        self._blocks = _blocks_from_table(tbl)
        if tbl.num_rows:
            self.doc_lo = int(pa.compute.min(tbl["first_doc"]).as_py())
            self.doc_hi = int(pa.compute.max(tbl["last_doc"]).as_py()) + 1
        else:
            self.doc_lo, self.doc_hi = 0, 0

        # tombstones (engine/maintenance.py): resolved PER SHARD — the
        # docs read is filtered to this shard's doc range AND the
        # tombstoned name set, so no actor ever holds a global name map
        # and the read is tombstone-sized, not shard-sized.
        self.deleted_local: np.ndarray | None = None
        tomb_path = os.path.join(index_dir, "tombstones.parquet")
        if os.path.exists(tomb_path) and self.doc_hi > self.doc_lo:
            from .maintenance import read_tombstones

            entries = read_tombstones(tomb_path)
            if entries:
                hit = pads.dataset(os.path.join(index_dir, "docs")).to_table(
                    columns=["doc_id", "name"],
                    filter=(
                        (pads.field("doc_id") >= self.doc_lo)
                        & (pads.field("doc_id") < self.doc_hi)
                        & pads.field("name").isin(list(entries))
                    ),
                )
                if hit.num_rows:
                    ids_ = np.asarray(hit["doc_id"], dtype=np.int64)
                    dead = [
                        d
                        for d, n in zip(ids_, hit["name"].to_pylist())
                        if entries.get(n) is None or d < entries[n]
                    ]
                    if dead:
                        self.deleted_local = (
                            np.asarray(dead, dtype=np.int64) - self.doc_lo
                        )

    # TAAT scorers index a dense array by doc id: present the shard's doc
    # range as [0, width) and translate in postings()/output.
    @property
    def n_docs(self) -> int:  # global N for idf (ReadableIndex semantics)
        return self.stats["n_docs"]

    def postings(self, term: str) -> TermPostings | None:
        df = self._df.get(term)
        blocks = self._blocks.get(term)
        if df is None or not blocks:
            return None
        shifted = [
            Block(
                n=b.n,
                first_doc=b.first_doc - self.doc_lo,
                last_doc=b.last_doc - self.doc_lo,
                docs_enc=b.docs_enc,
                tfs_enc=b.tfs_enc,
                dls_enc=b.dls_enc,
                ub_tfn=b.ub_tfn,
                lb_tfn=b.lb_tfn,
                ub_logtf=b.ub_logtf,
                _decoded=None,
            )
            for b in blocks
        ]
        for s, b in zip(shifted, blocks):
            ids, tfs, dls = b.decode()
            s._decoded = (ids - self.doc_lo, tfs, dls)
        return TermPostings(term=term, df=df, blocks=shifted)


def _shard_cds(view: _ShardIndexView, term: str, b: float):
    from .scoring import adpt_cds

    tp = view.postings(term)
    if tp is None:
        return None
    ids, tfs, dls = tp.arrays()
    return ids, adpt_cds(tfs, dls, b, view.avgdl)


class AdptHistogram:
    """Phase-1 stage of sharded BM25-ADPT: per-shard cd-count histograms per
    query term — 100 ints per (shard, term), merged by addition on the
    driver (the broadcast-small reduction that replaces touching the global
    tf distribution anywhere)."""

    def __init__(self, index_dir: str, terms: list[str], b: float):
        self.index_dir = index_dir
        self.terms = terms
        self.b = b

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .scoring import adpt_cd_counts

        rows = {"term": [], "counts": []}
        for shard in batch["shard"].to_pylist():
            view = _ShardIndexView(self.index_dir, shard, terms=self.terms)
            for term in self.terms:
                got = _shard_cds(view, term, self.b)
                if got is None:
                    continue
                rows["term"].append(term)
                rows["counts"].append(adpt_cd_counts(got[1]).tolist())
        return pa.table(
            {
                "term": pa.array(rows["term"], pa.string()),
                "counts": pa.array(rows["counts"], pa.list_(pa.int64())),
            }
        )


def _shard_scores(view: _ShardIndexView, keywords, scorer: str, params: BM25Params, k: int,
                  method: str, adpt_params: dict | None = None):
    """Score one shard; returns GLOBAL doc ids + scores (top-k local).

    method="maxscore" prunes over the shard view's block-skipping cursors
    (block metadata travels with the shard).  The shard-local top-k
    contains every global-top-k doc of this shard, so per-shard pruning
    composes exactly with the global merge (tested bit-identical to the
    sharded TAAT path).  Bounds are never stale here: the scorer params
    come from the index's own stats.json."""
    from .scoring import _taat, maxscore_topk

    width = view.doc_hi - view.doc_lo
    if width <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
    exclude = None
    if view.deleted_local is not None:
        exclude = np.zeros(width, dtype=bool)
        exclude[view.deleted_local] = True
    if method == "maxscore":
        ids, scores = maxscore_topk(view, keywords, params, k, kind=scorer, exclude=exclude)
    else:
        ids, scores = _taat(view, keywords, scorer, params, k, exclude, width, adpt_params)
    return ids + view.doc_lo, scores


class ShardScorer:
    """Actor stage: scores every topic on each shard it is handed; the
    (small) topic set is broadcast via constructor kwargs, shard ids
    stream in."""

    def __init__(self, index_dir: str, topics, scorer: str = "bm25", k: int = 1000,
                 adpt_params: dict | None = None, method: str = "taat"):
        if method not in ("taat", "maxscore"):
            raise ValueError(f"unknown sharded method {method!r}")
        if method != "taat" and scorer not in ("bm25", "tfidf"):
            raise ValueError(
                f"sharded method={method!r} supports bm25/tfidf only; "
                f"{scorer!r} needs the exhaustive path (method='taat')"
            )
        self.index_dir = index_dir
        self.topics = topics
        self.scorer = scorer
        self.k = k
        self.adpt_params = adpt_params
        self.method = method
        # pruned dictionary/postings reads: only the topics' terms are needed
        self.term_set = sorted({t for _, kws in topics for t, _ in kws})
        with open(os.path.join(index_dir, "stats.json")) as fh:
            stats = json.load(fh)
        self.params = BM25Params(**{key: stats["bm25"][key] for key in ("k1", "k3", "b")})

    def __call__(self, batch: pa.Table) -> pa.Table:
        topic, doc_id, score = [], [], []
        for shard in batch["shard"].to_pylist():
            view = _ShardIndexView(self.index_dir, shard, terms=self.term_set)
            for t, keywords in self.topics:
                ids, scores = _shard_scores(
                    view, keywords, self.scorer, self.params, self.k, self.method,
                    self.adpt_params,
                )
                topic.append(np.full(len(ids), t, dtype=np.int32))
                doc_id.append(ids)
                score.append(scores)
        return _topk_table(topic, doc_id, score, np.float32)


def _topk_table(topic: list, doc_id: list, score: list, score_type) -> pa.Table:
    """(topic int32, doc_id int64, score) table from per-shard array lists."""
    def cat(parts, dtype):
        return np.concatenate(parts).astype(dtype, copy=False) if parts else np.empty(0, dtype)

    return pa.table({
        "topic": pa.array(cat(topic, np.int32)),
        "doc_id": pa.array(cat(doc_id, np.int64)),
        "score": pa.array(cat(score, score_type)),
    })


def run_shards(actor, shards: list[dict], concurrency, **kwargs) -> pa.Table | None:
    """The one doc-range dispatch every sharded scorer goes through: each
    shard descriptor is one batch for an ``actor`` pool (each actor built
    once from ``kwargs``); the per-shard result tables — k rows per
    (topic, shard), not score arrays — are concatenated on the driver.  None
    when no shard returned a batch."""
    import ray.data

    out = ray.data.from_items(shards).map_batches(
        actor,
        fn_constructor_kwargs=kwargs,
        batch_size=1,
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    )
    tables = [pa.table(b) for b in out.iter_batches(batch_size=None, batch_format="pyarrow")]
    return pa.concat_tables(tables) if tables else None


def merge_topk(topic: np.ndarray, doc_id: np.ndarray, score: np.ndarray, k: int,
               tie: np.ndarray | None = None):
    """The driver-side top-k merge of per-shard rows: order by (topic asc,
    score desc, tie asc) — ``tie`` defaults to ``doc_id`` — and keep the
    first ``k`` rows of each topic.  -> (topic, doc_id, score, rank int32)."""
    order = np.lexsort((doc_id if tie is None else tie, -score, topic))
    topic, doc_id, score = topic[order], doc_id[order], score[order]
    n = len(topic)
    first = np.flatnonzero(np.concatenate(([True], topic[1:] != topic[:-1])))
    rank = (np.arange(n) - np.repeat(first, np.diff(np.append(first, n))) + 1).astype(np.int32)
    keep = rank <= k
    return topic[keep], doc_id[keep], score[keep], rank[keep]


def search_topics_sharded(
    index_dir: str,
    topics: list[tuple[int, list[tuple[str, int]]]],
    scorer: str = "bm25",
    k: int = 1000,
    concurrency=(1, 8),
    method: str = "taat",
) -> pa.Table:
    """Distributed doc-range-sharded scoring; returns (topic, doc_id, score,
    rank) — bit-identical to whole-index TAAT (tested).  method="maxscore"
    prunes INSIDE each shard (bm25/tfidf): the union of
    shard-local top-k supersets the global top-k, so the merge result stays
    bit-identical while each shard decodes only surviving blocks."""
    shards = [{"shard": s} for s in postings_files(os.path.join(index_dir, "postings"))]
    adpt_params = None
    if scorer == "bm25adpt":
        # PHASE 1: per-shard cd histograms -> summed on the driver ->
        # per-term (k1, IGs[1]) broadcast into phase 2.  The reduction moves
        # 100 ints per (shard, term); the tf distribution never leaves the
        # shards.
        from .scoring import adpt_term_params
        from .terms_io import read_terms_table

        with open(os.path.join(index_dir, "stats.json")) as fh:
            stats = json.load(fh)
        terms_tbl = read_terms_table(index_dir)
        df_map = dict(zip(terms_tbl["term"].to_pylist(), terms_tbl["df"].to_pylist()))
        q_terms = sorted({t for _, kws in topics for t, _ in kws if t in df_map})
        hist = run_shards(AdptHistogram, shards, concurrency, index_dir=index_dir,
                          terms=q_terms, b=stats["bm25"]["b"])
        totals: dict[str, np.ndarray] = {}
        if hist is not None:
            for term, counts in zip(hist["term"].to_pylist(), hist["counts"].to_pylist()):
                acc = totals.get(term)
                arr = np.asarray(counts, dtype=np.int64)
                totals[term] = arr if acc is None else acc + arr
        adpt_params = {
            term: adpt_term_params(stats["n_docs"], df_map[term], counts)
            for term, counts in totals.items()
        }

    rows = run_shards(ShardScorer, shards, concurrency, index_dir=index_dir, topics=topics,
                      scorer=scorer, k=k, adpt_params=adpt_params, method=method)
    if rows is None:
        rows = _topk_table([], [], [], np.float32)
    topic, doc_id, score, rank = merge_topk(
        np.asarray(rows["topic"]), np.asarray(rows["doc_id"]), np.asarray(rows["score"]), k
    )
    return pa.table({
        "topic": pa.array(topic), "doc_id": pa.array(doc_id),
        "score": pa.array(score), "rank": pa.array(rank),
    })
