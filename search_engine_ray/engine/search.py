"""Query pipeline: topics -> scored TREC run rows.

The reference loads the whole index once and fans topics across threads
with a lock-guarded result list (/root/reference/src/Program.cs:83,116-125).
Ray-native restatement (SURVEY.md §3.2): ``QueryScorer`` is an actor-pool
``map_batches`` class — the IndexReader is built once per actor in
``__init__`` (reference T3) and each batch of topics is scored
independently; output is the `run` table, sorted by (topic, rank) and
written as TREC run lines (`"{topic} Q0 {doc} {rank} {score} {run}"`,
Program.cs:150-164).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import BM25Params
from .index_reader import IndexReader
from .scoring import maxscore_topk, taat_bm25, taat_bm25_adpt, taat_tfidf

RUN_SCHEMA = pa.schema(
    [
        ("topic", pa.int32()),
        ("q0", pa.string()),
        ("doc", pa.string()),
        ("rank", pa.int32()),
        ("score", pa.float32()),
        ("run_name", pa.string()),
    ]
)

SCORERS = ("bm25", "tfidf", "bm25adpt")

# User-extension surface (reference IScorer plugin array, IScorer.cs:10-13 /
# Program.cs:99-103): register a callable
# (reader, keywords, params, k) -> (doc_ids, scores) under a name and pass
# that name anywhere a scorer is accepted (score_topic, QueryScorer, CLI).
_CUSTOM_SCORERS: dict = {}


def register_scorer(name: str, fn) -> None:
    if name in SCORERS:
        raise ValueError(f"{name!r} is a built-in scorer")
    _CUSTOM_SCORERS[name] = fn


# Method choice (results are identical either way — MaxScore only prunes
# docs that cannot enter the top-k):
# - vectorized TAAT wins whenever its dense score array fits comfortably
#   and k is large (the heap threshold then rises too slowly for pruning
#   to pay for its traversal);
# - MaxScore wins for small k over long posting lists (pruning skips block
#   decodes), and is mandatory when the corpus is too big for a dense
#   array (the sharded path bounds that per shard).
METHODS = ("auto", "taat", "maxscore")
_AUTO_MAXSCORE_MIN_POSTINGS = 2_000_000
_AUTO_MAXSCORE_MAX_K = 100
_AUTO_DENSE_MAX_DOCS = 20_000_000


def _resolve_method(
    reader: IndexReader, keywords: list[tuple[str, int]], method: str, k: int = 1000
) -> str:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method != "auto":
        return method
    if reader.n_docs > _AUTO_DENSE_MAX_DOCS:
        return "maxscore"
    total = sum(reader._df.get(t, 0) for t, _ in keywords)
    if k <= _AUTO_MAXSCORE_MAX_K and total > _AUTO_MAXSCORE_MIN_POSTINGS:
        return "maxscore"
    return "taat"


def score_topic(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    scorer: str = "bm25",
    params: BM25Params | None = None,
    k: int = 1000,
    method: str = "auto",
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (doc_ids, scores) ranked desc, ties broken by ascending docID.

    method: "maxscore" (essential/non-essential term partitioning DAAT),
    "taat" (exhaustive vectorized), or "auto" (pick by total
    candidate-posting volume; results identical).  Any other value raises
    ValueError."""
    params = params or BM25Params()
    requested = method
    method = _resolve_method(reader, keywords, method, k)
    deleted = reader.deleted_mask()
    # tombstones and MaxScore compose: term bounds computed over ALL
    # postings stay valid upper bounds for the live docs, and dead docs are
    # dropped at window evaluation before they can enter the heap
    # (engine/scoring.maxscore_topk) — no fallback needed.
    if scorer == "bm25" and method == "maxscore":
        # MaxScore prunes against block metadata (ub_tfn/lb_tfn) computed
        # at BUILD time with the index's k1/b; different query-time params
        # make those bounds stale and pruning incorrect.  auto falls back to
        # the always-correct exhaustive TAAT; an explicit method="maxscore"
        # request is an error.
        built = reader.stats.get("bm25", {})
        if (built.get("k1"), built.get("b")) != (params.k1, params.b):
            if requested == "maxscore":
                raise ValueError(
                    f"method={requested!r} requires the build-time BM25 params "
                    f"(k1={built.get('k1')}, b={built.get('b')}); got "
                    f"k1={params.k1}, b={params.b} — use method='taat' or "
                    "rebuild the index with these params"
                )
            method = "taat"
    if scorer in ("bm25", "tfidf"):
        if method == "maxscore":
            return maxscore_topk(reader, keywords, params, k, kind=scorer, exclude=deleted)
        if scorer == "bm25":
            return taat_bm25(reader, keywords, params, k, exclude=deleted)
        return taat_tfidf(reader, keywords, k, exclude=deleted)
    if scorer == "bm25adpt":
        # needs the full tf distribution per term -> always exhaustive
        return taat_bm25_adpt(reader, keywords, params, k, exclude=deleted)
    custom = _CUSTOM_SCORERS.get(scorer)
    if custom is not None:
        if deleted is not None:
            # the registry signature carries no exclude mask; failing loud
            # beats silently returning tombstoned docs
            raise ValueError(
                f"custom scorer {scorer!r} does not support tombstoned "
                "indexes; compact the index first (engine/maintenance.py)"
            )
        return custom(reader, keywords, params, k)
    raise ValueError(f"unknown scorer {scorer!r}")


class QueryScorer:
    """Actor-pool stage: batches of topics in, run rows out."""

    def __init__(
        self,
        index_dir: str,
        scorer: str = "bm25",
        run_name: str = "ray",
        k: int = 1000,
        method: str = "auto",
        preload: bool = True,
    ):
        self.reader = IndexReader(index_dir, preload=preload)
        self.scorer = scorer
        self.run_name = run_name
        self.k = k
        self.method = method
        self.params = BM25Params(**{
            key: self.reader.stats["bm25"][key] for key in ("k1", "k3", "b")
        })

    def __call__(self, batch: pa.Table) -> pa.Table:
        topics = batch["topic"].to_pylist()
        terms_col = batch["terms"].to_pylist()
        qtfs_col = batch["qtfs"].to_pylist()
        rows: dict[str, list] = {c: [] for c in RUN_SCHEMA.names}
        for topic, terms, qtfs in zip(topics, terms_col, qtfs_col):
            keywords = list(zip(terms, qtfs))
            ids, scores = score_topic(
                self.reader, keywords, self.scorer, self.params, self.k, self.method
            )
            names = self.reader.doc_names[ids] if len(ids) else []
            for rank, (name, score) in enumerate(zip(names, scores), start=1):
                rows["topic"].append(topic)
                rows["q0"].append("Q0")
                rows["doc"].append(str(name))
                rows["rank"].append(rank)
                rows["score"].append(float(score))
                rows["run_name"].append(self.run_name)
        return pa.table(rows, schema=RUN_SCHEMA)


def topics_to_table(topics: list[tuple[int, list[tuple[str, int]]]]) -> pa.Table:
    return pa.table(
        {
            "topic": pa.array([t for t, _ in topics], pa.int32()),
            "terms": pa.array([[w for w, _ in kws] for _, kws in topics], pa.list_(pa.string())),
            "qtfs": pa.array([[q for _, q in kws] for _, kws in topics], pa.list_(pa.int32())),
        }
    )


def search_topics(
    index_dir: str,
    topics: list[tuple[int, list[tuple[str, int]]]],
    scorer: str = "bm25",
    run_name: str = "ray",
    k: int = 1000,
    method: str = "auto",
    concurrency: int | tuple[int, int] | None = None,
) -> pa.Table:
    """Distributed scoring of a topic set; returns the run table sorted by
    (topic, rank) — K2's output ordering (Program.cs:132)."""
    import ray.data

    ds = ray.data.from_arrow(topics_to_table(topics))
    out = ds.map_batches(
        QueryScorer,
        fn_constructor_kwargs=dict(
            index_dir=index_dir, scorer=scorer, run_name=run_name, k=k, method=method
        ),
        batch_format="pyarrow",
        batch_size=max(1, len(topics) // 8) if topics else 1,
        concurrency=concurrency or (1, 4),
        num_cpus=1,
    )
    batches = list(out.iter_batches(batch_size=None, batch_format="pyarrow"))
    table = pa.concat_tables(batches) if batches else RUN_SCHEMA.empty_table()
    return table.sort_by([("topic", "ascending"), ("rank", "ascending")])


def write_trec_run(run_table: pa.Table, path: str) -> None:
    """TREC run lines, trec_eval-compatible (Program.cs:150-164)."""
    cols = [run_table[c].to_pylist() for c in ("topic", "q0", "doc", "rank", "score", "run_name")]
    with open(path, "w", encoding="utf-8") as fh:
        for topic, q0, doc, rank, score, run in zip(*cols):
            fh.write(f"{topic} {q0} {doc} {rank} {score} {run}\n")


def read_trec_run(path: str) -> pa.Table:
    """Parse a TREC run file (the 6-field lines write_trec_run emits,
    trec_eval-compatible) -> (topic, q0, doc, rank, score, run_name).
    Whitespace-separated; malformed lines fail loud with the line number."""
    topics, q0s, docs, ranks, scores, names = [], [], [], [], [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ValueError(
                    f"{path}:{lineno}: expected 6 fields, got {len(parts)}"
                )
            topics.append(int(parts[0]))
            q0s.append(parts[1])
            docs.append(parts[2])
            ranks.append(int(parts[3]))
            scores.append(float(parts[4]))
            names.append(parts[5])
    return pa.table(
        {
            "topic": pa.array(topics, pa.int64()),
            "q0": pa.array(q0s, pa.string()),
            "doc": pa.array(docs, pa.string()),
            "rank": pa.array(ranks, pa.int64()),
            "score": pa.array(scores, pa.float64()),
            "run_name": pa.array(names, pa.string()),
        }
    )
