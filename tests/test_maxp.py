"""MaxP passage retrieval (pipelines.documents_maxp_index_dir /
maxp_bm25_f64).  The end-to-end chunk-derivation + tokenization + scoring
oracle check runs in test_entry_contract via the maxp_top10 gate; here we
pin the aggregation semantics against an independent recompute."""

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_engine_ray.config import IndexOptions
from search_engine_ray.engine.index_reader import IndexReader
from search_engine_ray.pipelines import (
    _MAXP_KEY_BASE,
    _maxp_keyed,
    bm25_scores_f64,
    documents_maxp_index_dir,
    maxp_bm25_f64,
)

BASE = "/tmp/se_ray_test_maxp"
OPTS = IndexOptions(case_folding=True, remove_stopwords=True, stemming=False)


@pytest.fixture(scope="module")
def built(ray_session):
    shutil.rmtree(BASE, ignore_errors=True)
    os.makedirs(BASE, exist_ok=True)
    rng = np.random.default_rng(13)
    # filler-dominated corpus so the query terms stay RARE (positive idf —
    # with ubiquitous terms BM25's negative idf would invert the ranking)
    filler = ["table", "scan", "merge", "row", "query", "batch", "sort", "key"]
    docs = []
    for i in range(40):
        n = int(rng.integers(60, 200))
        words = list(rng.choice(filler, size=n))
        if i % 5 == 0:
            # SPREAD occurrences: one query term every ~70 tokens
            for pos in range(0, n, 70):
                words[pos] = ["spark", "hash", "join"][(pos // 70) % 3]
        docs.append(" ".join(words))
    # one doc with the query terms CONCENTRATED in a single 64-token
    # window: MaxP must rank it first
    docs.append(" ".join(["filler"] * 112 + ["spark hash join"] * 8 + ["filler"] * 112))
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs)}),
        os.path.join(BASE, "documents.parquet"),
    )
    idx = documents_maxp_index_dir(BASE, OPTS)
    return idx


def test_maxp_equals_independent_aggregation(built):
    reader = IndexReader(built, preload=True)
    kws = [("spark", 1), ("hash", 1), ("join", 1)]
    c_ids, c_scores = bm25_scores_f64(reader, kws)
    df = pd.DataFrame({
        "doc": [int(reader.doc_names[i]) // _MAXP_KEY_BASE for i in c_ids],
        "score": c_scores,
    })
    exp = df.groupby("doc")["score"].max().reset_index()
    exp = exp.sort_values(["score", "doc"], ascending=[False, True],
                          ignore_index=True)
    got_docs, got_scores = maxp_bm25_f64(reader, kws)
    assert got_docs.tolist() == exp["doc"].tolist()
    assert np.allclose(got_scores, exp["score"].to_numpy(), rtol=0, atol=0)


def test_concentration_wins(built):
    """The doc whose query terms sit inside ONE chunk must outrank its
    whole-doc BM25 position — the point of passage-level scoring."""
    reader = IndexReader(built, preload=True)
    got_docs, got_scores = maxp_bm25_f64(reader, [("spark", 1), ("hash", 1), ("join", 1)])
    concentrated = 40
    assert concentrated in got_docs.tolist()
    assert got_docs.tolist().index(concentrated) == 0  # top under MaxP


def test_sump_and_firstp_aggregation(built):
    """SumP == integer-micros groupby-sum; FirstP == chunk-0 restriction;
    both recomputed independently from the raw chunk ranking."""
    reader = IndexReader(built, preload=True)
    kws = [("spark", 1), ("hash", 1), ("join", 1)]
    c_ids, c_scores = bm25_scores_f64(reader, kws)
    keys = np.asarray([int(reader.doc_names[i]) for i in c_ids], dtype=np.int64)
    df = pd.DataFrame({
        "doc": keys // _MAXP_KEY_BASE,
        "chunk": keys % _MAXP_KEY_BASE,
        "m": np.floor(c_scores * 1e6 + 0.5).astype(np.int64),
        "score": c_scores,
    })
    exp_sum = df.groupby("doc")["m"].sum().reset_index()
    exp_sum = exp_sum.sort_values(["m", "doc"], ascending=[False, True],
                                  ignore_index=True)
    got_docs, got_scores = maxp_bm25_f64(reader, kws, agg="sum")
    assert got_docs.tolist() == exp_sum["doc"].tolist()
    assert got_scores.tolist() == exp_sum["m"].tolist()

    first = df[df["chunk"] == 0].sort_values(
        ["score", "doc"], ascending=[False, True], ignore_index=True)
    f_docs, f_scores = maxp_bm25_f64(reader, kws, agg="first")
    assert f_docs.tolist() == first["doc"].tolist()
    assert np.allclose(f_scores, first["score"].to_numpy(), rtol=0, atol=0)

    with pytest.raises(ValueError):
        maxp_bm25_f64(reader, kws, agg="median")


def test_chunk_names_compose(built):
    reader = IndexReader(built, preload=True)
    for nm in reader.doc_names[:20]:
        v = int(nm)
        assert v // _MAXP_KEY_BASE >= 0 and v % _MAXP_KEY_BASE >= 0


def test_maxp_key_rejects_colliding_chunk_id():
    """doc_id * base + chunk_id is unique only while chunk_id < base: one
    batch at the edge keys fine, one past it raises."""
    def batch(chunk_ids):
        return pa.table({
            "doc_id": pa.array([7] * len(chunk_ids), pa.int64()),
            "chunk_id": pa.array(chunk_ids, pa.int64()),
            "text": pa.array(["t"] * len(chunk_ids)),
        })

    ok = _maxp_keyed(batch([0, _MAXP_KEY_BASE - 1]))
    assert ok["ck"].to_pylist() == [7 * _MAXP_KEY_BASE, 8 * _MAXP_KEY_BASE - 1]
    assert ok["chunk_key"].to_pylist() == [str(v) for v in ok["ck"].to_pylist()]
    with pytest.raises(ValueError, match="collide"):
        _maxp_keyed(batch([0, _MAXP_KEY_BASE]))
