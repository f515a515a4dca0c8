"""Golden conformance: oracle AND engine vs the committed tests/golden files.

Any unintended change to tokenizer / stemmer / posting / scorer semantics
fails here even if oracle and engine drift together."""

import hashlib
import os
import shutil

import pytest

from search_engine_ray.config import BuildConfig, IndexOptions, QueryOptions
from search_engine_ray.corpus.pages import generate_pages_table
from search_engine_ray.corpus.topics import parse_topics
from search_engine_ray.oracle.indexer import OracleIndex
from search_engine_ray.oracle.scorers import score_bm25, score_bm25_adpt, score_tfidf
from tests.make_golden import GOLDEN_DIR, K, N_DOCS, SEED

OPTS = IndexOptions(True, True, True)


@pytest.fixture(scope="module")
def oracle():
    table = generate_pages_table(N_DOCS, seed=SEED)
    docs = list(zip(table["url"].to_pylist(), table["text"].to_pylist()))
    return OracleIndex.build(docs, OPTS)


def test_golden_postings(oracle):
    lines = open(os.path.join(GOLDEN_DIR, "postings.txt")).read().splitlines()
    assert len(lines) == len(oracle.postings)
    for line in lines:
        term, df, total_tf, digest = line.split("\t")
        ids, tfs = oracle.postings[term]
        assert len(ids) == int(df), term
        assert sum(tfs) == int(total_tf), term
        assert hashlib.sha256(repr((ids, tfs)).encode()).hexdigest()[:16] == digest, term


def test_golden_docs(oracle):
    lines = open(os.path.join(GOLDEN_DIR, "docs.txt")).read().splitlines()
    got = [f"{n}\t{d}" for n, d in zip(oracle.doc_names, oracle.doc_lens)]
    assert lines == got


def test_golden_runs(oracle):
    topics = parse_topics(
        os.path.join(GOLDEN_DIR, "topics.txt"), QueryOptions(use_title=True), OPTS
    )
    scorers = {
        "TfIdf": lambda kws: score_tfidf(oracle, kws, K),
        "BM25": lambda kws: score_bm25(oracle, kws, k=K),
        "BM25ADPT": lambda kws: score_bm25_adpt(oracle, kws, k=K),
    }
    for name, fn in scorers.items():
        expected = open(os.path.join(GOLDEN_DIR, f"run-{name}.txt")).read().splitlines()
        got = []
        for topic, kws in topics:
            for rank, (doc, score) in enumerate(fn(kws), 1):
                got.append(f"{topic} Q0 {doc} {rank} {score!r} golden")
        assert got == expected, name


def test_engine_reproduces_golden_runs(oracle, ray_session, tmp_path):
    """Full Ray pipeline (html -> index -> MaxScore/TAAT) vs the golden runs."""
    import pyarrow.parquet as pq

    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.index_reader import IndexReader
    from search_engine_ray.engine.search import score_topic

    corpus_dir = str(tmp_path / "corpus")
    os.makedirs(corpus_dir)
    pq.write_table(
        generate_pages_table(N_DOCS, seed=SEED),
        os.path.join(corpus_dir, "pages.parquet"),
        row_group_size=16,
    )
    index_dir = str(tmp_path / "index")
    build_index(corpus_dir, index_dir, BuildConfig(block_entries=8, frags_per_shard=2), overwrite=True)
    reader = IndexReader(index_dir)

    topics = parse_topics(
        os.path.join(GOLDEN_DIR, "topics.txt"), QueryOptions(use_title=True), OPTS
    )
    # "auto" covers the production path; the extra forced-"maxscore" bm25
    # pass golden-pins the stemmed pruning traversal itself
    cases = (
        ("bm25", "BM25", "auto"),
        ("tfidf", "TfIdf", "auto"),
        ("bm25adpt", "BM25ADPT", "auto"),
        ("bm25", "BM25", "maxscore"),
    )
    for scorer, golden_name, method in cases:
        expected = open(os.path.join(GOLDEN_DIR, f"run-{golden_name}.txt")).read().splitlines()
        got = []
        for topic, kws in topics:
            ids, scores = score_topic(reader, kws, scorer, None, K, method=method)
            for rank, (d, s) in enumerate(zip(ids, scores), 1):
                got.append(f"{topic} Q0 {reader.doc_names[d]} {rank} {float(s)!r} golden")
        assert got == expected, (scorer, method)
