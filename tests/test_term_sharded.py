"""Term-partitioned search: bit-identity with the single-reader path for
every scorer and pruning method, tombstone composition, shard-count
invariance."""

import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from search_engine_ray.config import BuildConfig
from search_engine_ray.corpus.pages import write_pages_parquet
from search_engine_ray.engine.build import build_index
from search_engine_ray.engine.index_reader import IndexReader
from search_engine_ray.engine.search import score_topic
from search_engine_ray.engine.term_sharded import TermShardedReader, _owner_of

BASE = "/tmp/se_ray_termshard"


@pytest.fixture(scope="module")
def index_dir(ray_session):
    shutil.rmtree(BASE, ignore_errors=True)
    corpus = f"{BASE}/corpus"
    write_pages_parquet(corpus, 130, seed=17, n_files=2, row_group_size=64)
    out = f"{BASE}/index"
    build_index(
        corpus, out, BuildConfig(block_entries=16, frags_per_shard=2),
        term_buckets=8, overwrite=True,
    )
    return out


def _kws(index_dir, n=4):
    import os

    t = pq.read_table(os.path.join(index_dir, "terms.parquet"))
    order = np.argsort(-np.asarray(t["df"]))[:n]
    return [(t["term"][int(i)].as_py(), 1) for i in order]


def test_bit_identical_all_scorers_methods(index_dir, ray_session):
    kws = _kws(index_dir)
    base = IndexReader(index_dir)
    sharded = TermShardedReader(index_dir, n_shards=3)
    for scorer, methods in (
        ("bm25", ("taat", "maxscore")),
        ("tfidf", ("taat", "maxscore")),
        ("bm25adpt", ("taat",)),
        ("lmd", ("taat",)),
    ):
        for method in methods:
            try:
                a = score_topic(base, kws, scorer=scorer, k=30, method=method)
                b = score_topic(sharded, kws, scorer=scorer, k=30, method=method)
            except ValueError:
                continue  # custom scorers may reject methods uniformly
            assert a[0].tolist() == b[0].tolist(), (scorer, method)
            assert a[1].tolist() == b[1].tolist(), (scorer, method)


def test_shard_count_invariance(index_dir, ray_session):
    kws = _kws(index_dir)
    outs = []
    for n in (1, 5):
        r = TermShardedReader(index_dir, n_shards=n)
        outs.append(score_topic(r, kws, scorer="bm25", k=25))
    assert outs[0][0].tolist() == outs[1][0].tolist()
    assert outs[0][1].tolist() == outs[1][1].tolist()


def test_ownership_partition_is_total(index_dir, ray_session):
    # every dictionary term is owned by exactly one shard, and get_many
    # through the facade returns the same postings as the plain reader
    base = IndexReader(index_dir)
    terms = sorted(base._df)[:40]
    n = 3
    owners = [_owner_of(t, n) for t in terms]
    assert set(owners) <= set(range(n))
    sharded = TermShardedReader(index_dir, n_shards=n)
    got = sharded.get_many(terms)
    exp = base.get_many(terms)
    assert [g.term for g in got] == [e.term for e in exp]
    for g, e in zip(got, exp):
        assert g.df == e.df
        for x, y in zip(g.arrays(), e.arrays()):
            assert x.tolist() == y.tolist(), g.term


def test_tombstones_compose(index_dir, ray_session):
    from search_engine_ray.engine.maintenance import delete_docs

    work = f"{BASE}/idx_del"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(index_dir, work)
    base0 = IndexReader(index_dir)
    kws = _kws(index_dir)
    ids, _ = score_topic(base0, kws, scorer="bm25", k=10)
    victims = [str(base0.doc_names[d]) for d in ids[:2]]
    delete_docs(work, victims)
    a = score_topic(IndexReader(work), kws, scorer="bm25", k=20)
    b = score_topic(TermShardedReader(work, n_shards=2), kws, scorer="bm25", k=20)
    assert a[0].tolist() == b[0].tolist()
    assert a[1].tolist() == b[1].tolist()
    names = {str(base0.doc_names[d]) for d in b[0]}
    assert names.isdisjoint(victims)


def test_validation(index_dir, ray_session):
    with pytest.raises(ValueError):
        TermShardedReader(index_dir, n_shards=0)


def test_cli_term_shards_byte_equal_run(index_dir, ray_session, tmp_path):
    from search_engine_ray.cli import main
    from search_engine_ray.corpus.topics import generate_topics, write_trec_topics

    r = IndexReader(index_dir)
    vocab = sorted(r._df)[:40]
    topics_path = f"{BASE}/topics.txt"
    write_trec_topics(topics_path, generate_topics(3, vocab, seed=9))
    out = str(tmp_path)
    assert main(["search", "a", topics_path, index_dir, "QueryOptions(UseHeadline)",
                 "--k", "15", "--out-dir", out, "--scorers", "bm25"]) == 0
    assert main(["search", "b", topics_path, index_dir, "QueryOptions(UseHeadline)",
                 "--k", "15", "--out-dir", out, "--scorers", "bm25",
                 "--term-shards", "2"]) == 0
    import os

    base = open(os.path.join(out, "results-a-BM25Scorer.txt")).read()
    ts = open(os.path.join(out, "results-b-BM25Scorer.txt")).read()
    assert base.replace(" a\n", "\n").replace(" a", "") == ts.replace(" b\n", "\n").replace(" b", "")
