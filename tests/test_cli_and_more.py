"""CLI surface, option matrix, boolean retrieval, diagnostics, tf saturation."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from conftest import REPO_ROOT
from search_engine_ray.cli import main, parse_index_options, parse_query_options
from search_engine_ray.config import BuildConfig, IndexOptions, QueryOptions
from search_engine_ray.corpus.pages import write_pages_parquet
from search_engine_ray.corpus.topics import generate_topics, parse_topics_lines, write_trec_topics
from search_engine_ray.engine.boolean import boolean_and, boolean_or
from search_engine_ray.engine.build import build_index
from search_engine_ray.engine.diagnostics import index_stats
from search_engine_ray.engine.index_reader import IndexReader
from search_engine_ray.oracle.indexer import OracleIndex
from tests.test_index_build import _oracle_from_corpus

BASE = "/tmp/se_ray_cli"


def test_option_literal_parsing():
    o = parse_index_options("IndexOptions(CaseFolding,RemoveStopWords,DoStemming)")
    assert o == IndexOptions(True, True, True)
    assert parse_index_options("IndexOptions(CaseFolding)") == IndexOptions(True, False, False)
    assert parse_index_options("IndexOptions()") == IndexOptions(False, False, False)
    q = parse_query_options("QueryOptions(UseHeadline,UseNarrative)")
    assert q == QueryOptions(True, False, True)


@pytest.fixture(scope="module")
def cli_corpus(ray_session):
    shutil.rmtree(BASE, ignore_errors=True)
    corpus = f"{BASE}/corpus"
    write_pages_parquet(corpus, 120, seed=5, n_files=2, row_group_size=32)
    return corpus


def test_cli_index_search_stats(cli_corpus, capsys, tmp_path):
    index_dir = f"{BASE}/index"
    rc = main(["index", cli_corpus, index_dir,
               "IndexOptions(CaseFolding,RemoveStopWords,DoStemming)", "--overwrite"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["n_docs"] == 120
    assert stats["options"] == {"case_folding": True, "remove_stopwords": True, "stemming": True}

    # topics over the built vocabulary
    reader = IndexReader(index_dir)
    vocab = sorted(reader._df)[:50]
    topics_path = f"{BASE}/topics.txt"
    write_trec_topics(topics_path, generate_topics(5, vocab, seed=3))

    out_dir = str(tmp_path)
    rc = main(["search", "r1", topics_path, index_dir,
               "QueryOptions(UseHeadline)", "--k", "20", "--out-dir", out_dir])
    assert rc == 0
    for scorer in ("TfIdfScorer", "BM25Scorer", "BM25ADPT"):
        path = os.path.join(out_dir, f"results-r1-{scorer}.txt")
        assert os.path.exists(path), path
        lines = open(path).read().splitlines()
        assert lines and all(len(l.split(" ")) == 6 for l in lines)

    rc = main(["stats", index_dir, "--stopword-df-threshold", "10"])
    assert rc == 0
    st = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert st["n_terms"] == reader.stats["n_terms"]
    assert sum(st["term_length_hist"].values()) == st["n_terms"]
    assert sum(st["posting_length_hist"].values()) == st["n_terms"]
    # candidate stopwords: df > 10 and len <= 4, sorted by df desc
    for df, term in st["candidate_stopwords"]:
        assert df > 10 and len(term) <= 4


@pytest.fixture(scope="module")
def sharded_index(cli_corpus):
    """An index with more than one doc-range shard (4 fragments, 2 each)."""
    index_dir = f"{BASE}/index_sharded"
    build_index(cli_corpus, index_dir, BuildConfig(block_entries=16, frags_per_shard=2),
                overwrite=True)
    import pyarrow.parquet as pq

    shards = pq.read_table(f"{index_dir}/postings", columns=["shard"])["shard"]
    assert len(set(shards.to_pylist())) > 1
    return index_dir


def test_cli_sharded_byte_equal_run(sharded_index, tmp_path):
    """`search --sharded` writes the same run files as the default path,
    byte for byte once the run name is normalised."""
    vocab = sorted(IndexReader(sharded_index)._df)[:40]
    topics_path = str(tmp_path / "topics.txt")
    write_trec_topics(topics_path, generate_topics(4, vocab, seed=9))
    out = str(tmp_path)
    for run, extra in (("a", []), ("b", ["--sharded"])):
        assert main(["search", run, topics_path, sharded_index, "QueryOptions(UseHeadline)",
                     "--k", "15", "--out-dir", out, "--scorers", "bm25,tfidf", *extra]) == 0
    for scorer in ("BM25Scorer", "TfIdfScorer"):
        base = open(os.path.join(out, f"results-a-{scorer}.txt")).read()
        sharded = open(os.path.join(out, f"results-b-{scorer}.txt")).read()
        assert base.count("\n") > 0, scorer
        assert base.replace(" a\n", " RUN\n") == sharded.replace(" b\n", " RUN\n"), scorer


def test_sharded_no_match_is_typed_empty(sharded_index, tmp_path):
    """Topics whose terms are all absent: the sharded merge returns the
    typed empty table, and `search --sharded` writes an empty run file."""
    from search_engine_ray.engine.sharded_search import search_topics_sharded

    topics = [(1, [("zzqabsent", 1)]), (2, [("zzqmissing", 2), ("zzqnothere", 1)])]
    for scorer in ("bm25", "bm25adpt"):
        tbl = search_topics_sharded(sharded_index, topics, scorer=scorer, k=10)
        assert tbl.num_rows == 0
        assert tbl.schema == pa.schema([("topic", pa.int32()), ("doc_id", pa.int64()),
                                        ("score", pa.float32()), ("rank", pa.int32())])
    topics_path = str(tmp_path / "topics.txt")
    write_trec_topics(topics_path, [(401, "zzqabsent zzqmissing", "", "")])
    assert main(["search", "e", topics_path, sharded_index, "QueryOptions(UseHeadline)",
                 "--out-dir", str(tmp_path), "--sharded"]) == 0
    for scorer in ("TfIdfScorer", "BM25Scorer", "BM25ADPT"):
        assert open(os.path.join(str(tmp_path), f"results-e-{scorer}.txt")).read() == ""


def test_option_matrix_e2e(cli_corpus, ray_session):
    """Golden config matrix (FIXTURES.md §4): each flag combination builds an
    index that decode-equals the oracle under the same options."""
    for opts in [
        IndexOptions(True, False, False),
        IndexOptions(False, False, False),
        IndexOptions(False, True, True),
    ]:
        tag = f"{int(opts.case_folding)}{int(opts.remove_stopwords)}{int(opts.stemming)}"
        index_dir = f"{BASE}/index_{tag}"
        build_index(cli_corpus, index_dir, BuildConfig(options=opts, block_entries=16),
                    overwrite=True)
        oracle = _oracle_from_corpus(cli_corpus, opts)
        reader = IndexReader(index_dir)
        assert set(reader._df) == set(oracle.postings), tag
        for term in list(oracle.postings)[:200]:
            ids, tfs, _ = reader.postings(term).arrays()
            o_ids, o_tfs = oracle.postings[term]
            assert ids.tolist() == o_ids and tfs.tolist() == o_tfs, (tag, term)


def test_query_options_sections():
    lines = [
        "<top>",
        "<num> Number: 401",
        "<title> alpha beta",
        "<desc> Description:",
        "gamma delta",
        "<narr> Narrative:",
        "epsilon zeta",
        "</top>",
    ]
    opts = IndexOptions(True, True, False)
    t = parse_topics_lines(lines, QueryOptions(True, False, False), opts)
    assert t == [(401, [("alpha", 1), ("beta", 1)])]
    t = parse_topics_lines(lines, QueryOptions(True, True, False), opts)
    assert t == [(401, [("alpha", 1), ("beta", 1), ("gamma", 1), ("delta", 1)])]
    t = parse_topics_lines(lines, QueryOptions(False, False, True), opts)
    assert t == [(401, [("epsilon", 1), ("zeta", 1)])]


def test_boolean_retrieval(cli_corpus, ray_session):
    index_dir = f"{BASE}/index"
    reader = IndexReader(index_dir)
    oracle = _oracle_from_corpus(cli_corpus, IndexOptions(True, True, True))
    terms = sorted(oracle.postings, key=lambda t: -len(oracle.postings[t][0]))[:3]
    got = boolean_and(reader, terms)
    sets = [set(oracle.postings[t][0]) for t in terms]
    expected = sorted(set.intersection(*sets))
    assert got.tolist() == expected
    got_or = boolean_or(reader, terms + ["zz_missing"])
    assert got_or.tolist() == sorted(set.union(*sets))
    assert boolean_and(reader, ["zz_missing", terms[0]]).tolist() == []

    from search_engine_ray.engine.boolean import boolean_and_not

    got_not = boolean_and_not(reader, terms[:2], [terms[2]])
    expected_not = sorted((sets[0] & sets[1]) - sets[2])
    assert got_not.tolist() == expected_not
    # absent must_not excludes nothing; absent must yields empty
    assert boolean_and_not(reader, terms[:2], ["zz_missing"]).tolist() == sorted(sets[0] & sets[1])
    assert boolean_and_not(reader, ["zz_missing"], terms[:1]).tolist() == []


def test_dedup_pages_prestage(cli_corpus, ray_session, tmp_path):
    """§2.7: 'one doc per url' as an explicit pre-stage — first occurrence
    kept, deterministic output layout."""
    import pyarrow.parquet as pq

    from search_engine_ray.pipelines import dedup_pages

    # corpus with planted url duplicates
    src = pq.read_table(f"{BASE}/corpus/pages-00000.parquet")
    dup = src.slice(0, 10)
    dup_dir = str(tmp_path / "dup_corpus")
    os.makedirs(dup_dir)
    pq.write_table(src, os.path.join(dup_dir, "a.parquet"))
    pq.write_table(dup, os.path.join(dup_dir, "b.parquet"))

    out1 = dedup_pages(dup_dir, str(tmp_path / "clean1"))
    out2 = dedup_pages(dup_dir, str(tmp_path / "clean2"))
    t1 = pq.read_table(out1).combine_chunks()
    t2 = pq.read_table(out2).combine_chunks()
    assert t1.num_rows == src.num_rows  # duplicates collapsed
    urls = t1["url"].to_pylist()
    assert urls == sorted(set(urls))
    assert t1.equals(t2)  # deterministic across runs


def test_uint16_tf_saturation():
    """the segment builder caps tf at 65535 (documented deviation from the
    reference's silent ushort wraparound, PostingList.cs:32,47)."""
    from search_engine_ray.engine.codec import vbyte_decode
    from search_engine_ray.engine.segments import build_fragment_postings

    text = " ".join(["echo"] * 70_000)
    _docs, seg = build_fragment_postings(
        ["d0"], pa.array([text], pa.string()), 0, 0,
        BuildConfig(options=IndexOptions(True, True, False)),
    )
    tfs = vbyte_decode(seg["tfs_enc"][0].as_py())
    assert tfs.tolist() == [65535]
    # doc_len still counts every kept token (WriteableIndex.cs:68 semantics)
    assert _docs["doc_len"][0].as_py() == 70_000


def test_cli_terms_and_mlt(cli_corpus, capsys, tmp_path):
    """terms (prefix/pattern/suggest) and mlt subcommands."""
    index_dir = f"{BASE}/index-lex"
    rc = main(["index", cli_corpus, index_dir,
               "IndexOptions(CaseFolding,RemoveStopWords,DoStemming)", "--overwrite"])
    assert rc == 0
    capsys.readouterr()

    reader = IndexReader(index_dir)
    vocab = sorted(reader._df)
    prefix = vocab[0][0]  # first letter of first term -> nonempty result

    assert main(["terms", index_dir, "--prefix", prefix]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    exp = [t for t in vocab if t.startswith(prefix)]
    assert [l.split("\t")[0] for l in out] == exp

    assert main(["terms", index_dir, "--suggest", prefix, "--limit", "3"]) == 0
    out2 = capsys.readouterr().out.strip().splitlines()
    assert len(out2) == min(3, len(exp))
    dfs = [int(l.split("\t")[1]) for l in out2]
    assert dfs == sorted(dfs, reverse=True)

    assert main(["terms", index_dir, "--pattern", f"{prefix}*"]) == 0
    out3 = capsys.readouterr().out.strip().splitlines()
    assert [l.split("\t")[0] for l in out3] == exp

    assert main(["terms", index_dir]) == 2  # no mode flag
    capsys.readouterr()

    text = " ".join(vocab[:8])
    assert main(["mlt", index_dir, "--text", text, "--k", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = json.loads(lines[0])
    assert 0 < len(header["query_terms"]) <= 10
    assert 1 <= len(lines) - 1 <= 5


def test_cli_query_positions_phrase(ray_session, tmp_path):
    """CLI ad-hoc query (scorers, boolean, lmd), positional sidecar build
    and phrase/near queries."""
    import json as _json
    import subprocess
    import sys as _sys

    import pyarrow as pa
    import pyarrow.parquet as pq_

    corpus = str(tmp_path / "corpus")
    os.makedirs(corpus)
    pq_.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(
                    ["alpha beta gamma", "beta gamma delta", "alpha delta"]
                ),
            }
        ),
        f"{corpus}/docs.parquet",
    )
    env = dict(os.environ, PYTHONPATH=REPO_ROOT)

    def run(*argv):
        out = subprocess.run(
            [_sys.executable, "-m", "search_engine_ray", *argv],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert out.returncode == 0, out.stderr[-800:]
        return [l for l in out.stdout.splitlines() if l.startswith("{")]

    idx = str(tmp_path / "idx")
    run("index", corpus, idx, "IndexOptions(CaseFolding,RemoveStopWords)",
        "--source-column", "text", "--name-column", "doc_id", "--num-cpus", "2")

    rows = [_json.loads(l) for l in run("query", idx, "alpha beta", "--k", "5")]
    assert rows and rows[0]["rank"] == 1 and "score" in rows[0]
    docs_and = {_json.loads(l)["doc"] for l in run(
        "query", idx, "alpha beta", "--boolean", "and")}
    assert docs_and == {"0"}
    lmd_rows = [_json.loads(l) for l in run(
        "query", idx, "alpha beta", "--scorer", "lmd", "--k", "3")]
    assert lmd_rows and lmd_rows[0]["rank"] == 1
    lmjm_rows = [_json.loads(l) for l in run(
        "query", idx, "alpha beta", "--scorer", "lmjm", "--k", "3")]
    assert lmjm_rows and lmjm_rows[0]["rank"] == 1

    # --explain: float32 per-term breakdown sums to the ranked score exactly
    top = rows[0]
    exp = [_json.loads(l) for l in run(
        "query", idx, "alpha beta zzmissing", "--explain", top["doc"])]
    assert exp[-1]["doc"] == top["doc"]
    assert exp[-1]["score"] == top["score"]
    assert [r["term"] for r in exp[:-1]] == ["alpha", "beta", "zzmissing"]
    assert exp[2]["matched"] is False and exp[2]["reason"] == "term not in index"
    matched = [r for r in exp[:-1] if r["matched"]]
    assert matched and all("contribution" in r for r in matched)
    total = np.float32(0.0)
    for r in matched:
        total = np.float32(total + np.float32(r["contribution"]))
    assert float(total) == top["score"]
    # a repeated query term (qtf=2) is explained with the same kernel
    rows2 = [_json.loads(l) for l in run("query", idx, "alpha beta alpha", "--k", "5")]
    exp2 = [_json.loads(l) for l in run(
        "query", idx, "alpha beta alpha", "--explain", rows2[0]["doc"])]
    assert [(r["term"], r["qtf"]) for r in exp2[:-1]] == [("alpha", 2), ("beta", 1)]
    assert exp2[-1]["score"] == rows2[0]["score"]
    total = np.float32(0.0)
    for r in exp2[:-1]:
        if r["matched"]:
            total = np.float32(total + np.float32(r["contribution"]))
    assert float(total) == rows2[0]["score"]
    # ranked-and and synonyms surfaces through the CLI
    ra = [_json.loads(l) for l in run("query", idx, "alpha beta", "--ranked-and")]
    assert {r["doc"] for r in ra} == {"0"}
    syn = [_json.loads(l) for l in run(
        "query", idx, "alpha", "--synonyms", "alpha=delta", "--k", "3")]
    assert len(syn) == 3  # union postings cover all docs

    pos = str(tmp_path / "pos")
    run("positions", corpus, pos, "IndexOptions(CaseFolding,RemoveStopWords)",
        "--source-column", "text", "--name-column", "doc_id", "--num-cpus", "2")
    ph = [_json.loads(l) for l in run("phrase", pos, "alpha", "beta")]
    assert [(r["doc_id"], r["n_matches"]) for r in ph] == [(0, 1)]
    nr = [_json.loads(l) for l in run("phrase", pos, "alpha", "gamma", "--near", "2")]
    assert [(r["doc_id"], r["n_pairs"]) for r in nr] == [(0, 1)]


def test_cli_query_facets_collapse_prf(ray_session, tmp_path):
    """query --facets/--collapse/--prf over a docs table."""
    import json as _json
    import subprocess
    import sys as _sys

    import pyarrow as pa
    import pyarrow.parquet as pq_

    corpus = str(tmp_path / "corpus")
    os.makedirs(corpus)
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                ["alpha beta", "alpha beta beta", "alpha gamma", "delta"]
            ),
            "lang": pa.array(["en", "fr", "en", "fr"]),
        }
    )
    pq_.write_table(docs, f"{corpus}/docs.parquet")
    env = dict(os.environ, PYTHONPATH=REPO_ROOT)

    def run(*argv):
        out = subprocess.run(
            [_sys.executable, "-m", "search_engine_ray", *argv],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert out.returncode == 0, out.stderr[-800:]
        return [_json.loads(l) for l in out.stdout.splitlines() if l.startswith("{")]

    idx = str(tmp_path / "idx")
    run("index", corpus, idx, "IndexOptions(CaseFolding,RemoveStopWords)",
        "--source-column", "text", "--name-column", "doc_id", "--num-cpus", "2")
    fc = run("query", idx, "alpha", "--facets", "lang",
             "--docs-table", f"{corpus}/docs.parquet", "--num-cpus", "2")
    assert {(r["facet"], r["n_docs"]) for r in fc} == {("en", 2), ("fr", 1)}
    col = run("query", idx, "alpha beta", "--collapse", "lang",
              "--docs-table", f"{corpus}/docs.parquet")
    langs = {docs["lang"][int(r["doc"])].as_py() for r in col}
    assert len(langs) == len(col)  # one result per lang
    prf = run("query", idx, "beta", "--prf", "2",
              "--docs-table", f"{corpus}/docs.parquet", "--num-cpus", "2")
    assert "expansion_terms" in prf[0] and len(prf) > 1


def test_cli_qpp(cli_corpus, capsys, ray_session):
    """qpp verb: per-term pre-retrieval lines sorted by term, then one
    post-retrieval summary row; absent terms silently dropped; --no-post
    skips the scoring pass."""
    index_dir = f"{BASE}/index-qpp"
    rc = main(["index", cli_corpus, index_dir,
               "IndexOptions(CaseFolding,RemoveStopWords)", "--overwrite"])
    assert rc == 0
    capsys.readouterr()

    reader = IndexReader(index_dir)
    vocab = sorted(reader._df, key=lambda t: -reader._df[t])
    t1, t2 = vocab[0], vocab[1]

    assert main(["qpp", index_dir, f"{t1} {t2} zzznotaterm"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    pre, post = lines[:-1], lines[-1]
    assert [r["term"] for r in pre] == sorted([t1, t2])
    for r in pre:
        assert r["df"] == reader._df[r["term"]]
        assert r["cf"] >= r["df"]
    assert post["k"] <= 10 and post["n_scored"] >= post["k"]
    assert post["sum_all_micros"] is not None

    assert main(["qpp", index_dir, t1, "--no-post"]) == 0
    only_pre = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(only_pre) == 1 and only_pre[0]["term"] == t1

    # all-stopword / unindexable query
    assert main(["qpp", index_dir, "zzznotaterm"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [] or json.loads(out[-1])["n_scored"] == 0


def test_cli_fuse_and_eval(ray_session, capsys, tmp_path):
    """fuse (rrf + combmnz) and eval verbs over hand-written TREC files
    with hand-computed expectations."""
    run_a = tmp_path / "runA.txt"
    run_b = tmp_path / "runB.txt"
    qrels = tmp_path / "qrels.txt"
    run_a.write_text(
        "1 Q0 docA 1 3.5 runA\n1 Q0 docB 2 2.5 runA\n1 Q0 docC 3 1.5 runA\n"
        "2 Q0 docX 1 9.0 runA\n2 Q0 docY 2 4.0 runA\n"
        "3 Q0 docU 1 1.0 runA\n"  # topic 3 is UNJUDGED (no qrels)
    )
    run_b.write_text(
        "1 Q0 docB 1 7.0 runB\n1 Q0 docD 2 6.0 runB\n1 Q0 docA 3 5.0 runB\n"
        "2 Q0 docY 1 2.0 runB\n2 Q0 docZ 2 1.0 runB\n"
        "3 Q0 docV 1 1.0 runB\n"
    )
    qrels.write_text("1 0 docB 1\n1 0 docD 1\n1 0 docQ 0\n2 0 docZ 1\n")

    fused = tmp_path / "fused.txt"
    assert main(["fuse", str(fused), str(run_a), str(run_b)]) == 0
    capsys.readouterr()
    lines = [l.split() for l in fused.read_text().strip().splitlines()]
    t1 = [(l[2], int(float(l[4]))) for l in lines if l[0] == "1"]
    # rrf: docB = 1e6//62 + 1e6//61; docA = 1e6//61 + 1e6//63
    assert t1[0] == ("docB", 1_000_000 // 62 + 1_000_000 // 61)
    assert t1[1] == ("docA", 1_000_000 // 61 + 1_000_000 // 63)
    assert [l[3] for l in lines if l[0] == "1"] == ["1", "2", "3", "4"]

    fusedc = tmp_path / "fusedc.txt"
    assert main(
        ["fuse", str(fusedc), str(run_a), str(run_b), "--method", "combmnz"]
    ) == 0
    capsys.readouterr()
    linesc = [l.split() for l in fusedc.read_text().strip().splitlines()]
    # docB: norm 0.5e6 (runA mid) * ... hand value: (500000 + 1000000) * 2
    b = [l for l in linesc if l[0] == "1" and l[2] == "docB"][0]
    assert int(float(b[4])) == 3_000_000

    assert main(["eval", str(fused), str(qrels)]) == 0
    out = [l for l in capsys.readouterr().out.strip().splitlines()]
    import json as _json

    rows = [_json.loads(l) for l in out]
    per_topic = {r["topic"]: r for r in rows[:-1]}
    assert per_topic[1]["sum_prec_micros"] == 1_666_666  # 1/1 + 2/3 micros
    assert per_topic[1]["rr_micros"] == 1_000_000
    assert per_topic[2]["first_rel_rank"] == 3
    summary = rows[-1]
    # trec_eval semantics: the unjudged topic 3 appears per-topic but is
    # EXCLUDED from the aggregate means
    assert summary["n_topics"] == 3
    assert summary["n_topics_judged"] == 2
    assert abs(summary["map"] - 0.583333) < 1e-6

    # single run file refuses
    assert main(["fuse", str(tmp_path / "x.txt"), str(run_a)]) == 2
    capsys.readouterr()


def test_cli_query_relax_after_sortby(ray_session, capsys, tmp_path):
    """--relax / --after / --sort-by on the query verb."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq_

    rng = np.random.default_rng(47)
    vocab = ["alpha", "beta", "gamma", "delta"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(2, 9)).tolist())
        for _ in range(25)
    ]
    corpus = str(tmp_path / "c")
    os.makedirs(corpus)
    tbl = pa.table(
        {
            "doc_id": pa.array(range(25), pa.int64()),
            "text": pa.array(texts),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq_.write_table(tbl, f"{corpus}/d.parquet")
    idx = str(tmp_path / "i")
    assert main(["index", corpus, idx, "IndexOptions()", "--source-column",
                 "text", "--name-column", "doc_id", "--overwrite"]) == 0
    capsys.readouterr()

    q = "alpha beta gamma"
    assert main(["query", idx, q, "--relax", "--k", "5"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert 1 <= lines[0]["m_used"] <= 3 and lines[0]["n_terms"] == 3
    assert len(lines) - 1 <= 5

    # page 1 has no cursor flag; walk one cursor page
    assert main(["query", idx, q, "--after=99999999999,-1", "--k", "4"]) == 0
    page = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert 0 < len(page) <= 4
    cur = f"{page[-1]['score_micros']},{page[-1]['doc']}"
    # negative micros would parse as a flag with a separate token: use =
    assert main(["query", idx, q, f"--after={cur}", "--k", "4"]) == 0
    page2 = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert not {p["doc"] for p in page} & {p["doc"] for p in page2}

    assert main(["query", idx, q, "--after=garbage"]) == 2
    capsys.readouterr()

    assert main(["query", idx, q, "--sort-by", "n_chars",
                 "--docs-table", f"{corpus}/d.parquet", "--k", "5"]) == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    lens = [r["n_chars"] for r in rows]
    assert lens == sorted(lens, reverse=True)

    assert main(["query", idx, q, "--sort-by", "n_chars"]) == 2
    capsys.readouterr()


def test_cli_impact_saat_fsck_tune(cli_corpus, capsys, ray_session, tmp_path):
    """Round-5 session-5 verbs end-to-end: impact-index -> saat
    (exhaustive / --budget / --rerank) -> impact-fsck -> tune; plus the
    tombstone path (saat output drops a deleted doc immediately)."""
    index_dir = str(tmp_path / "idx")
    imp_dir = str(tmp_path / "imp")
    rc = main(["index", cli_corpus, index_dir,
               "IndexOptions(CaseFolding,RemoveStopWords)", "--overwrite"])
    assert rc == 0
    capsys.readouterr()

    assert main(["impact-index", index_dir, imp_dir, "--num-cpus", "2"]) == 0
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["n_postings"] > 0 and meta["quant_levels"] == 256

    # query terms from the index vocabulary (head by df)
    r = IndexReader(index_dir)
    terms = sorted(r._df, key=lambda t: -r._df[t])[:3]
    q = " ".join(terms)

    assert main(["saat", imp_dir, index_dir, q]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert lines and all("impact_score" in l for l in lines)
    top_doc = lines[0]["doc"]

    assert main(["saat", imp_dir, index_dir, q, "--budget", "5"]) == 0
    blines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines() if l]
    if blines:  # tiny budget may admit nothing
        assert blines[0]["postings_processed"] <= 5

    assert main(["saat", imp_dir, index_dir, q, "--rerank", "20"]) == 0
    rlines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert rlines and all("bm25" in l for l in rlines)

    assert main(["impact-fsck", imp_dir, index_dir, "--num-cpus", "2"]) == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["violations"] == 0

    # tombstone: delete the SAAT top doc -> it must vanish from saat output
    assert main(["delete", index_dir, top_doc]) == 0
    capsys.readouterr()
    assert main(["saat", imp_dir, index_dir, q]) == 0
    after = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert top_doc not in [l["doc"] for l in after]

    # tune over generated topics (index vocabulary)
    topics = generate_topics(4, list(r._df)[:50], seed=3)
    tpath = str(tmp_path / "topics.txt")
    write_trec_topics(tpath, topics)
    assert main(["tune", index_dir, tpath, "--grid", "900:300,1200:750",
                 "--num-cpus", "2"]) == 0
    tl = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(tl) == 3  # 2 configs + best line
    assert "best_k1_milli" in tl[-1]
    assert main(["tune", index_dir, tpath, "--grid", "bogus"]) == 2
