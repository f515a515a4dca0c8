"""Hostile-text conformance fixture (round-3 verdict, task 3).

The driver regenerates its corpus, and round 3 proved that text the local
testdata never exercised (odd whitespace, CRLF, astral codepoints) can
flip integer token counts between the engine's Arrow RE2 and DuckDB's
RE2 when the two disagree about a character class.  After pinning the
explicit ``[\\t\\n\\x0B\\x0C\\r ]`` class (text/ws.py) this fixture is the
regression net: a small documents table packed with every character that
has EVER split differently — vertical tab, form feed, NBSP, thin space,
U+2028/U+2029, CRLF, astral codepoints, fullwidth letters, ligatures,
empty and whitespace-only docs — over which every whitespace- or
casefold-sensitive ``queries()`` entry must hash-match its
``oracle_sql()`` in DuckDB, exactly like the driver gate.
"""

import os
import sys

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import REPO_ROOT

sys.path.insert(0, REPO_ROOT)

# every class of character that has ever tokenized differently across
# RE2 vintages / engines, plus structural edge cases
HOSTILE_TEXTS = [
    "",  # empty doc
    " \t\v\f\r\n ",  # whitespace-only (incl. \v: the RE2-vintage flip)
    "a\vb c\fd",  # VT + FF between tokens — in the pinned class
    "a b",  # NBSP is NOT whitespace here: one token
    "thin space and narrow",  # U+2009/U+202F not in class
    "line1\r\nline2\rline3\nline4",  # CRLF / bare CR / LF
    "x y z",  # line/paragraph separators: one token
    "emoji \U0001f600\U0001f680 astral \U0001d518\U0001d52b\U0001d526",
    "UPPER lower MiXeD ÀÉÎ Ⅰ ﬀ ＡＢＣ",
    "... starts with ellipsis\n• bullet line\n- dash bullet\n* star\nends with ellipsis ...",
    "ends with unicode ellipsis …\n…\nplain",
    "tab\tseparated\ttokens here",
    "multiple   spaces    between",
    "trailing whitespace \t\v",
    "\fleading formfeed",
    "ütf8 ümlaut ß ñ naïve",
    "<tag>xml</tag> content <a href=x>link</a>",
    "!!! ??? ...",  # punctuation-only tokens
    "the the the the repeated repeated tokens tokens",  # dup material
    "the the the the repeated repeated tokens tokens",  # exact dup of ^
    "0 1 22 333 4444 numbers 0x2f :;=? delim bytes",
    "Mixed NBSP and \v VT and   LS in one doc",
    "word",  # single token, no whitespace at all
    # positional-gate material: the phrase gates query ('sort','table'),
    # proximity/ordered query ('sort','window') — all separated by
    # hostile whitespace and an XML-filtered token so every positional
    # retrieval path is non-vacuous on this corpus
    "sort\vtable window then sort table <tag> sort x window",
    # r5: boolean/trigram-gate material — spark/hash/join/scan terms and
    # the 'window table' / 'big query' needles with hostile separators
    "spark join window table\vbig query spark hash the\fthe window",
]

# queries() entries whose oracle depends on whitespace tokenization,
# ascii vs unicode casefolding, or line splitting — the surfaces the
# explicit class has to pin.  All are documents-only pipelines.
CHECKED = [
    "token_count",
    "bpe_token_count",
    "quality",
    "gopher_quality",
    "doc_stats",
    "term_stats",
    "top_terms",
    "collection_stats",
    "token_quantiles",
    "top_bigrams",
    "pack_sequences",
    "pack_bins",
    "unigram_lm",
    "dsir_weights",
    "simhash",
    "ngram_jaccard",
    "dedup_components",
    "dup_spans",
    "paragraph_dedup",
    "repetition",
    "dedup_exact",
    "dedup_apply",
    "minhash_pairs",
    "near_dup_apply",
    "decontaminate",
    "lang_distribution",
    "heavy_hitters",
    "bpe_pair_counts",
    "lang_token_quantiles",
    "nfc_normalize",
    "chunk_documents",
    "dedup_incremental",
    "bigram_lm",
    "c4_filter",
    # r4 third-session whitespace/casefold-sensitive gates
    "count_min",
    "cm_lookup",
    "top_terms_per_lang",
    "lang_heavy_hitters",
    "quality_terciles",
    "bloom_seen",
    "lang_char_rank",
    # r4: positional sidecar gates (byte-delimiter tokenization + kept-
    # token ordinals; build must survive empty/whitespace-only/astral docs)
    "phrase_match",
    "proximity_match",
    "ordered_window_match",
    "phrase_bm25_top10",
    "boilerplate_strip",
    "content_extract",
    "lang_windows",
    "simhash_near_pairs",
    "token_budget",
    # r5: WS-tokenized keyword extraction + side-split vocabulary drift
    "doc_keywords",
    "corpus_log_odds",
    "winnow_fingerprints",
    "sdm_top10",
    "percolate_phrases",
    # r5: fusion + QPP (degenerate zero-candidate rankings must agree)
    "comb_fusion",
    "qpp_predictors",
    "qpp_post",
    "pivoted_top10",
    "pl2_top10",
    # r5: WS-tokenized signed hashed features
    "feature_hash",
    "cdc_chunks",
    # r5 fourth session: boolean language (EXISTS algebra vs the engine
    # tokenizer), byte-trigram grep (contains()/RE2 oracles), and the
    # text-reordered index (rank-identity under a hostile permutation
    # incl. duplicate and empty texts)
    "boolean_expr",
    "boolean_phrase_expr",
    "boolean_near_expr",
    "boolean_prefix_expr",
    "bm25_boolfiltered_top10",
    "trigram_df",
    "trigram_substring",
    "trigram_regex",
    "bm25_reordered_top10",
    "bm25_asof_top10",
    # r5 fifth session: impact-ordered SAAT tier (sqrt-companded
    # quantizer over hostile tokenization) + the (k1,b) grid sweep
    # (topics whose terms are absent must count with zero metrics)
    "saat_top10",
    "saat_anytime_top10",
    "saat_rerank_top10",
    "saat_sharded_top10",
    "bm25_grid_sweep",
    "maxp_top10",
    "sump_top10",
    "firstp_top10",
]


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("hostile")
    n = len(HOSTILE_TEXTS)
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(1, n + 1)), pa.int64()),
            "text": pa.array(HOSTILE_TEXTS, pa.string()),
            "lang": pa.array(
                ["en" if i % 3 else "de" for i in range(n)], pa.string()
            ),
            "source": pa.array(
                [f"src{i % 4}" for i in range(n)], pa.string()
            ),
            "n_chars": pa.array([len(t) for t in HOSTILE_TEXTS], pa.int64()),
        }
    )
    pq.write_table(tbl, os.path.join(str(d), "documents.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def hostile_con(hostile_dir):
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{hostile_dir}/documents.parquet')"
    )
    return con


def _to_df(result) -> pd.DataFrame:
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), ignore_index=True)


def test_hostile_text_gate_conformance(ray_session, hostile_dir, hostile_con):
    import __ray_entry__ as e

    qs, oracles = e.queries(), e.oracle_sql()
    failures = []
    for name in CHECKED:
        assert name in qs and name in oracles, f"{name} missing from contract"
        try:
            got = _normalize(_to_df(qs[name](hostile_dir)))
            exp = _normalize(hostile_con.execute(oracles[name]).df())
        except Exception as ex:  # noqa: BLE001 - collect per-query failures
            failures.append(f"{name}: raised {type(ex).__name__}: {ex}")
            continue
        if list(got.columns) != list(exp.columns):
            failures.append(f"{name}: columns {list(got.columns)} != {list(exp.columns)}")
            continue
        if len(got) != len(exp):
            failures.append(f"{name}: rows {len(got)} != {len(exp)}")
            continue
        for c in got.columns:
            gv, xv = np.asarray(got[c]), np.asarray(exp[c])
            if np.issubdtype(gv.dtype, np.floating) or np.issubdtype(
                xv.dtype, np.floating
            ):
                ok = np.allclose(
                    gv.astype(np.float64), xv.astype(np.float64), rtol=0, atol=1e-9
                )
            else:
                ok = (gv == xv).all()
            if not ok:
                bad = np.flatnonzero(gv != xv)[:3] if gv.dtype == xv.dtype else []
                failures.append(
                    f"{name}: column {c} differs"
                    + (f" (e.g. rows {bad.tolist()}: {gv[bad]} vs {xv[bad]})" if len(bad) else "")
                )
                break
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# multi-fragment variant: the 23-doc fixture above is one parquet file /
# one row group, so it never exercises cross-fragment docID bases, the
# packing operators' two-phase fragment prefix sum, or multi-batch
# aggregation paths.  This corpus interleaves the hostile texts with
# deterministic unicode-soup documents across THREE files x 32-row row
# groups (12 fragments), and re-checks the fragment/offset-sensitive
# gates.
# ---------------------------------------------------------------------------

_SOUP_TOKENS = (
    "alpha", "Beta", "GAMMA", "δέλτα", "εψιλον", "zeta42", "η­τα",
    "θ", "ι", "κάππα", "λ́", "mu", "NU", "ξι", "0x2f", "123",
    "...", "•", "—", "\U0001f600", "\U0001d518", "ＡＢ", "ﬀi", "ß",
    "<tag>", "</tag>", "a=b", "c:d;e?f", "naïve", "Ⅻ",
)
_SOUP_WS = [" ", "  ", "\t", "\n", "\v", "\f", "\r\n", " ", "  ", " "]


def _soup_doc(i: int) -> str:
    """Deterministic pseudo-random document: token/whitespace choices
    driven by sha256 of the doc index (no RNG state, reproducible)."""
    import hashlib

    h = hashlib.sha256(f"hostile-soup-{i}".encode()).digest()
    n = h[0] % 60  # 0..59 tokens; some docs empty
    parts = []
    for j in range(n):
        hj = hashlib.sha256(f"hostile-soup-{i}-{j}".encode()).digest()
        parts.append(_SOUP_TOKENS[hj[0] % len(_SOUP_TOKENS)])
        parts.append(_SOUP_WS[hj[1] % len(_SOUP_WS)])
    return "".join(parts)


FRAGMENT_SENSITIVE = [
    "pack_sequences",
    "pack_bins",
    "token_count",
    "doc_stats",
    "term_stats",
    "gopher_quality",
    "unigram_lm",
    "dsir_weights",
    "dup_spans",
    "minhash_pairs",
    "dedup_components",
    "paragraph_dedup",
    "simhash",
    "simhash_near_pairs",
    "decontaminate",
    "bigram_lm",
]


@pytest.fixture(scope="module")
def hostile_multi_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("hostile_multi")
    texts = []
    for i in range(360):
        if i % 5 == 0:
            texts.append(HOSTILE_TEXTS[(i // 5) % len(HOSTILE_TEXTS)])
        else:
            texts.append(_soup_doc(i))
    n = len(texts)
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(1, n + 1)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en" if i % 3 else "de" for i in range(n)], pa.string()),
            "source": pa.array([f"src{i % 4}" for i in range(n)], pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    # documents.parquet as a DIRECTORY of 3 files x 32-row row groups —
    # both _docs_ds (ray read_parquet) and plan_fragments accept it
    doc_dir = os.path.join(str(d), "documents.parquet")
    os.makedirs(doc_dir)
    per = n // 3
    for k in range(3):
        part = tbl.slice(k * per, per if k < 2 else n - 2 * per)
        pq.write_table(
            part, os.path.join(doc_dir, f"part-{k:02d}.parquet"), row_group_size=32
        )
    return str(d)


def test_hostile_multi_fragment_conformance(ray_session, hostile_multi_dir):
    import __ray_entry__ as e

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{hostile_multi_dir}/documents.parquet/*.parquet')"
    )
    qs, oracles = e.queries(), e.oracle_sql()
    failures = []
    for name in FRAGMENT_SENSITIVE:
        try:
            got = _normalize(_to_df(qs[name](hostile_multi_dir)))
            exp = _normalize(con.execute(oracles[name]).df())
        except Exception as ex:  # noqa: BLE001
            failures.append(f"{name}: raised {type(ex).__name__}: {ex}")
            continue
        if list(got.columns) != list(exp.columns):
            failures.append(f"{name}: columns {list(got.columns)} != {list(exp.columns)}")
            continue
        if len(got) != len(exp):
            failures.append(f"{name}: rows {len(got)} != {len(exp)}")
            continue
        for c in got.columns:
            gv, xv = np.asarray(got[c]), np.asarray(exp[c])
            if np.issubdtype(gv.dtype, np.floating) or np.issubdtype(xv.dtype, np.floating):
                ok = np.allclose(gv.astype(np.float64), xv.astype(np.float64), rtol=0, atol=1e-9)
            else:
                ok = (gv == xv).all()
            if not ok:
                failures.append(f"{name}: column {c} differs")
                break
    assert not failures, "\n".join(failures)
