"""Emulates the driver gate: every queries() entry at sf0.01 compared
against its oracle_sql() via DuckDB (row count, schema names, and
order-insensitive exact values), plus the entry() smoke check."""

import os
import signal
import sys

import duckdb
import numpy as np
import pandas as pd
import pytest

from conftest import REPO_ROOT

sys.path.insert(0, REPO_ROOT)

SF = "/root/testdata/sf0.01"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        path = f"{SF}/{t}.parquet"
        if os.path.exists(path):
            c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
    return c


@pytest.fixture(scope="module")
def contract(ray_session):
    import __ray_entry__ as e

    return e


def _to_df(result) -> pd.DataFrame:
    import pyarrow as pa
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


SQL_CHECKED = None  # populated in test

# wall-clock budget per gate: a gate that stalls (e.g. waiting on Ray CPU
# slots that never free) is recorded by name and the sweep moves on,
# instead of the whole suite running into its timeout anonymously
GATE_BUDGET_S = 600


class _GateTimeout(Exception):
    pass


def _raise_gate_timeout(signum, frame):
    raise _GateTimeout


def test_all_sql_checked_queries(contract, con):
    qs = contract.queries()
    oracles = contract.oracle_sql()
    assert set(oracles) <= set(qs)
    failures = []
    prior_handler = signal.signal(signal.SIGALRM, _raise_gate_timeout)
    try:
        for name, sql in oracles.items():
            signal.alarm(GATE_BUDGET_S)
            try:
                got = _normalize(_to_df(qs[name](SF)))
            except _GateTimeout:
                failures.append(f"{name}: exceeded its {GATE_BUDGET_S} s budget")
                continue
            finally:
                signal.alarm(0)
            _compare(name, got, _normalize(con.execute(sql).df()), failures)
    finally:
        signal.signal(signal.SIGALRM, prior_handler)
    assert not failures, failures


def _compare(name: str, got: pd.DataFrame, exp: pd.DataFrame, failures: list) -> None:
    """Append the first mismatch between a gate's rows and its oracle's
    (columns, row count, integer-ness, then exact values) to ``failures``."""
    try:
        assert list(got.columns) == list(exp.columns), (
            f"{name}: columns {list(got.columns)} != {list(exp.columns)}"
        )
        assert len(got) == len(exp), f"{name}: rows {len(got)} != {len(exp)}"
        for c in got.columns:
            # the contract's value-hash is dtype-sensitive: an int64
            # engine column vs a float64 oracle column (DuckDB SUM ->
            # HUGEINT -> pandas float64) hash-diverges even when every
            # value is numerically equal (round-4 red rows). Enforce
            # matching integer-ness here so it can't regress silently.
            gk = np.asarray(got[c]).dtype.kind
            ek = np.asarray(exp[c]).dtype.kind
            assert (gk in "iub") == (ek in "iub"), (
                f"{name}.{c}: dtype kind mismatch engine={gk} oracle={ek}"
                " — CAST the oracle column to BIGINT/BOOLEAN"
            )
        for c in got.columns:
            if np.issubdtype(exp[c].dtype, np.floating) or np.issubdtype(
                np.asarray(got[c]).dtype, np.floating
            ):
                np.testing.assert_allclose(
                    np.asarray(got[c], dtype=np.float64),
                    np.asarray(exp[c], dtype=np.float64),
                    rtol=0,
                    atol=0,
                    err_msg=f"{name}.{c}",
                )
            else:
                same = np.asarray(got[c]) == np.asarray(exp[c])
                assert same.all(), f"{name}.{c}: first diff at {np.flatnonzero(~same)[:5]}"
    except AssertionError as exc:
        failures.append(str(exc).splitlines()[0])


def test_oracle_dtypes_canonical(con):
    """Every oracle output column must land in pandas as int64 / bool /
    float64-by-design / str — never HUGEINT->float64, int32, or uint.
    Fast (DuckDB only, no Ray); mirrors the driver's dtype-sensitive hash."""
    import __ray_entry__ as e

    bad = []
    for name, sql in e.oracle_sql().items():
        df = con.execute(sql).df()
        for c in df.columns:
            dt = str(df[c].dtype)
            if (
                dt.startswith("float")
                or (dt.startswith("int") and dt != "int64")
                or dt.startswith("uint")
            ):
                bad.append(f"{name}.{c}: {dt}")
            elif dt == "object":
                nn = df[c].dropna()
                if len(nn) and not isinstance(nn.iloc[0], str):
                    bad.append(f"{name}.{c}: object({type(nn.iloc[0]).__name__})")
    assert not bad, bad


def test_rows_only_queries_run(contract):
    qs = contract.queries()
    oracles = contract.oracle_sql()
    for name in set(qs) - set(oracles):
        df = _to_df(qs[name](SF))
        assert len(df) >= 0 and len(df.columns) > 0, name


def test_entry_smoke(contract):
    df = _to_df(contract.entry())
    assert len(df) > 0
    assert list(df.columns) == ["topic", "q0", "doc", "rank", "score", "run_name"]


def test_coverage_doc_gate_names_exist(contract):
    """Doc-rot net: every q:`name` cited in COVERAGE.md must be a real
    queries() entry (a renamed or deleted gate must update the doc)."""
    import re

    qs = set(contract.queries())
    cited = set(re.findall(r"q:`([a-z0-9_]+)`", open(os.path.join(REPO_ROOT, "COVERAGE.md")).read()))
    missing = sorted(cited - qs)
    assert not missing, f"COVERAGE.md cites unknown gates: {missing}"
