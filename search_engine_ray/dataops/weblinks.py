"""Web link-graph operators over a Common-Crawl-style pages corpus.

Built on ``corpus.links.extract_links_batch`` (vectorized ``<a href>``
parsing).  Every shape here is scale-honest at 10^12 pages:

* ``link_edges``   — one zero-copy ``map_batches`` over the html column;
  output rows are edge-sized (url+url+anchor), never the html payload.
* ``host_degree``  — per-batch partial value-counts of src/dst hosts (the
  exchange carries (host, partial_out, partial_in) rows, not edges), then
  ONE native groupby Sum/Sum.
* ``anchor_agg``   — two native groupbys: (dst,src)-pair fold, then a
  dst fold — rows bounded by the edge count, anchors reduced via Min.
* ``bm25_anchor_scores`` — anchor-field ranking WITHOUT materializing
  per-target anchor documents: anchors tokenize inside ``map_batches``
  with the engine tokenizer, the exchange carries (dst, dl_partial) plus
  (dst, term, tf_partial) **filtered to the query terms** (candidate-sized,
  not corpus-token-sized), and scoring is a small join over candidates.
  This is the classic anchor-text field of web search (title/body/anchor)
  expressed as a dataflow rather than a second index build.

The closed-form synthetic outlink rule lives in corpus/links.py so the
driver's SQL oracles can recompute expected edges without parsing html.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..config import IndexOptions
from ..corpus.links import extract_links_batch
from ..engine.scoring import bm25_term

_HOST_RE = r"^[a-z][a-z0-9+.-]*://(?:[^/@]*@)?(?P<host>[^/:?#]+)"


def host_of(urls: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized host extraction (scheme://[userinfo@]HOST[:port]/...)."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    m = pc.extract_regex(pc.ascii_lower(urls), pattern=_HOST_RE)
    return pc.struct_field(m, "host")


def link_edges(
    pages: ray.data.Dataset,
    html_column: str = "html",
    url_column: str = "url",
) -> ray.data.Dataset:
    """(src_url, dst_url, anchor) edge list — one streaming pass, the html
    payload never crosses a stage boundary."""

    def edges(batch: pa.Table) -> pa.Table:
        parents, dst, anchor = extract_links_batch(batch[html_column])
        src = batch[url_column].combine_chunks().take(pa.array(parents))
        return pa.table({"src_url": src, "dst_url": dst, "anchor": anchor})

    return pages.map_batches(edges, batch_format="pyarrow")


def host_degree(edges: ray.data.Dataset) -> ray.data.Dataset:
    """(host, outdeg, indeg) — partial per-batch host counts, one shuffle."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        out = []
        for col, o_name in (("src_url", "outdeg"), ("dst_url", "indeg")):
            vc = host_of(batch[col]).value_counts()
            hosts = pc.struct_field(vc, "values")
            counts = pc.struct_field(vc, "counts").cast(pa.int64())
            zero = pa.array(np.zeros(len(hosts), dtype=np.int64))
            out.append(
                pa.table(
                    {
                        "host": hosts,
                        "outdeg": counts if o_name == "outdeg" else zero,
                        "indeg": counts if o_name == "indeg" else zero,
                    }
                )
            )
        return pa.concat_tables(out)

    return (
        edges.map_batches(partial, batch_format="pyarrow")
        .groupby("host")
        .aggregate(Sum("outdeg", alias_name="outdeg"), Sum("indeg", alias_name="indeg"))
    )


def anchor_agg(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Per target: (dst_url, n_inlinks, n_src, min_anchor).

    ``n_src`` is the exact distinct-source count via the standard two-level
    fold: pair groupby then target groupby (both native, edge-bounded)."""
    from ray.data.aggregate import Count, Min, Sum

    pairs = (
        edges.groupby(["dst_url", "src_url"])
        .aggregate(Count(alias_name="n"), Min("anchor", alias_name="min_anchor"))
    )
    return (
        pairs.groupby("dst_url")
        .aggregate(
            Sum("n", alias_name="n_inlinks"),
            Count(alias_name="n_src"),
            Min("min_anchor", alias_name="min_anchor"),
        )
    )


def bm25_anchor_scores(
    edges: ray.data.Dataset,
    keywords: list[tuple[str, int]],
    options: IndexOptions | None = None,
    k1: float = 1.2,
    b: float = 0.75,
    k: int = 10,
) -> pa.Table:
    """Anchor-field BM25: rank link TARGETS by the BM25 score of the query
    against the concatenation of their inbound anchor texts — computed as
    distributed aggregates (no anchor-document materialization, no index
    build).  Returns the top-``k`` as (dst_url, score_micros), ties ->
    ascending dst_url.

    Collection statistics are anchor-corpus statistics: N = #targets with
    >=1 inlink, dl(d) = kept-token count over d's inbound anchors, avgdl =
    total kept tokens / N — the same convention the SQL oracle states.
    """
    from ray.data.aggregate import Count, Sum

    from ..text.vectorized import tokenize_batch

    opts = options or IndexOptions()
    qterms = [t for t, _ in keywords]
    qset = pa.array(sorted(set(qterms)), type=pa.string())

    def partials(batch: pa.Table) -> pa.Table:
        tb = tokenize_batch(batch["anchor"], opts)
        dst = batch["dst_url"].combine_chunks()
        n_rows = len(dst)
        dl = tb.doc_lens.astype(np.int64)
        # (dst, dl_partial) rows; term="" is the doc-length sentinel (engine
        # tokens are never empty, so the key spaces cannot collide).  Rows
        # whose anchor kept no tokens emit nothing — a target whose inbound
        # anchors are all token-free is NOT part of the anchor corpus.
        has_tok = dl > 0
        t_dl = pa.table(
            {
                "dst_url": dst.filter(pa.array(has_tok)),
                "term": pa.array([""] * int(has_tok.sum()), pa.string()),
                "n": pa.array(dl[has_tok]),
            }
        )
        # (dst, term, tf_partial) rows, query terms only
        token_terms = tb.terms[tb.term_codes]
        qmask = pc.is_in(
            pa.array(token_terms, type=pa.string()), value_set=qset
        ).to_numpy(zero_copy_only=False)
        if qmask.any():
            d_idx = tb.doc_idx[qmask]
            t_hit = token_terms[qmask]
            # fold (row, term) duplicates inside the batch before the shuffle
            import pandas as pd

            df = pd.DataFrame({"i": d_idx, "t": t_hit})
            g = df.groupby(["i", "t"], sort=False).size().reset_index(name="n")
            t_tf = pa.table(
                {
                    "dst_url": dst.take(pa.array(g["i"].to_numpy(dtype=np.int64))),
                    "term": pa.array(g["t"].astype(str)),
                    "n": pa.array(g["n"].to_numpy(dtype=np.int64)),
                }
            )
            return pa.concat_tables([t_dl, t_tf])
        return t_dl

    folded = (
        edges.map_batches(partials, batch_format="pyarrow")
        .groupby(["dst_url", "term"])
        .aggregate(Sum("n", alias_name="n"))
    ).materialize()
    # split the folded stream: sentinel rows are doc lengths, others tf
    dl_ds = folded.map_batches(
        lambda t: t.filter(pc.equal(t["term"], "")).drop_columns(["term"]),
        batch_format="pyarrow",
    ).rename_columns({"n": "dl"})
    tf_ds = folded.map_batches(
        lambda t: t.filter(pc.not_equal(t["term"], "")), batch_format="pyarrow"
    )

    # collection stats (tiny distributed reduce over the target-sized side)
    stats = dl_ds.aggregate(Count(), Sum("dl"))
    n_targets = int(stats["count()"] or 0)
    total_tokens = int(stats["sum(dl)"] or 0)
    if n_targets == 0:
        return pa.table(
            {"dst_url": pa.array([], pa.string()), "score_micros": pa.array([], pa.int64())}
        )
    avgdl = total_tokens / n_targets

    # per-term df: the fold above already made (dst_url, term) unique, so
    # df(term) = row count per term — a |query-terms|-sized reduce; only
    # these few scalars ever reach the driver.
    df_rows = tf_ds.groupby("term").aggregate(Count()).take_all()
    qtf = {t: q for t, q in keywords}
    # per-term scalar weight qtf * idf, broadcast in the scoring closure
    # (bytes, not data — the candidate table itself never leaves workers)
    idf_w = {
        r["term"]: qtf.get(r["term"], 0)
        * math.log((n_targets - r["count()"] + 0.5) / (r["count()"] + 0.5))
        for r in df_rows
    }

    from ..ioutil import nonempty_blocks
    from .dedup import _join_parts

    cand = tf_ds.join(
        dl_ds, "inner", _join_parts(8), on=("dst_url",), right_on=("dst_url",)
    )

    def score_batch(batch: pa.Table) -> pa.Table:
        # dictionary-encode terms so the dict lookup runs once per UNIQUE
        # term (<= |query|), then vectorized BM25 over the whole batch
        d = batch["term"].combine_chunks().dictionary_encode()
        w_uniq = np.array([idf_w.get(t, 0.0) for t in d.dictionary.to_pylist()])
        w = w_uniq[d.indices.to_numpy()] if len(d) else np.zeros(0)
        tfv = np.asarray(batch["n"], dtype=np.float64)
        dlv = np.asarray(batch["dl"], dtype=np.float64)
        score = bm25_term(w, tfv, dlv, avgdl, k1, b)
        return pa.table({"dst_url": batch["dst_url"], "score": pa.array(score)})

    # join output feeds another shuffle -> sanitize zero-column empty
    # blocks (Ray 2.49 Acero wart, see ioutil.nonempty_blocks)
    scored = (
        nonempty_blocks(cand.materialize())
        .map_batches(score_batch, batch_format="pyarrow")
        .groupby("dst_url")
        .aggregate(Sum("score", alias_name="score"))
    )

    # tree top-k (ties -> ascending dst_url): per-batch partials, one
    # intermediate level, one final block — the driver receives k rows
    def partial_topk(batch: pa.Table) -> pa.Table:
        vals = np.asarray(batch["score"], dtype=np.float64)
        urls = np.asarray(batch["dst_url"].to_pylist(), dtype=object)
        order = np.lexsort((urls, -vals))[:k]
        return batch.take(pa.array(np.sort(order)))

    reduced = (
        scored.map_batches(partial_topk, batch_format="pyarrow")
        .repartition(8)
        .map_batches(partial_topk, batch_size=None, batch_format="pyarrow")
        .repartition(1)
        .map_batches(partial_topk, batch_size=None, batch_format="pyarrow")
    )
    batches = [
        pa.table(b)
        for b in reduced.iter_batches(batch_size=None, batch_format="pyarrow")
    ]
    batches = [b for b in batches if b.num_rows]
    if not batches:
        return pa.table(
            {"dst_url": pa.array([], pa.string()), "score_micros": pa.array([], pa.int64())}
        )
    allp = pa.concat_tables(batches)
    vals = np.asarray(allp["score"], dtype=np.float64)
    urls = np.asarray(allp["dst_url"].to_pylist(), dtype=object)
    order = np.lexsort((urls, -vals))[:k]
    allp = allp.take(pa.array(order))
    micros = np.floor(
        np.asarray(allp["score"], dtype=np.float64) * 1_000_000 + 0.5
    ).astype(np.int64)
    return pa.table(
        {
            "dst_url": allp["dst_url"],
            "score_micros": pa.array(micros),
        }
    )


def reciprocal_host_pairs(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Host pairs linked in BOTH directions — the classic link-farm /
    link-exchange spam signal.  Output (host_a, host_b, ab_links,
    ba_links) with host_a < host_b, one row per reciprocal pair.

    Shape: per-batch partial (src_host, dst_host) value-counts (the
    exchange carries host-pair partials, never edges), ONE native
    groupby Sum for directed counts, then ONE hash self-join matching
    (a, b) against (b, a) — pair-table-sized, not edge-sized."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        s = host_of(batch["src_url"])
        d = host_of(batch["dst_url"])
        key = pc.binary_join_element_wise(s, d, "\x00")
        vc = key.value_counts()
        kv = pc.struct_field(vc, "values")
        parts = pc.split_pattern(kv, "\x00")
        return pa.table(
            {
                "s": pc.list_element(parts, 0),
                "d": pc.list_element(parts, 1),
                "n": pc.struct_field(vc, "counts").cast(pa.int64()),
            }
        )

    directed = (
        edges.map_batches(partial, batch_format="pyarrow")
        .groupby(["s", "d"])
        .aggregate(Sum("n", alias_name="n"))
        .filter(expr="s != d")
        .materialize()
    )
    n_pairs = directed.count()
    jp = max(2, n_pairs // 500_000 + 1)
    both = directed.join(
        directed,
        "inner",
        jp,
        on=("s", "d"),
        right_on=("d", "s"),
        left_suffix="",
        right_suffix="_r",
    )

    def emit(batch: pa.Table) -> pa.Table:
        s = batch["s"].combine_chunks() if isinstance(batch["s"], pa.ChunkedArray) else batch["s"]
        d = batch["d"].combine_chunks() if isinstance(batch["d"], pa.ChunkedArray) else batch["d"]
        keep = np.asarray(pc.less(s, d))
        return pa.table(
            {
                "host_a": s.filter(pa.array(keep)),
                "host_b": d.filter(pa.array(keep)),
                "ab_links": pa.array(np.asarray(batch["n"], dtype=np.int64)[keep]),
                "ba_links": pa.array(np.asarray(batch["n_r"], dtype=np.int64)[keep]),
            }
        )

    return both.map_batches(emit, batch_format="pyarrow")


def frontier_schedule(
    edges: ray.data.Dataset,
    per_host_rate: int = 2,
) -> ray.data.Dataset:
    """Politeness-scheduled crawl frontier: discovered targets ranked by
    inbound-link count, at most ``per_host_rate`` fetches per host per
    round.  fetch_round = (row_number within host, ordered by n_inlinks
    DESC then url ASC, minus 1) // rate — the per-host FIFO every real
    crawler runs, as ONE windowed pass (dataops.window_fns.row_number:
    host-bucketed groupby, no global sort).  Output (url, host,
    n_inlinks, fetch_round)."""
    import pandas as pd

    from .window_fns import _bucket_of_strings

    if per_host_rate < 1:
        raise ValueError("per_host_rate must be >= 1")
    agg = anchor_agg(edges).select_columns(["dst_url", "n_inlinks"])
    n_buckets = 256

    def add_host(batch: pa.Table) -> pa.Table:
        host = host_of(batch["dst_url"])
        return pa.table(
            {
                "url": batch["dst_url"],
                "host": host,
                "n_inlinks": batch["n_inlinks"].cast(pa.int64()),
                "_bucket": pa.array(
                    _bucket_of_strings(host, n_buckets).astype(np.int64)
                ),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "url": pd.Series([], dtype=object),
                    "host": pd.Series([], dtype=object),
                    "n_inlinks": pd.Series([], dtype=np.int64),
                    "fetch_round": pd.Series([], dtype=np.int64),
                }
            )
        g = g.sort_values(
            ["host", "n_inlinks", "url"],
            ascending=[True, False, True],
            ignore_index=True,
        )
        rn = g.groupby("host", sort=False).cumcount().to_numpy(np.int64)
        return pd.DataFrame(
            {
                "url": g["url"],
                "host": g["host"],
                "n_inlinks": g["n_inlinks"].to_numpy(np.int64),
                "fetch_round": rn // per_host_rate,
            }
        )

    return (
        agg.map_batches(add_host, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def cocitation_pairs(
    edges: ray.data.Dataset,
    min_co: int = 2,
    max_out: int = 256,
    src_column: str = "src",
    dst_column: str = "dst",
) -> ray.data.Dataset:
    """Co-citation analysis (Small 1973): pairs of link TARGETS cited by
    the same sources, with the common-source count — the classic
    relatedness signal of web IR (targets co-linked from many pages are
    topically related).

    Shape (the shingle-pair discipline from dedup._shingle_pair_counts):
    rows bucket by source hash — every row of a source lands in ONE
    bucket, so the global (src, dst) dedup and the per-source pair
    fan-out are bucket-local and fully vectorized (lexsort + boundary
    masks + ragged-range expansion); sources citing more than
    ``max_out`` targets are dropped as undiscriminative hubs (the skew
    cap).  Pair counts then fold through the pair-bucket trick — 4096
    vectorized groups, never a pair-cardinality hash aggregate.
    Output: (a, b, co) with a < b and co >= min_co."""
    n_buckets = 4096

    def add_src_bucket(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch[src_column], dtype=np.int64)
        b = (s.view(np.uint64) % np.uint64(n_buckets)).astype(np.int64)
        return pa.table(
            {
                "src": batch[src_column].cast(pa.int64()),
                "dst": batch[dst_column].cast(pa.int64()),
                "_sb": pa.array(b),
            }
        )

    def src_pairs(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
        )
        if g.num_rows < 2:
            return empty
        s = np.asarray(g["src"], dtype=np.int64)
        d = np.asarray(g["dst"], dtype=np.int64)
        order = np.lexsort((d, s))
        s, d = s[order], d[order]
        # global (src, dst) dedup — all rows of a src are in this bucket
        keep = np.empty(len(s), dtype=bool)
        keep[0] = True
        np.logical_or(s[1:] != s[:-1], d[1:] != d[:-1], out=keep[1:])
        s, d = s[keep], d[keep]
        n = len(s)
        if n < 2:
            return empty
        new_grp = np.empty(n, dtype=bool)
        new_grp[0] = True
        np.not_equal(s[1:], s[:-1], out=new_grp[1:])
        grp_id = np.cumsum(new_grp) - 1
        starts = np.flatnonzero(new_grp)
        sizes = np.diff(np.append(starts, n))
        keep_grp = sizes <= max_out
        pos = np.arange(n) - starts[grp_id]
        rp = np.where(keep_grp[grp_id], pos, 0)
        total = int(rp.sum())
        if total == 0:
            return empty
        second = np.repeat(np.arange(n), rp)
        cum = np.cumsum(rp) - rp
        first = np.arange(total) - np.repeat(cum, rp) + np.repeat(starts[grp_id], rp)
        # dsts ascend within a source, so first < second means a < b
        return pa.table({"a": pa.array(d[first]), "b": pa.array(d[second])})

    pairs = (
        edges.map_batches(add_src_bucket, batch_format="pyarrow")
        .groupby("_sb")
        .map_groups(src_pairs, batch_format="pyarrow")
    )

    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        from .dedup import pair_bucket_hash

        h = pair_bucket_hash(np.asarray(batch["a"]), np.asarray(batch["b"]), n_buckets)
        return batch.append_column("_pb", pa.array(h))

    def fold(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "co": pa.array([], pa.int64()),
            }
        )
        if g.num_rows == 0:
            return empty
        a = np.asarray(g["a"], dtype=np.int64)
        b = np.asarray(g["b"], dtype=np.int64)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        new = np.empty(len(a), dtype=bool)
        new[0] = True
        np.logical_or(a[1:] != a[:-1], b[1:] != b[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        co = np.diff(np.append(starts, len(a)))
        keep = co >= min_co
        return pa.table(
            {
                "a": pa.array(a[starts][keep]),
                "b": pa.array(b[starts][keep]),
                "co": pa.array(co[keep]),
            }
        )

    return (
        pairs.map_batches(add_pair_bucket, batch_format="pyarrow")
        .groupby("_pb")
        .map_groups(fold, batch_format="pyarrow")
    )
