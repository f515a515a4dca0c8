"""Command-line surface mirroring the reference's
(/root/reference/src/Program.cs:14-33):

    python -m search_engine_ray index  <pages_dir> <index_dir> "IndexOptions(CaseFolding,RemoveStopWords,DoStemming)"
    python -m search_engine_ray search <run_name> <topics_file> <index_dir> "QueryOptions(UseHeadline,UseDescription,UseNarrative)"
    python -m search_engine_ray stats  <index_dir>

The `IndexOptions(...)`/`QueryOptions(...)` literal strings parse exactly
like the reference's flag parsers (IndexOptions.cs:26-49,
QueryOptions.cs:26-49: listed flags become True, everything else False).
`search` runs all three scorers and writes one TREC run file each,
`results-{run}-{Scorer}.txt` (Program.cs:99-103,130-133).

This module owns its Ray session (guarded init) — it is the
`ray job submit` entrypoint:

    ray job submit -- python -m search_engine_ray index corpus/ index/ "IndexOptions(CaseFolding,RemoveStopWords,DoStemming)"
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import BuildConfig, IndexOptions, QueryOptions


def parse_index_options(arg: str) -> IndexOptions:
    flags = _parse_flag_literal(arg, "IndexOptions")
    return IndexOptions(
        case_folding="CaseFolding" in flags,
        remove_stopwords="RemoveStopWords" in flags,
        stemming="DoStemming" in flags,
    )


def parse_query_options(arg: str) -> QueryOptions:
    flags = _parse_flag_literal(arg, "QueryOptions")
    return QueryOptions(
        use_title="UseHeadline" in flags,
        use_description="UseDescription" in flags,
        use_narrative="UseNarrative" in flags,
    )


def _parse_flag_literal(arg: str, name: str) -> set[str]:
    if arg.startswith(name + "(") and arg.endswith(")"):
        raw = arg[len(name) + 1 : -1]
    else:
        raw = arg
    return {f.strip() for f in raw.split(",") if f.strip()}


_OWNS_SESSION = False


def _ensure_ray(num_cpus: int | None) -> None:
    """Join the ambient Ray cluster when one is addressed (the `ray job
    submit` path: RAY_ADDRESS points at the running cluster and cluster
    size is a deployment property, not a CLI flag); otherwise start a
    local session capped at --num-cpus (the laptop / sandbox path)."""
    global _OWNS_SESSION
    import ray

    if not ray.is_initialized():
        addr = os.environ.get("RAY_ADDRESS", "local")
        kwargs: dict = dict(
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
        if addr in ("", "local"):
            kwargs.update(address="local", num_cpus=num_cpus)
        else:
            kwargs.update(address=addr)
        ray.init(**kwargs)
        _OWNS_SESSION = True
    try:
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
    except Exception:
        pass


def cmd_index(args: argparse.Namespace) -> int:
    _ensure_ray(args.num_cpus)
    from .engine.build import build_index

    options = parse_index_options(args.options)
    config = BuildConfig(options=options)
    input_path = args.input
    source_column, name_column = args.source_column, args.name_column
    if args.format == "trec":
        # reference-native input: convert <DOC>/<DOCNO> files into the
        # parquet corpus layout next to the index (resumable; sorted file
        # rank keeps docID assignment deterministic), then tokenize the raw
        # TREC text directly (no HTML extraction — Parser.cs semantics)
        from .sources import trec_to_parquet

        corpus_dir = os.path.join(args.index_dir + ".trec-corpus")
        trec_to_parquet(args.input, corpus_dir)
        input_path = corpus_dir
        source_column, name_column = "text", "doc_name"
    elif args.format == "warc":
        # Common-Crawl-native input: WARC response records -> the pages
        # parquet layout (url, warc_ts, html); html then flows through the
        # normal extraction path, so downstream semantics are unchanged
        from .sources import warc_to_parquet

        corpus_dir = os.path.join(args.index_dir + ".warc-corpus")
        warc_to_parquet(args.input, corpus_dir)
        input_path = corpus_dir
        source_column, name_column = "html", "url"
    stats = build_index(
        input_path,
        args.index_dir,
        config,
        source_column=source_column,
        name_column=name_column,
        overwrite=args.overwrite,
    )
    print(json.dumps(stats))
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    stats_path = os.path.join(args.index_dir, "stats.json")
    if not os.path.exists(stats_path):
        print(f"error: {args.index_dir} is not a built index (no stats.json)", file=sys.stderr)
        return 2
    if not os.path.exists(args.topics_file):
        print(f"error: topics file not found: {args.topics_file}", file=sys.stderr)
        return 2
    _ensure_ray(args.num_cpus)
    from .corpus.topics import parse_topics
    from .engine.search import search_topics, write_trec_run

    with open(stats_path) as fh:
        stats = json.load(fh)
    index_options = IndexOptions.from_dict(stats["options"])  # persisted flags
    query_options = parse_query_options(args.query_options)
    topics = parse_topics(args.topics_file, query_options, index_options)

    # reference file naming: results-{run}-{scorer type name}.txt
    # (Program.cs:110-111: TfIdfScorer / BM25Scorer / BM25ADPT)
    scorer_names = {"tfidf": "TfIdfScorer", "bm25": "BM25Scorer", "bm25adpt": "BM25ADPT"}
    for scorer in args.scorers.split(","):
        if args.sharded:
            run = _sharded_run(args.index_dir, topics, scorer, args.run_name, args.k)
        else:
            run = search_topics(
                args.index_dir, topics, scorer=scorer, run_name=args.run_name, k=args.k
            )
        out = os.path.join(
            args.out_dir, f"results-{args.run_name}-{scorer_names.get(scorer, scorer)}.txt"
        )
        write_trec_run(run, out)
        print(f"{scorer}: {run.num_rows} result lines -> {out}")
    return 0


def _sharded_run(index_dir: str, topics, scorer: str, run_name: str, k: int):
    """TREC run table via the doc-range-sharded path (the 10^12-doc route;
    bit-identical to whole-index TAAT).  Doc names are resolved with a
    PRUNED read of the docs table (only the result ids)."""
    import pyarrow as pa
    import pyarrow.dataset as pads

    from .engine.search import RUN_SCHEMA
    from .engine.sharded_search import search_topics_sharded

    tbl = search_topics_sharded(index_dir, topics, scorer=scorer, k=k)
    ids = tbl["doc_id"].to_pylist()
    docs = pads.dataset(os.path.join(index_dir, "docs")).to_table(
        columns=["doc_id", "name"], filter=pads.field("doc_id").isin(sorted(set(ids)))
    )
    name_of = dict(zip(docs["doc_id"].to_pylist(), docs["name"].to_pylist()))
    n = tbl.num_rows
    return pa.table(
        {
            "topic": tbl["topic"].combine_chunks().cast(pa.int32()),
            "q0": pa.array(["Q0"] * n, pa.string()),
            "doc": pa.array([str(name_of[d]) for d in ids], pa.string()),
            "rank": tbl["rank"].combine_chunks().cast(pa.int32()),
            "score": tbl["score"].combine_chunks().cast(pa.float32()),
            "run_name": pa.array([run_name] * n, pa.string()),
        },
        schema=RUN_SCHEMA,
    )


def cmd_stats(args: argparse.Namespace) -> int:
    from .engine.diagnostics import index_stats

    print(json.dumps(index_stats(args.index_dir, args.stopword_df_threshold)))
    return 0


def cmd_delete(args: argparse.Namespace) -> int:
    """Tombstone documents (delete without rebuild) or clear tombstones."""
    from .engine.maintenance import clear_tombstones, delete_docs, tombstoned_names

    if args.clear:
        print(json.dumps({"cleared": clear_tombstones(args.index_dir)}))
        return 0
    if args.names:
        total = delete_docs(args.index_dir, args.names)
        print(json.dumps({"n_tombstoned": total}))
        return 0
    print(json.dumps({"tombstoned": tombstoned_names(args.index_dir)}))
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Physically apply tombstones: rewrite without deleted docs, dense
    docIDs, exact recomputed stats (engine/maintenance.compact_index)."""
    import ray

    from .engine.maintenance import compact_index

    _ensure_ray(args.num_cpus)
    stats = compact_index(args.index_dir, args.out_dir, overwrite=args.overwrite)
    print(json.dumps(stats))
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    """Union-merge two indexes (docID rebase + re-bound) into one."""
    import ray

    from .engine.maintenance import merge_indexes

    _ensure_ray(args.num_cpus)
    stats = merge_indexes(args.a_dir, args.b_dir, args.out_dir, overwrite=args.overwrite)
    print(json.dumps(stats))
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Verify index integrity (block invariants, dictionary/stats
    cross-checks).  Exit code 1 when violations are found."""
    import ray

    from .engine.maintenance import fsck_index

    _ensure_ray(args.num_cpus)
    report = fsck_index(args.index_dir)
    print(json.dumps(report))
    return 0 if report["violations"] == 0 else 1


def cmd_prune(args: argparse.Namespace) -> int:
    """Static index pruning: drop high-df terms (stopword promotion)."""
    import ray

    from .engine.maintenance import prune_terms

    _ensure_ray(args.num_cpus)
    stats = prune_terms(
        args.index_dir, args.out_dir, df_threshold=args.df_threshold,
        terms=args.terms or None, overwrite=args.overwrite,
    )
    print(json.dumps(stats))
    return 0


def cmd_upsert(args: argparse.Namespace) -> int:
    """Upsert documents: tombstone old versions at the pre-append
    watermark + incremental append of the update file."""
    import ray

    from .engine.maintenance import upsert_docs

    _ensure_ray(args.num_cpus)
    stats = upsert_docs(
        args.index_dir, args.corpus_dir, args.update_file,
        source_column=args.source_column, name_column=args.name_column,
    )
    print(json.dumps(stats))
    return 0


def cmd_refresh(args: argparse.Namespace) -> int:
    """Crawl refresh: newest capture per name -> unchanged-content skip ->
    upsert of the changed + new remainder (maintenance.refresh_index)."""
    import ray

    from .engine.maintenance import refresh_index

    _ensure_ray(args.num_cpus)
    stats = refresh_index(
        args.index_dir, args.corpus_dir, args.captures_file,
        source_column=args.source_column, name_column=args.name_column,
        ts_column=args.ts_column,
    )
    print(json.dumps(stats))
    return 0


def cmd_impact_index(args: argparse.Namespace) -> int:
    """Build the impact-ordered tier (engine/impact.py) from a built
    document-ordered index; prints the impact_meta JSON line."""
    _ensure_ray(args.num_cpus)
    stats_path = os.path.join(args.index_dir, "stats.json")
    if not os.path.exists(stats_path):
        print(f"error: {args.index_dir} is not a built index", file=sys.stderr)
        return 2
    from .engine.impact import build_impact_index, read_impact_meta

    build_impact_index(
        args.index_dir, args.out_dir,
        quant_levels=args.quant_levels, num_buckets=args.num_buckets,
    )
    print(json.dumps(read_impact_meta(args.out_dir)))
    return 0


def cmd_saat(args: argparse.Namespace) -> int:
    """Score-at-a-time query over an impact-ordered tier: exhaustive, or
    anytime with --budget postings.  One JSON line per result."""
    import json as _json

    stats_path = os.path.join(args.index_dir, "stats.json")
    if not os.path.exists(stats_path):
        print(f"error: {args.index_dir} is not a built index", file=sys.stderr)
        return 2
    from .engine.impact import saat_topk
    from .engine.index_reader import IndexReader
    from .text.tokenizer import normalize_query_word, split_query_line

    with open(stats_path) as fh:
        stats = json.load(fh)
    opts = IndexOptions.from_dict(stats["options"])
    seen: dict[str, int] = {}
    order = []
    for w in split_query_line(args.query):
        t = normalize_query_word(
            w, case_folding=opts.case_folding,
            remove_stopwords=opts.remove_stopwords, stemming=opts.stemming,
        )
        if not t:
            continue
        if t not in seen:
            order.append(t)
        seen[t] = seen.get(t, 0) + 1
    keywords = [(t, seen[t]) for t in order]
    if args.rerank:
        from .engine.impact import saat_rerank

        reader = IndexReader(args.index_dir, preload=True)
        ids, scores, processed = saat_rerank(
            args.impact_dir, reader, keywords,
            k=args.k, n_candidates=args.rerank, budget=args.budget,
            exclude=reader.deleted_mask(),
        )
        for d, s in zip(ids, scores):
            print(_json.dumps({
                "doc": reader.doc_names[int(d)], "bm25": round(float(s), 6),
                "postings_processed": int(processed),
            }))
        return 0
    reader = IndexReader(args.index_dir, preload=False)
    ids, scores, processed = saat_topk(
        args.impact_dir, keywords, k=args.k, budget=args.budget,
        exclude=reader.deleted_mask(),
    )
    for d, s in zip(ids, scores):
        print(_json.dumps({
            "doc": reader.doc_names[int(d)], "impact_score": int(s),
            "postings_processed": int(processed),
        }))
    return 0


def cmd_impact_fsck(args: argparse.Namespace) -> int:
    """Verify the impact tier against its source index: re-derive every
    posting's quantized impact and checksum-compare per (term, q), plus
    structural/meta invariants.  Exit 1 on any violation."""
    _ensure_ray(args.num_cpus)
    from .engine.impact import verify_impact_index

    report = verify_impact_index(args.index_dir, args.impact_dir)
    print(json.dumps(report))
    return 0 if report["violations"] == 0 else 1


def cmd_tune(args: argparse.Namespace) -> int:
    """BM25 (k1, b) grid sweep over a topics file: every config scored
    and judged (boolean-AND qrels), one JSON line per config plus the
    winner.  Grid syntax: "900:300,1200:750" in milli-units."""
    import json as _json

    if not os.path.exists(args.topics_file):
        print(f"error: topics file not found: {args.topics_file}", file=sys.stderr)
        return 2
    stats_path = os.path.join(args.index_dir, "stats.json")
    if not os.path.exists(stats_path):
        print(f"error: {args.index_dir} is not a built index", file=sys.stderr)
        return 2
    try:
        grid = [
            (int(p.split(":")[0]), int(p.split(":")[1]))
            for p in args.grid.split(",")
        ]
    except (ValueError, IndexError):
        print(f"error: bad --grid {args.grid!r} (want 'k1milli:bmilli,...')",
              file=sys.stderr)
        return 2
    _ensure_ray(args.num_cpus)
    from .config import QueryOptions
    from .corpus.topics import parse_topics
    from .engine.tune import best_config, sweep_bm25_grid

    with open(stats_path) as fh:
        stats = json.load(fh)
    opts = IndexOptions.from_dict(stats["options"])
    topics = parse_topics(args.topics_file, QueryOptions(use_title=True), opts)
    sweep = sweep_bm25_grid(
        args.index_dir,
        [(tid, [t for t, _qtf in kws]) for tid, kws in topics],
        grid,
        k=args.k,
    )
    for row in sweep.to_pylist():
        print(_json.dumps(row))
    k1, b = best_config(sweep)
    print(_json.dumps({"best_k1_milli": k1, "best_b_milli": b}))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Ad-hoc single query: normalize the words like the query path,
    score with any registered scorer (bm25 / tfidf / bm25adpt / lmd / lmjm) or
    run a boolean AND/OR, print one JSON line per result."""
    import json as _json

    stats_path = os.path.join(args.index_dir, "stats.json")
    if not os.path.exists(stats_path):
        print(f"error: {args.index_dir} is not a built index", file=sys.stderr)
        return 2
    from .engine.index_reader import IndexReader
    from .text.tokenizer import split_query_line, normalize_query_word

    with open(stats_path) as fh:
        stats = json.load(fh)
    opts = IndexOptions.from_dict(stats["options"])
    words = split_query_line(args.query)
    terms, seen = [], {}
    for w in words:
        t = normalize_query_word(
            w, case_folding=opts.case_folding,
            remove_stopwords=opts.remove_stopwords, stemming=opts.stemming,
        )
        if not t:
            continue
        if t in seen:
            seen[t] += 1
        else:
            seen[t] = 1
            terms.append(t)
    keywords = [(t, seen[t]) for t in terms]
    try:
        reader = IndexReader(args.index_dir, as_of=args.as_of)
        if args.as_of is not None:
            reader.deleted_mask()  # resolve now so a bad gen fails up front
    except ValueError as exc:  # unknown generation: fail loud with range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.boolean:
        if args.boolean == "expr":
            # full boolean query language: AND/OR/NOT + parens + implicit
            # AND, terms normalized through the index's own pipeline
            from .engine.boolexpr import BooleanParseError, boolean_query

            def norm(w: str) -> str:
                return normalize_query_word(
                    w, case_folding=opts.case_folding,
                    remove_stopwords=False, stemming=opts.stemming,
                ) or w

            try:
                ids = boolean_query(
                    reader, args.query, normalize=norm,
                    positions_dir=args.positions_dir,
                )[: args.k]
            except BooleanParseError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        else:
            from .engine.boolean import boolean_and, boolean_or

            fn = boolean_and if args.boolean == "and" else boolean_or
            ids = fn(reader, [t for t, _ in keywords])[: args.k]
        for d in ids:
            print(_json.dumps({"doc": str(reader.doc_names[d])}))
        return 0
    if args.explain:
        # Lucene-style explain: per-term BM25 contribution breakdown for one
        # document, computed by the scorers' own float32 term kernel so the
        # total matches the ranked score bit-for-bit.
        import numpy as _np

        from .config import BM25Params
        from .engine.scoring import _TermWeight

        doc = reader.doc_id_of(args.explain)
        if doc < 0:
            print(f"error: document {args.explain!r} not in index", file=sys.stderr)
            return 2
        mask = reader.deleted_mask()
        if mask is not None and mask[doc]:
            print(f"error: document {args.explain!r} is tombstoned", file=sys.stderr)
            return 2
        params = BM25Params()
        n, avgdl = reader.n_docs, reader.avgdl
        total = _np.float32(0.0)
        for term, qtf in keywords:
            tp = reader.postings(term)
            row = {"term": term, "qtf": qtf}
            if tp is None:
                row.update({"matched": False, "reason": "term not in index"})
            else:
                ids, tfs, dls = tp.arrays()
                pos = int(_np.searchsorted(ids, doc))
                if pos >= len(ids) or ids[pos] != doc:
                    row.update({"matched": False, "df": tp.df, "reason": "term not in doc"})
                else:
                    w = _TermWeight("bm25", n, tp.df, qtf, params, avgdl)
                    contrib = w.contrib(tfs[pos:pos + 1], dls[pos:pos + 1])[0]
                    total = _np.float32(total + contrib)
                    row.update({
                        "matched": True, "df": tp.df, "tf": int(tfs[pos]),
                        "doc_len": int(dls[pos]), "idf": w.idf, "query_weight": w.qterm,
                        "contribution": float(contrib),
                    })
            print(_json.dumps(row))
        print(_json.dumps({
            "doc": args.explain, "score": float(total),
            "n_docs": n, "avgdl": avgdl, "k1": params.k1, "b": params.b, "k3": params.k3,
        }))
        return 0
    if args.synonyms or args.ranked_and:
        # these are BM25-only surfaces with their own scoring path — a
        # silently ignored --scorer/--method would lie to the caller
        if args.synonyms and args.ranked_and:
            print("error: --synonyms and --ranked-and are mutually exclusive", file=sys.stderr)
            return 2
        if args.scorer != "bm25" or args.method != "auto":
            print(
                "error: --synonyms/--ranked-and score BM25 with default "
                "params; --scorer/--method do not apply", file=sys.stderr,
            )
            return 2
    if args.synonyms:
        from .pipelines import synonym_bm25_f64

        syn: dict[str, list[str]] = {}
        for grp in args.synonyms.split(";"):
            words_ = [w.strip() for w in grp.split("=") if w.strip()]
            if len(words_) < 2:
                print(f"error: bad synonym group {grp!r} (want a=b[=c...])", file=sys.stderr)
                return 2
            members = [
                normalize_query_word(
                    w, case_folding=opts.case_folding,
                    remove_stopwords=opts.remove_stopwords, stemming=opts.stemming,
                )
                for w in words_
            ]
            members = [m for m in members if m]
            for m in members:
                syn[m] = members
        groups: list[tuple[list[str], int]] = []
        for t, qtf in keywords:
            groups.append((syn.get(t, [t]), qtf))
        ids, scores = synonym_bm25_f64(reader, groups)
        ids, scores = ids[: args.k], scores[: args.k]
        for rank, (d, s) in enumerate(zip(ids, scores), 1):
            print(_json.dumps(
                {"rank": rank, "doc": str(reader.doc_names[d]), "score": float(s)}
            ))
        return 0
    if getattr(args, "sdm_positions", None):
        if args.scorer != "bm25" or args.method != "auto":
            print(
                "error: --sdm-positions is its own ranking model; "
                "--scorer/--method do not apply", file=sys.stderr,
            )
            return 2
        from .pipelines import sdm_scores_f64

        ids, scores = sdm_scores_f64(
            reader, args.sdm_positions, terms, options=opts
        )
        ids, scores = ids[: args.k], scores[: args.k]
        for rank, (d, s) in enumerate(zip(ids, scores), 1):
            print(_json.dumps(
                {"rank": rank, "doc": str(reader.doc_names[d]), "score": float(s)}
            ))
        return 0
    if args.ranked_and:
        from .config import BM25Params
        from .engine.scoring import conjunctive_bm25

        ids, scores = conjunctive_bm25(reader, keywords, BM25Params(), k=args.k)
        for rank, (d, s) in enumerate(zip(ids, scores), 1):
            print(_json.dumps(
                {"rank": rank, "doc": str(reader.doc_names[d]), "score": float(s)}
            ))
        return 0
    if args.facets:
        if not args.docs_table:
            print("error: --facets needs --docs-table", file=sys.stderr)
            return 2
        _ensure_ray(args.num_cpus)
        from .ioutil import read_parquet_clean
        from .pipelines import facet_counts

        out = facet_counts(
            reader, [t for t, _ in keywords],
            read_parquet_clean(args.docs_table), args.facets,
            id_column=args.id_column,
        ).to_pandas().sort_values("facet", ignore_index=True)
        for f, n in zip(out["facet"], out["n_docs"]):
            print(_json.dumps({"facet": str(f), "n_docs": int(n)}))
        return 0
    if args.prf:
        if not args.docs_table:
            print("error: --prf needs --docs-table", file=sys.stderr)
            return 2
        _ensure_ray(args.num_cpus)
        from .ioutil import read_parquet_clean
        from .pipelines import prf_expanded_bm25_f64

        ids, scores, expansions = prf_expanded_bm25_f64(
            reader, read_parquet_clean(args.docs_table), keywords, opts,
            fb_docs=args.prf_docs, fb_terms=args.prf,
            id_column=args.id_column, text_column=args.text_column,
        )
        ids, scores = ids[: args.k], scores[: args.k]
        print(_json.dumps({"expansion_terms": expansions}))
        for rank, (d, s) in enumerate(zip(ids, scores), 1):
            print(_json.dumps(
                {"rank": rank, "doc": str(reader.doc_names[d]), "score": float(s)}
            ))
        return 0
    if getattr(args, "relax", False):
        from .pipelines import relaxed_bm25_scores_f64

        ids, scores, m_used = relaxed_bm25_scores_f64(reader, keywords, k=args.k)
        print(_json.dumps({"m_used": m_used, "n_terms": len(keywords)}))
        for rank, (d, s) in enumerate(zip(ids[: args.k], scores[: args.k]), 1):
            print(_json.dumps(
                {"rank": rank, "doc": str(reader.doc_names[d]), "score": float(s)}
            ))
        return 0
    if getattr(args, "after", None) is not None:
        from .pipelines import bm25_search_after_f64

        try:
            cs, cd = (int(x) for x in args.after.split(","))
        except ValueError:
            print("error: --after needs 'score_micros,doc_id'", file=sys.stderr)
            return 2
        docs, micros = bm25_search_after_f64(
            reader, keywords, cursor=(cs, cd), k=args.k
        )
        for d, m in zip(docs, micros):
            print(_json.dumps({"doc": int(d), "score_micros": int(m)}))
        return 0
    if getattr(args, "sort_by", None):
        if not args.docs_table:
            print("error: --sort-by needs --docs-table", file=sys.stderr)
            return 2
        from .ioutil import read_parquet_clean
        from .pipelines import sort_matches_by_field

        ds = read_parquet_clean(args.docs_table)
        out = sort_matches_by_field(
            reader, keywords, ds, args.sort_by, k=args.k
        )
        for row in out.to_pylist():
            print(_json.dumps(row))
        return 0
    from .engine.search import score_topic

    # --filter-expr restricts the ranking to a boolean match set AFTER
    # scoring with whole-corpus statistics (the standard filtered-search
    # semantics, same as --filter's metadata gate) — rank everything,
    # intersect, then cut to k
    want_k = len(reader.doc_names) if args.filter_expr else args.k
    if args.scorer in ("lmd", "lmjm", "bm25plus", "pivoted", "pl2"):
        # the float64 scorers rank every matching doc and drop tombstoned
        # ones themselves, so they are called directly, not as plugins
        # (score_topic refuses plugins on a tombstoned index)
        from .pipelines import (
            bm25plus_scores_f64,
            lmd_scores_f64,
            lmjm_scores_f64,
            pivoted_scores_f64,
            pl2_scores_f64,
        )

        fn = {"lmd": lmd_scores_f64, "lmjm": lmjm_scores_f64,
              "bm25plus": bm25plus_scores_f64, "pivoted": pivoted_scores_f64,
              "pl2": pl2_scores_f64}[args.scorer]
        ids, scores = fn(reader, keywords)
        ids, scores = ids[:want_k], scores[:want_k]
    else:
        ids, scores = score_topic(
            reader, keywords, scorer=args.scorer, k=want_k, method=args.method
        )
    if args.filter_expr:
        import numpy as np

        from .engine.boolexpr import BooleanParseError, boolean_query

        def _fnorm(w: str) -> str:
            return normalize_query_word(
                w, case_folding=opts.case_folding,
                remove_stopwords=False, stemming=opts.stemming,
            ) or w

        try:
            filt = boolean_query(
                reader, args.filter_expr, normalize=_fnorm,
                positions_dir=args.positions_dir,
            )
        except BooleanParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        keep = np.isin(ids, filt)
        ids, scores = ids[keep][: args.k], scores[keep][: args.k]
    if args.mmr is not None:
        if not args.emb_table:
            print("error: --mmr needs --emb-table", file=sys.stderr)
            return 2
        import numpy as np
        import pyarrow.parquet as _pq

        from .engine.diversify import mmr_rerank

        pool_ids, pool_scores = ids[: args.mmr_pool], scores[: args.mmr_pool]
        try:
            docs = np.asarray(
                [int(reader.doc_names[d]) for d in pool_ids], dtype=np.int64
            )
        except ValueError:
            print(
                "error: --mmr needs integer doc names aligned with the "
                "embedding table's vec_id", file=sys.stderr,
            )
            return 2
        t = _pq.read_table(
            args.emb_table, columns=["vec_id", "embedding"],
            filters=[("vec_id", "in", docs.tolist())],
        )
        pos_of = {int(v): i for i, v in enumerate(t["vec_id"].to_pylist())}
        missing = [int(d) for d in docs if int(d) not in pos_of]
        if missing:
            print(
                f"error: no embedding for docs {missing[:5]} in {args.emb_table}",
                file=sys.stderr,
            )
            return 2
        emb = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)[
            [pos_of[int(d)] for d in docs]
        ]
        rel = np.floor(pool_scores * 1_000_000 + 0.5).astype(np.int64)
        sel, obj = mmr_rerank(docs, rel, emb, k=args.k, lam_milli=args.mmr)
        for rank, (d, s) in enumerate(zip(sel, obj), 1):
            print(_json.dumps({"rank": rank, "doc": str(d), "mmr_score": int(s)}))
        return 0
    if args.collapse:
        if not args.docs_table:
            print("error: --collapse needs --docs-table", file=sys.stderr)
            return 2
        import numpy as np
        import pyarrow.parquet as _pq

        from .pipelines import collapse_ranking

        t = _pq.read_table(args.docs_table, columns=[args.id_column, args.collapse])
        by_name = dict(
            zip((str(v) for v in t[args.id_column].to_pylist()),
                t[args.collapse].to_pylist())
        )
        group_of = np.asarray(
            [by_name.get(str(n)) for n in reader.doc_names], dtype=object
        )
        ids, scores = collapse_ranking(ids, scores, group_of, per_group=1)
        ids, scores = ids[: args.k], scores[: args.k]
    for rank, (d, s) in enumerate(zip(ids, scores), 1):
        print(_json.dumps(
            {"rank": rank, "doc": str(reader.doc_names[d]), "score": float(s)}
        ))
    return 0


def cmd_phrase(args: argparse.Namespace) -> int:
    """Exact-phrase or proximity query over the positional sidecar
    (build it first with `positions`)."""
    import json as _json

    from .engine.positions import (
        ordered_window_search,
        phrase_search,
        proximity_search,
    )

    if args.ordered and (args.near is None or args.near < 1):
        print("--ordered requires --near N with N >= 1", file=sys.stderr)
        return 2
    if args.near is not None and args.rank_index is not None:
        print("--near and --rank-index are mutually exclusive", file=sys.stderr)
        return 2
    if args.near is not None:
        if len(args.words) != 2:
            print(
                "usage: phrase <positions_dir> WORD1 WORD2 --near N "
                "(--near takes exactly two words)",
                file=sys.stderr,
            )
            return 2
        a, b = args.words
        fn = ordered_window_search if args.ordered else proximity_search
        tbl = fn(args.positions_dir, a, b, args.near)
        col = "n_pairs"
    elif args.rank_index is not None:
        from .engine.index_reader import IndexReader
        from .pipelines import phrase_bm25_f64

        reader = IndexReader(args.rank_index)
        ids, scores = phrase_bm25_f64(reader, args.positions_dir, args.words)
        for rank, (d, s) in enumerate(zip(ids[: args.k], scores[: args.k]), 1):
            print(_json.dumps(
                {"rank": rank, "doc": str(reader.doc_names[d]), "score": float(s)}
            ))
        return 0
    else:
        tbl = phrase_search(args.positions_dir, args.words)
        col = "n_matches"
    for d, n in zip(tbl["doc_id"].to_pylist(), tbl[col].to_pylist()):
        print(_json.dumps({"doc_id": int(d), col: int(n)}))
    return 0


def cmd_positions(args: argparse.Namespace) -> int:
    """Build the positional sidecar index (phrase/proximity retrieval)."""
    _ensure_ray(args.num_cpus)
    from .engine.positions import build_position_index

    stats = build_position_index(
        args.corpus, args.positions_dir, parse_index_options(args.options),
        source_column=args.source_column, name_column=args.name_column,
    )
    print(json.dumps(stats))
    return 0


def cmd_qpp(args: argparse.Namespace) -> int:
    """Query-performance prediction: one JSON line per query term with
    the pre-retrieval predictors (df, cf, idf, SCQ — engine/qpp.py),
    then one summary line with the post-retrieval NQC/WIG over the BM25
    top-k.  The routing tool: rank incoming queries by expected
    difficulty before (or cheaply after) running them."""
    import json as _json

    import ray

    stats_path = os.path.join(args.index_dir, "stats.json")
    if not os.path.exists(stats_path):
        print(f"error: {args.index_dir} is not a built index", file=sys.stderr)
        return 2
    from .engine.index_reader import IndexReader
    from .engine.qpp import qpp_post, qpp_predictors
    from .text.tokenizer import normalize_query_word, split_query_line

    with open(stats_path) as fh:
        stats = json.load(fh)
    opts = IndexOptions.from_dict(stats["options"])
    terms, seen = [], {}
    for w in split_query_line(args.query):
        t = normalize_query_word(
            w, case_folding=opts.case_folding,
            remove_stopwords=opts.remove_stopwords, stemming=opts.stemming,
        )
        if not t:
            continue
        if t in seen:
            seen[t] += 1
        else:
            seen[t] = 1
            terms.append(t)
    if not terms:
        print(_json.dumps({"error": "no index terms in query"}))
        return 0
    _ensure_ray(args.num_cpus)
    pre = qpp_predictors(args.index_dir, terms).to_pylist()
    for row in pre:
        print(_json.dumps(row))
    if not args.no_post:
        keywords = [(t, seen[t]) for t in terms]
        post = qpp_post(IndexReader(args.index_dir), keywords, k=args.k).to_pylist()[0]
        print(_json.dumps(post))
    return 0


def cmd_fuse(args: argparse.Namespace) -> int:
    """Fuse two or more TREC run files into one (RRF by default, or
    CombSUM/CombMNZ over min-max-normalized integer-micros scores) and
    write the fused TREC run."""
    import ray

    from .engine.search import read_trec_run, write_trec_run

    runs = [read_trec_run(p) for p in args.runs]
    if len(runs) < 2:
        print("error: fuse needs >= 2 run files", file=sys.stderr)
        return 2
    _ensure_ray(args.num_cpus)
    import numpy as np
    import pyarrow as pa
    import ray.data

    from .engine.fusion import comb_fuse_runs, rrf_fuse_runs

    if args.method == "rrf":
        dss = [
            ray.data.from_arrow(t.select(["topic", "doc", "rank"])) for t in runs
        ]
        fused = rrf_fuse_runs(dss, top_k=args.k).to_pandas()
        fused = fused.sort_values(
            ["topic", "fused_rank"], ignore_index=True
        )
        score_col = "fused_micros"
    else:
        def micros_run(t: pa.Table) -> "ray.data.Dataset":
            s = np.floor(
                np.asarray(t["score"], dtype=np.float64) * 1_000_000 + 0.5
            ).astype(np.int64)
            return ray.data.from_arrow(
                pa.table(
                    {
                        "topic": t["topic"],
                        "doc": t["doc"],
                        "score_micros": pa.array(s),
                    }
                )
            )

        fused = comb_fuse_runs([micros_run(t) for t in runs]).to_pandas()
        score_col = (
            "combmnz_micros" if args.method == "combmnz" else "combsum_micros"
        )
        fused = fused.sort_values(
            ["topic", score_col, "doc"],
            ascending=[True, False, True],
            ignore_index=True,
        )
        fused["fused_rank"] = fused.groupby("topic").cumcount() + 1
        fused = fused[fused["fused_rank"] <= args.k]
    out_tbl = pa.table(
        {
            "topic": pa.array(fused["topic"].astype("int64")),
            "q0": pa.array(["Q0"] * len(fused)),
            "doc": pa.array(fused["doc"].astype(str)),
            "rank": pa.array(fused["fused_rank"].astype("int32")),
            "score": pa.array(fused[score_col].astype("float64")),
            "run_name": pa.array([args.run_name] * len(fused)),
        }
    )
    write_trec_run(out_tbl, args.out)
    print(json.dumps({"method": args.method, "n_runs": len(runs),
                      "n_lines": out_tbl.num_rows, "out": args.out}))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    """trec_eval-style metrics: per-topic integer metric rows from a run
    file + a qrels file, plus the aggregate means (P@k, MRR, MAP)."""
    import ray

    from .engine.evaluate import evaluate_run, read_qrels
    from .engine.search import read_trec_run

    run = read_trec_run(args.run_file)
    qrels = read_qrels(args.qrels_file)
    _ensure_ray(args.num_cpus)
    import numpy as np
    import pyarrow as pa
    import ray.data

    # evaluate_run's contract is int64 doc ids: factorize the union of
    # doc-name strings (run + qrels are result-sized, a bounded collect)
    names = {}
    for d in run["doc"].to_pylist() + qrels["doc"].to_pylist():
        if d not in names:
            names[d] = len(names)
    code = lambda col: pa.array(
        np.asarray([names[d] for d in col.to_pylist()], dtype=np.int64)
    )
    run_ds = ray.data.from_arrow(
        pa.table(
            {
                "topic": run["topic"],
                "doc_id": code(run["doc"]),
                "rank": run["rank"],
            }
        )
    )
    import pyarrow.compute as pc

    rel = qrels.filter(pc.greater(qrels["rel"], 0))
    qrel_ds = ray.data.from_arrow(
        pa.table({"topic": rel["topic"], "doc_id": code(rel["doc"])})
    )
    out = evaluate_run(run_ds, qrel_ds, k=args.k).to_pandas()
    out = out.sort_values("topic", ignore_index=True)
    for row in out.to_dict(orient="records"):
        print(json.dumps(row))
    # trec_eval semantics: aggregate means average over JUDGED topics
    # only (n_rel > 0) — unjudged topics would silently deflate MAP/MRR
    judged = out[out["n_rel"] > 0]
    nj = len(judged)
    summary = {
        "n_topics": len(out),
        "n_topics_judged": nj,
        f"p_at_{args.k}": float((judged["hits_at_k"] / args.k).mean()) if nj else 0.0,
        "mrr": float((judged["rr_micros"] / 1e6).mean()) if nj else 0.0,
        "map": float(
            (judged["sum_prec_micros"] / (1e6 * judged["n_rel"])).mean()
        ) if nj else 0.0,
    }
    print(json.dumps(summary))
    return 0


def cmd_terms(args: argparse.Namespace) -> int:
    """Dictionary queries: prefix range probe, wildcard scan, top-df
    auto-completion, fuzzy match, or spell correction — pure metadata
    reads, no Ray session needed."""
    from .engine.lexicon import (
        fuzzy_terms,
        match_terms,
        prefix_terms,
        spell_correct,
        suggest_terms,
    )

    if args.fuzzy is not None:
        tbl = fuzzy_terms(args.index_dir, args.fuzzy, max_dist=args.max_dist)
        if args.limit:
            tbl = tbl.slice(0, args.limit)
    elif args.spell is not None:
        tbl = spell_correct(
            args.index_dir, args.spell, max_dist=args.max_dist, k=args.limit or 3
        )
    elif args.suggest is not None:
        tbl = suggest_terms(args.index_dir, args.suggest, k=args.limit or 5)
    elif args.pattern is not None:
        tbl = match_terms(args.index_dir, args.pattern, limit=args.limit)
    elif args.prefix is not None:
        tbl = prefix_terms(args.index_dir, args.prefix, limit=args.limit)
    else:
        print(
            "one of --prefix / --pattern / --suggest / --fuzzy / --spell is required",
            file=sys.stderr,
        )
        return 2
    dists = tbl["dist"].to_pylist() if "dist" in tbl.column_names else None
    for i, (t, d) in enumerate(zip(tbl["term"].to_pylist(), tbl["df"].to_pylist())):
        print(f"{t}\t{d}" + (f"\t{dists[i]}" if dists is not None else ""))
    return 0


def cmd_mlt(args: argparse.Namespace) -> int:
    """More-like-this: rank the corpus against a source document's text."""
    from .engine.index_reader import IndexReader
    from .engine.mlt import more_like_this

    from .config import IndexOptions

    reader = IndexReader(args.index_dir)
    options = IndexOptions.from_dict(reader.stats["options"])
    if args.doc is not None:
        ordinal = reader.doc_id_of(args.doc)
        if ordinal < 0:
            print(f"error: doc {args.doc!r} not in index", file=sys.stderr)
            return 2
        if args.text is None:
            print("--text is required with --doc (the index stores no forward text)", file=sys.stderr)
            return 2
        exclude = ordinal
    else:
        exclude = None
    if args.text is None:
        print("one of --text (and optionally --doc to exclude) is required", file=sys.stderr)
        return 2
    kws, ids, scores = more_like_this(
        reader, args.index_dir, args.text, options,
        exclude_doc=exclude, top_terms=args.top_terms, k=args.k,
    )
    print(json.dumps({"query_terms": [t for t, _ in kws]}))
    for rank, (d, s) in enumerate(zip(ids.tolist(), scores.tolist()), 1):
        print(f"{reader.doc_names[d]}\t{rank}\t{s}")
    return 0


def cmd_keywords(args: argparse.Namespace) -> int:
    """Per-doc top-k TF-IDF keywords over a parquet corpus (doc_id, text);
    writes parquet, prints one JSON summary line."""
    _ensure_ray(args.num_cpus)
    from .dataops.textstats import doc_keywords
    from .ioutil import read_parquet_clean

    ds = read_parquet_clean(args.corpus, columns=[args.id_column, args.text_column])
    out = doc_keywords(
        ds, k=args.k, text_column=args.text_column, id_column=args.id_column
    )
    out.write_parquet(args.out)
    import pyarrow.dataset as pads

    n = pads.dataset(args.out).count_rows()
    print(json.dumps({"rows": int(n), "k": args.k, "out": args.out}))
    return 0


def cmd_winnow(args: argparse.Namespace) -> int:
    """MOSS winnowing fingerprints over a parquet corpus; writes parquet."""
    _ensure_ray(args.num_cpus)
    from .dataops.spandup import winnow_fingerprints
    from .ioutil import read_parquet_clean

    ds = read_parquet_clean(args.corpus, columns=[args.id_column, args.text_column])
    out = winnow_fingerprints(
        ds, k=args.k, w=args.w,
        text_column=args.text_column, id_column=args.id_column,
    )
    out.write_parquet(args.out)
    import pyarrow.dataset as pads

    n = pads.dataset(args.out).count_rows()
    print(json.dumps({"rows": int(n), "k": args.k, "w": args.w, "out": args.out}))
    return 0



def cmd_reorder(args: argparse.Namespace) -> int:
    """Rebuild an index with docIDs reassigned by lexicographic order of
    a corpus column (URL clustering — the docID assignment problem).
    Ranking by doc name is unchanged; compressed postings bytes are
    reported for comparison against a naturally-ordered build."""
    _ensure_ray(args.num_cpus)
    from .engine.reorder import reorder_index

    options = parse_index_options(args.options)
    config = BuildConfig(options=options)
    stats = reorder_index(
        args.corpus,
        args.index_dir,
        config,
        by=args.by,
        source_column=args.source_column,
        name_column=args.name_column,
        n_partitions=args.sort_partitions,
        overwrite=args.overwrite,
    )
    print(json.dumps(stats))
    return 0


def cmd_generations(args: argparse.Namespace) -> int:
    """List the index's maintenance generations (time-travel points)."""
    from .engine.maintenance import list_generations

    t = list_generations(args.index_dir)
    for row in t.to_pylist():
        print(json.dumps(row))
    if t.num_rows == 0:
        print(json.dumps({"generations": 0}))
    return 0


def cmd_trigram_index(args: argparse.Namespace) -> int:
    """Build the trigram postings index (Cox code-search layout)."""
    _ensure_ray(args.num_cpus)
    from .dataops.trigram import build_trigram_index
    from .ioutil import read_parquet_clean

    ds = read_parquet_clean(args.corpus, columns=[args.id_column, args.text_column])
    column = args.text_column
    if args.extract_html:
        # pages corpus: index the EXTRACTED text of the html column (the
        # byte-identical extraction the main index build uses)
        import pyarrow as pa

        from .corpus.extract import extract_text_batch

        src, idc = args.text_column, args.id_column

        def _extract(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    idc: batch.column(idc),
                    "text": extract_text_batch(batch.column(src)),
                }
            )

        ds = ds.map_batches(_extract, batch_format="pyarrow")
        column = "text"
    meta = build_trigram_index(
        ds, args.index_dir,
        column=column, id_column=args.id_column,
        num_buckets=args.num_buckets,
    )
    if args.extract_html:
        # record the extraction so `grep` re-derives the text column the
        # same way before verification
        mpath = os.path.join(args.index_dir, "meta.json")
        with open(mpath) as fh:
            meta = json.load(fh)
        meta.update(extract_html=True, source_column=args.text_column)
        with open(mpath, "w") as fh:
            json.dump(meta, fh)
    print(json.dumps({"index_dir": args.index_dir, **meta}))
    return 0


def cmd_grep(args: argparse.Namespace) -> int:
    """Substring (default) or --regex search via the trigram index:
    pruned postings probe -> candidate intersection -> distributed exact
    verification over the corpus."""
    _ensure_ray(args.num_cpus)
    from .dataops.trigram import (
        regex_search,
        required_literal_alternatives,
        substring_search,
    )
    from .ioutil import read_parquet_clean

    with open(os.path.join(args.index_dir, "meta.json")) as fh:
        meta = json.load(fh)
    if meta.get("extract_html"):
        import pyarrow as pa

        from .corpus.extract import extract_text_batch

        idc, src = meta["id_column"], meta["source_column"]
        raw = read_parquet_clean(args.corpus, columns=[idc, src])

        def _extract(batch: pa.Table) -> pa.Table:
            return pa.table(
                {idc: batch.column(idc),
                 meta["column"]: extract_text_batch(batch.column(src))}
            )

        docs = raw.map_batches(_extract, batch_format="pyarrow")
    else:
        docs = read_parquet_clean(
            args.corpus, columns=[meta["id_column"], meta["column"]]
        )
    if args.regex:
        hits = regex_search(
            args.index_dir, docs, args.pattern,
            max_probe_trigrams=args.max_probe_trigrams,
        )
        lits = required_literal_alternatives(args.pattern)
    else:
        hits = substring_search(
            args.index_dir, docs, args.pattern,
            max_probe_trigrams=args.max_probe_trigrams,
        )
        lits = [args.pattern] if len(args.pattern.encode()) >= 3 else None
    df = hits.to_pandas()
    ids = df[meta["id_column"]].tolist() if meta["id_column"] in df.columns else []
    print(
        json.dumps(
            {
                "pattern": args.pattern,
                "regex": bool(args.regex),
                "prefilter_literals": lits,  # null == full-scan verify
                "n_hits": len(ids),
                "ids": ids[: args.limit],
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="search_engine_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    pi = sub.add_parser("index")
    pi.add_argument("input")
    pi.add_argument("index_dir")
    pi.add_argument("options", nargs="?", default="IndexOptions(CaseFolding,RemoveStopWords,DoStemming)")
    pi.add_argument("--source-column", default="html")
    pi.add_argument("--name-column", default="url")
    pi.add_argument(
        "--format", choices=("parquet", "trec", "warc"), default="parquet",
        help="'trec': input is a directory of <DOC>/<DOCNO> files "
             "(the reference engine's native format); 'warc': a directory "
             "of WARC/.warc.gz response captures (Common Crawl's container)",
    )
    pi.add_argument("--overwrite", action="store_true")
    pi.add_argument("--num-cpus", type=int, default=None)
    pi.set_defaults(fn=cmd_index)

    ps = sub.add_parser("search")
    ps.add_argument("run_name")
    ps.add_argument("topics_file")
    ps.add_argument("index_dir")
    ps.add_argument("query_options", nargs="?", default="QueryOptions(UseHeadline)")
    ps.add_argument("--scorers", default="tfidf,bm25,bm25adpt")
    ps.add_argument("--k", type=int, default=1000)
    ps.add_argument("--out-dir", default=".")
    ps.add_argument("--num-cpus", type=int, default=None)
    ps.add_argument(
        "--sharded", action="store_true",
        help="score via the doc-range-sharded path (bit-identical results; "
             "the web-scale route where no node holds the whole index)",
    )
    ps.set_defaults(fn=cmd_search)

    pt = sub.add_parser("stats")
    pt.add_argument("index_dir")
    pt.add_argument("--stopword-df-threshold", type=int, default=100_000)
    pt.set_defaults(fn=cmd_stats)

    pfu = sub.add_parser("fuse", help="fuse TREC run files (RRF / CombSUM / CombMNZ)")
    pfu.add_argument("out", help="fused TREC run output path")
    pfu.add_argument("runs", nargs="+", help="two or more TREC run files")
    pfu.add_argument("--method", default="rrf", choices=["rrf", "combsum", "combmnz"])
    pfu.add_argument("--k", type=int, default=10, help="fused depth per topic")
    pfu.add_argument("--run-name", default="fused")
    pfu.add_argument("--num-cpus", type=int, default=4)
    pfu.set_defaults(fn=cmd_fuse)

    pev = sub.add_parser("eval", help="trec_eval-style metrics from run + qrels files")
    pev.add_argument("run_file")
    pev.add_argument("qrels_file")
    pev.add_argument("--k", type=int, default=10)
    pev.add_argument("--num-cpus", type=int, default=4)
    pev.set_defaults(fn=cmd_eval)

    pqp = sub.add_parser(
        "qpp", help="query-performance prediction (pre: idf/SCQ; post: NQC/WIG)"
    )
    pqp.add_argument("index_dir")
    pqp.add_argument("query")
    pqp.add_argument("--k", type=int, default=10)
    pqp.add_argument("--no-post", action="store_true",
                     help="skip the post-retrieval (scoring) pass")
    pqp.add_argument("--num-cpus", type=int, default=4)
    pqp.set_defaults(fn=cmd_qpp)

    pc_ = sub.add_parser("compact", help="rewrite the index without tombstoned docs")
    pc_.add_argument("index_dir")
    pc_.add_argument("out_dir")
    pc_.add_argument("--overwrite", action="store_true")
    pc_.add_argument("--num-cpus", type=int, default=8)
    pc_.set_defaults(fn=cmd_compact)

    pu_ = sub.add_parser("upsert", help="replace/add documents without rebuild")
    pu_.add_argument("index_dir")
    pu_.add_argument("corpus_dir")
    pu_.add_argument("update_file")
    pu_.add_argument("--source-column", default="html")
    pu_.add_argument("--name-column", default="url")
    pu_.add_argument("--num-cpus", type=int, default=8)
    pu_.set_defaults(fn=cmd_upsert)

    pr_ = sub.add_parser(
        "refresh", help="crawl refresh: latest-capture pick + unchanged skip + upsert"
    )
    pr_.add_argument("index_dir")
    pr_.add_argument("corpus_dir")
    pr_.add_argument("captures_file")
    pr_.add_argument("--source-column", default="html")
    pr_.add_argument("--name-column", default="url")
    pr_.add_argument("--ts-column", default="warc_ts")
    pr_.add_argument("--num-cpus", type=int, default=8)
    pr_.set_defaults(fn=cmd_refresh)

    pp_ = sub.add_parser("prune", help="drop high-df terms (stopword promotion)")
    pp_.add_argument("index_dir")
    pp_.add_argument("out_dir")
    pp_.add_argument("--df-threshold", type=int, default=None)
    pp_.add_argument("--terms", nargs="*", default=[])
    pp_.add_argument("--overwrite", action="store_true")
    pp_.add_argument("--num-cpus", type=int, default=8)
    pp_.set_defaults(fn=cmd_prune)

    pf_ = sub.add_parser("fsck", help="verify index integrity")
    pf_.add_argument("index_dir")
    pf_.add_argument("--num-cpus", type=int, default=8)
    pf_.set_defaults(fn=cmd_fsck)

    pg_ = sub.add_parser("merge", help="union-merge two indexes into one")
    pg_.add_argument("a_dir")
    pg_.add_argument("b_dir")
    pg_.add_argument("out_dir")
    pg_.add_argument("--overwrite", action="store_true")
    pg_.add_argument("--num-cpus", type=int, default=8)
    pg_.set_defaults(fn=cmd_merge)

    pd_ = sub.add_parser("delete", help="tombstone documents (delete without rebuild)")
    pd_.add_argument("index_dir")
    pd_.add_argument("names", nargs="*", help="doc names to tombstone; none = list current")
    pd_.add_argument("--clear", action="store_true", help="drop all tombstones")
    pd_.set_defaults(fn=cmd_delete)

    pl = sub.add_parser("terms", help="dictionary prefix/wildcard/suggest queries")
    pl.add_argument("index_dir")
    pl.add_argument("--prefix")
    pl.add_argument("--pattern", help="fnmatch-style wildcard (* and ?)")
    pl.add_argument("--suggest", metavar="PREFIX", help="top-df completions")
    pl.add_argument("--fuzzy", metavar="TERM", help="edit-distance dictionary match")
    pl.add_argument("--spell", metavar="TERM", help="did-you-mean corrections")
    pl.add_argument("--max-dist", type=int, default=1)
    pl.add_argument("--limit", type=int, default=None)
    pl.set_defaults(fn=cmd_terms)

    pq_ = sub.add_parser("query", help="ad-hoc single query (any scorer or boolean)")
    pq_.add_argument("index_dir")
    pq_.add_argument("query")
    pq_.add_argument("--scorer", default="bm25",
                     choices=["bm25", "tfidf", "bm25adpt", "lmd", "lmjm", "bm25plus", "pivoted", "pl2"])
    pq_.add_argument("--method", default="auto", choices=["auto", "taat", "maxscore"])
    pq_.add_argument("--boolean", choices=["and", "or", "expr"], default=None,
                     help="expr: full query language (AND/OR/NOT, parens, "
                          "implicit AND, \"quoted phrases\") over the query "
                          "string")
    pq_.add_argument("--positions-dir", default=None,
                     help="positional sidecar enabling quoted phrases / "
                          "NEAR/k in --boolean expr and --filter-expr")
    pq_.add_argument("--filter-expr", default=None,
                     help="boolean expression restricting the RANKED result "
                          "set (whole-corpus scoring stats, filtered "
                          "candidates)")
    pq_.add_argument("--as-of", type=int, default=None, metavar="GEN",
                     help="query the index as of maintenance generation GEN "
                          "(see the generations verb)")
    pq_.add_argument("--mmr", type=int, default=None, metavar="LAM_MILLI",
                     help="MMR-diversify the top results (lambda per-mille, "
                          "e.g. 700); needs --emb-table")
    pq_.add_argument("--mmr-pool", type=int, default=50,
                     help="candidate pool size for --mmr")
    pq_.add_argument("--emb-table", default=None,
                     help="embeddings parquet (vec_id, embedding) aligned "
                          "with integer doc names, for --mmr")
    pq_.add_argument("--ranked-and", action="store_true",
                     help="conjunctive BM25: rank only docs containing ALL query terms")
    pq_.add_argument("--explain", default=None, metavar="DOC_NAME",
                     help="per-term BM25 contribution breakdown for one document "
                          "(float32 total == the ranked score)")
    pq_.add_argument("--relax", action="store_true",
                     help="query-relaxation ladder: tightest minimum-should-"
                          "match with >= k results, BM25-ranked")
    pq_.add_argument("--after", default=None, metavar="MICROS,DOC_ID",
                     help="keyset pagination cursor (search_after)")
    pq_.add_argument("--sort-by", default=None, metavar="FIELD",
                     help="rank the OR-match set by a docs-table column "
                          "(needs --docs-table)")
    pq_.add_argument("--sdm-positions", default=None, metavar="POS_DIR",
                     help="rank with the Sequential Dependence Model "
                          "(Metzler-Croft): Dirichlet unigram + ordered + "
                          "unordered-window features; POS_DIR is the "
                          "positional sidecar built over the same corpus")
    pq_.add_argument("--synonyms", default=None, metavar="a=b;c=d",
                     help="synonym groups: members score as ONE pseudo-term "
                          "(union postings, summed tf, group df)")
    pq_.add_argument("--k", type=int, default=10)
    pq_.add_argument("--docs-table", default=None,
                     help="corpus parquet for --facets/--collapse/--prf")
    pq_.add_argument("--id-column", default="doc_id")
    pq_.add_argument("--text-column", default="text")
    pq_.add_argument("--facets", metavar="COL", default=None,
                     help="facet counts of the boolean-OR match set by COL")
    pq_.add_argument("--collapse", metavar="COL", default=None,
                     help="keep only the best result per COL value")
    pq_.add_argument("--prf", metavar="N_TERMS", type=int, default=None,
                     help="pseudo-relevance-feedback expansion")
    pq_.add_argument("--prf-docs", type=int, default=5)
    pq_.add_argument("--num-cpus", type=int, default=4)
    pq_.set_defaults(fn=cmd_query)

    pps = sub.add_parser("positions", help="build the positional sidecar index")
    pps.add_argument("corpus")
    pps.add_argument("positions_dir")
    pps.add_argument("options", nargs="?",
                     default="IndexOptions(CaseFolding,RemoveStopWords)")
    pps.add_argument("--source-column", default="html")
    pps.add_argument("--name-column", default="url")
    pps.add_argument("--num-cpus", type=int, default=8)
    pps.set_defaults(fn=cmd_positions)

    pph = sub.add_parser("phrase", help="exact-phrase / proximity query (positional sidecar)")
    pph.add_argument("positions_dir")
    pph.add_argument("words", nargs="+")
    pph.add_argument("--near", type=int, default=None,
                     help="proximity window (2 words required)")
    pph.add_argument("--ordered", action="store_true",
                     help="with --near: WORD1 must PRECEDE WORD2 by 1..N positions")
    pph.add_argument("--rank-index", default=None, metavar="INDEX_DIR",
                     help="rank phrase matches by BM25 over phrase frequency "
                          "(needs the main index for N/avgdl/doc lengths)")
    pph.add_argument("--k", type=int, default=10,
                     help="top-k for --rank-index output")
    pph.set_defaults(fn=cmd_phrase)

    pm = sub.add_parser("mlt", help="more-like-this: rank corpus against a source text")
    pm.add_argument("index_dir")
    pm.add_argument("--text", help="source document text")
    pm.add_argument("--doc", help="source doc name to exclude from results")
    pm.add_argument("--top-terms", type=int, default=10)
    pm.add_argument("--k", type=int, default=10)
    pm.set_defaults(fn=cmd_mlt)

    pk = sub.add_parser("keywords", help="per-doc top-k TF-IDF keywords -> parquet")
    pk.add_argument("corpus")
    pk.add_argument("out")
    pk.add_argument("--k", type=int, default=3)
    pk.add_argument("--text-column", default="text")
    pk.add_argument("--id-column", default="doc_id")
    pk.add_argument("--num-cpus", type=int, default=8)
    pk.set_defaults(fn=cmd_keywords)

    pw = sub.add_parser("winnow", help="MOSS winnowing fingerprints -> parquet")
    pw.add_argument("corpus")
    pw.add_argument("out")
    pw.add_argument("--k", type=int, default=4)
    pw.add_argument("--w", type=int, default=4)
    pw.add_argument("--text-column", default="text")
    pw.add_argument("--id-column", default="doc_id")
    pw.add_argument("--num-cpus", type=int, default=8)
    pw.set_defaults(fn=cmd_winnow)

    pgn = sub.add_parser(
        "generations", help="list time-travel generations (delete/upsert log)"
    )
    pgn.add_argument("index_dir")
    pgn.set_defaults(fn=cmd_generations)

    pro = sub.add_parser(
        "reorder",
        help="rebuild with docIDs in lexicographic column order (URL clustering)",
    )
    pro.add_argument("corpus")
    pro.add_argument("index_dir")
    pro.add_argument("options", nargs="?",
                     default="IndexOptions(CaseFolding,RemoveStopWords,DoStemming)")
    pro.add_argument("--by", default="url", help="corpus column to order docIDs by")
    pro.add_argument("--source-column", default="html")
    pro.add_argument("--name-column", default="url")
    pro.add_argument("--sort-partitions", type=int, default=8)
    pro.add_argument("--overwrite", action="store_true")
    pro.add_argument("--num-cpus", type=int, default=8)
    pro.set_defaults(fn=cmd_reorder)

    pti = sub.add_parser(
        "trigram-index", help="build trigram postings for substring/regex grep"
    )
    pti.add_argument("corpus")
    pti.add_argument("index_dir")
    pti.add_argument("--num-buckets", type=int, default=64)
    pti.add_argument("--text-column", default="text")
    pti.add_argument("--id-column", default="doc_id")
    pti.add_argument("--extract-html", action="store_true",
                     help="text-column holds raw html: grep the extracted "
                          "text (same extraction as the index build)")
    pti.add_argument("--num-cpus", type=int, default=8)
    pti.set_defaults(fn=cmd_trigram_index)

    pgr = sub.add_parser(
        "grep", help="exact substring / --regex search via the trigram index"
    )
    pgr.add_argument("index_dir")
    pgr.add_argument("corpus")
    pgr.add_argument("pattern")
    pgr.add_argument("--regex", action="store_true")
    pgr.add_argument("--max-probe-trigrams", type=int, default=8)
    pgr.add_argument("--limit", type=int, default=100,
                     help="max ids echoed in the JSON payload")
    pgr.add_argument("--num-cpus", type=int, default=8)
    pgr.set_defaults(fn=cmd_grep)

    pii = sub.add_parser(
        "impact-index",
        help="build the impact-ordered SAAT tier from a built index",
    )
    pii.add_argument("index_dir")
    pii.add_argument("out_dir")
    pii.add_argument("--quant-levels", type=int, default=256)
    pii.add_argument("--num-buckets", type=int, default=64)
    pii.add_argument("--num-cpus", type=int, default=8)
    pii.set_defaults(fn=cmd_impact_index)

    psa = sub.add_parser(
        "saat", help="score-at-a-time query over an impact-ordered tier"
    )
    psa.add_argument("impact_dir")
    psa.add_argument("index_dir", help="source index (doc names + tokenizer options)")
    psa.add_argument("query")
    psa.add_argument("--k", type=int, default=10)
    psa.add_argument("--budget", type=int, default=None,
                     help="anytime postings budget (rho); omit = exhaustive")
    psa.add_argument("--rerank", type=int, default=None, metavar="N",
                     help="rescore the top-N SAAT candidates with exact BM25")
    psa.set_defaults(fn=cmd_saat)

    pif = sub.add_parser(
        "impact-fsck",
        help="verify impact-tier integrity vs its source index (exit 1 on damage)",
    )
    pif.add_argument("impact_dir")
    pif.add_argument("index_dir")
    pif.add_argument("--num-cpus", type=int, default=8)
    pif.set_defaults(fn=cmd_impact_fsck)

    ptu = sub.add_parser(
        "tune", help="BM25 (k1, b) grid sweep against boolean-AND qrels"
    )
    ptu.add_argument("index_dir")
    ptu.add_argument("topics_file")
    ptu.add_argument("--grid", default="900:300,1200:750,1500:600,2000:900",
                     help="comma list of k1milli:bmilli configs")
    ptu.add_argument("--k", type=int, default=10)
    ptu.add_argument("--num-cpus", type=int, default=8)
    ptu.set_defaults(fn=cmd_tune)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    finally:
        import ray

        # leave pre-existing sessions (e.g. the pytest fixture's) alone
        if _OWNS_SESSION and ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
