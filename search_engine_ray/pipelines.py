"""High-level pipelines shared by __ray_entry__, bench.py and tests.

Builds inverted indexes over the driver's `documents` table (doc_id used as
the document name) or over synthesized `pages` corpora, with per-process +
on-disk caching so repeated queries() calls reuse one build.

The float64 scorers (``*_f64``, the DuckDB-oracle twins) share one kernel.
``_accumulate`` adds each query term's per-posting contribution into a
dense float64 array in query order and counts matched terms per doc;
``_rank`` orders a candidate mask on (score desc, ordinal asc).  A scorer
is a contribution function plus a candidate rule: the BM25 family passes
``engine.scoring.bm25_term`` with an ``np.log`` idf, and filtered, cascade,
msm, relaxed and conjunctive differ only in the candidate rule.
Tombstones apply in ``_rank`` and nowhere else: dead docs leave the
candidates while corpus statistics (N, df, avgdl, cf) stay corpus-wide,
the Lucene contract.  Scorers built on another one (boosted, prior,
proximity, MaxP, search-after, PRF, cascade) inherit it.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from .config import BuildConfig, IndexOptions
from .engine.build import build_index
from .engine.index_reader import IndexReader
from .engine.scoring import bm25_term
from .text.ws import WS_RE

_CACHE_ROOT = os.environ.get("SE_RAY_CACHE", "/tmp/se_ray_cache")
# part of every cached index's key: bump on a postings layout change
# (engine/merge.py), or indexes cached by an older version are served
INDEX_LAYOUT = "postings-v2"
_READERS: dict[str, IndexReader] = {}


def _locked_build(target_dir: str, done_path: str, build, what: str) -> str:
    """Cross-process build-once guard shared by every cached build in this
    module: atomic-mkdir lock + completion marker, stale locks from a
    crashed builder expire after 10 minutes (same protocol as
    __ray_entry__._build_once)."""
    import time

    lock_dir = target_dir.rstrip("/") + ".lock"
    deadline = time.time() + 900
    while True:
        if os.path.exists(done_path):
            return target_dir
        try:
            os.makedirs(lock_dir)
        except FileExistsError:
            try:
                if time.time() - os.path.getmtime(lock_dir) > 600:
                    os.rmdir(lock_dir)
                    continue
            except OSError:
                pass
            if time.time() > deadline:
                raise TimeoutError(f"{what} build lock stuck: {lock_dir}")
            time.sleep(0.5)
            continue
        try:
            if not os.path.exists(done_path):  # re-check under the lock
                build()
        finally:
            try:
                os.rmdir(lock_dir)
            except OSError:
                pass
        return target_dir


def documents_positions_dir(sf_dir: str, options: IndexOptions) -> str:
    """Build (once) the positional sidecar over {sf_dir}/documents.parquet;
    returns its dir.  Same mtime+options cache keying as the main index."""
    from .engine.positions import build_position_index

    src = os.path.join(sf_dir, "documents.parquet")
    key = hashlib.md5(
        f"pos|{os.path.abspath(src)}|{os.path.getmtime(src)}|{options.to_dict()}".encode()
    ).hexdigest()[:16]
    index_dir = os.path.join(_CACHE_ROOT, f"docpos-{key}")
    return _locked_build(
        index_dir,
        os.path.join(index_dir, "positions_stats.json"),
        lambda: build_position_index(
            src, index_dir, options, source_column="text", name_column="doc_id"
        ),
        "position index",
    )


def documents_index_dir(sf_dir: str, options: IndexOptions, **build_kw) -> str:
    """Build (once) an index over {sf_dir}/documents.parquet; returns its dir."""
    src = os.path.join(sf_dir, "documents.parquet")
    key = hashlib.md5(
        f"{INDEX_LAYOUT}|{os.path.abspath(src)}|{os.path.getmtime(src)}|{options.to_dict()}"
        f"|{sorted(build_kw.items())}".encode()
    ).hexdigest()[:16]
    index_dir = os.path.join(_CACHE_ROOT, f"docidx-{key}")
    config = BuildConfig(options=options, **build_kw)
    return _locked_build(
        index_dir,
        os.path.join(index_dir, ".complete"),
        lambda: build_index(
            src, index_dir, config, source_column="text", name_column="doc_id"
        ),
        "index",
    )


def documents_impact_dir(sf_dir: str, options: IndexOptions, quant_levels: int = 256) -> str:
    """Build (once) the impact-ordered index over the cached documents
    index; returns its dir.  Cache-keyed by the source index dir so an
    index rebuild invalidates the impact tier with it."""
    from .engine.impact import build_impact_index

    index_dir = documents_index_dir(sf_dir, options)
    # "v2" = the bucketed one-file-per-bucket layout; bump on layout change
    key = hashlib.md5(f"impact-v2|{index_dir}|{quant_levels}".encode()).hexdigest()[:16]
    impact_dir = os.path.join(_CACHE_ROOT, f"docimp-{key}")
    return _locked_build(
        impact_dir,
        os.path.join(impact_dir, "impact_meta.json"),
        lambda: build_impact_index(index_dir, impact_dir, quant_levels=quant_levels),
        "impact index",
    )


def documents_reader(sf_dir: str, options: IndexOptions, **build_kw) -> IndexReader:
    index_dir = documents_index_dir(sf_dir, options, **build_kw)
    reader = _READERS.get(index_dir)
    if reader is None:
        reader = IndexReader(index_dir, preload=True)
        _READERS[index_dir] = reader
    return reader


def documents_fields_dir(sf_dir: str, n_title: int | None = None) -> str:
    """Derive (once) the fielded corpus for {sf_dir}/documents.parquet:
    (doc_id, title, body) parquet written by a distributed map_batches pass
    (engine.fielded.derive_ws_fields).  Both field indexes build over THIS
    one corpus, which is what guarantees their shared docID space."""
    import shutil

    import ray.data

    from .engine.fielded import DEFAULT_N_TITLE, derive_ws_fields

    n_title = DEFAULT_N_TITLE if n_title is None else n_title
    src = os.path.join(sf_dir, "documents.parquet")
    key = hashlib.md5(
        f"fields|{os.path.abspath(src)}|{os.path.getmtime(src)}|{n_title}".encode()
    ).hexdigest()[:16]
    out_dir = os.path.join(_CACHE_ROOT, f"docfields-{key}")
    done = os.path.join(out_dir, ".complete")

    def build() -> None:
        tmp = out_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(out_dir, ignore_errors=True)

        def derive(batch: pa.Table) -> pa.Table:
            title, body = derive_ws_fields(batch["text"], n_title)
            return pa.table(
                {"doc_id": batch["doc_id"], "title": title, "body": body}
            )

        (
            ray.data.read_parquet(src, columns=["doc_id", "text"])
            .map_batches(derive, batch_format="pyarrow")
            .write_parquet(tmp)
        )
        os.rename(tmp, out_dir)
        with open(done, "w") as fh:
            fh.write("ok")

    return _locked_build(out_dir, done, build, "field corpus")


def documents_fielded_readers(
    sf_dir: str,
    options: IndexOptions,
    fields: dict[str, tuple[float, float]] | None = None,
    n_title: int | None = None,
) -> list[tuple[IndexReader, float, float]]:
    """[(reader, weight, b), ...] for engine.fielded.bm25f_scores_f64: one
    cached index build per field column over the shared derived corpus."""
    from .engine.fielded import DEFAULT_FIELDS

    fields = DEFAULT_FIELDS if fields is None else fields
    fdir = documents_fields_dir(sf_dir, n_title)
    out: list[tuple[IndexReader, float, float]] = []
    for fname, (w, b) in fields.items():
        key = hashlib.md5(
            f"fidx|{INDEX_LAYOUT}|{fdir}|{fname}|{options.to_dict()}".encode()
        ).hexdigest()[:16]
        index_dir = os.path.join(_CACHE_ROOT, f"fieldidx-{key}")
        config = BuildConfig(options=options)
        _locked_build(
            index_dir,
            os.path.join(index_dir, ".complete"),
            lambda index_dir=index_dir, fname=fname: build_index(
                fdir, index_dir, config, source_column=fname, name_column="doc_id"
            ),
            f"field index {fname}",
        )
        reader = _READERS.get(index_dir)
        if reader is None:
            reader = IndexReader(index_dir, preload=True)
            _READERS[index_dir] = reader
        out.append((reader, w, b))
    return out


def _postings(reader: IndexReader, keywords: list[tuple[str, int]]):
    """(ids, tfs, dls, df, qtf) for each keyword present in the index, in
    query order — the postings lists ``_accumulate`` folds."""
    for term, qtf in keywords:
        tp = reader.postings(term)
        if tp is not None:
            ids, tfs, dls = tp.arrays()
            yield ids, tfs, dls, tp.df, qtf


def _accumulate(n: int, postings, contrib) -> tuple[np.ndarray, np.ndarray]:
    """The one float64 accumulate loop: per postings list, in the order
    given, ``scores[ids] += contrib(tfs, dls, df, qtf)``; also counts the
    lists matching each doc.  -> (scores, matched), dense over ``n`` docs."""
    scores = np.zeros(n, dtype=np.float64)
    matched = np.zeros(n, dtype=np.int64)
    for ids, tfs, dls, df, qtf in postings:
        scores[ids] += contrib(tfs, dls, df, qtf)
        matched[ids] += 1
    return scores, matched


def _rank(
    scores: np.ndarray, cand: np.ndarray, *readers, numeric_ties: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Rank the candidate mask on (score desc, ordinal asc) — or on the
    numeric doc name asc for ties (the SQL row_number convention).  The
    one place tombstones apply: each reader's deleted mask, concatenated
    in reader order, leaves the candidates; statistics were corpus-wide
    all along."""
    masks = [r.deleted_mask() for r in readers]
    if any(m is not None for m in masks):
        cand = cand & ~np.concatenate(
            [np.zeros(r.n_docs, bool) if m is None else m for r, m in zip(readers, masks)]
        )
    ids = np.flatnonzero(cand)
    s = scores[ids]
    order = np.lexsort((_numeric_names(readers[0], ids) if numeric_ties else ids, -s))
    return ids[order], s[order]


def _numeric_names(reader: IndexReader, ids: np.ndarray) -> np.ndarray:
    """The doc names of ``ids`` as int64 (raises on a non-numeric name)."""
    return np.asarray([int(reader.doc_names[d]) for d in ids], dtype=np.int64)


def _bm25(n: int, avgdl: float, k1: float = 1.2, b: float = 0.75, k3: float = 100.0):
    """BM25 contribution for ``_accumulate``: the shared expression with
    the float64 twins' ``np.log`` idf."""

    def contrib(tfs, dls, df, qtf):
        idf = np.log((n - df + 0.5) / (df + 0.5))
        return bm25_term(idf, tfs, dls, avgdl, k1, b, ((k3 + 1) * qtf) / (k3 + qtf))

    return contrib


def _bm25_sums(reader: IndexReader, keywords, k1: float = 1.2, b: float = 0.75, k3: float = 100.0):
    """BM25 (scores, matched) of ``keywords`` over one reader."""
    return _accumulate(
        reader.n_docs, _postings(reader, keywords), _bm25(reader.n_docs, reader.avgdl, k1, b, k3)
    )


def bm25_scores_f64(
    reader: IndexReader, keywords: list[tuple[str, int]], k1: float = 1.2, b: float = 0.75, k3: float = 100.0
) -> tuple[np.ndarray, np.ndarray]:
    """Float64 BM25 (for DuckDB-oracle comparison; the reference-faithful
    float32 path lives in engine.scoring)."""
    scores, matched = _bm25_sums(reader, keywords, k1, b, k3)
    return _rank(scores, matched > 0, reader)


def federated_bm25_f64(
    readers: list[IndexReader],
    keywords: list[tuple[str, int]],
    k1: float = 1.2,
    b: float = 0.75,
    k3: float = 100.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Query-time federation over N indexes — serve a fresh segment next
    to the base index WITHOUT an offline merge, score-identical to one
    merged build: global n = sum(n_docs), global avgdl recomputed in the
    SAME int-sum-then-divide order as build.py (sum sum_dl / n), global
    df = sum of per-index dfs, and each posting contributes exactly one
    f64 accumulation per (term, doc) just as in bm25_scores_f64.

    Returns (global_ids ranked desc-score asc-ordinal, scores, names)
    where names[global_id] resolves documents across all indexes (the
    concatenation of each reader's doc_names in reader order — ordinal
    ties therefore follow reader order, which equals docID order when
    the segments partition the corpus contiguously).  Each reader's
    tombstones hide its own docs."""
    if not readers:
        raise ValueError("federated_bm25_f64 needs at least one reader")
    n = sum(r.n_docs for r in readers)
    sum_dl = sum(int(r.stats["sum_dl"]) for r in readers)
    avgdl = sum_dl / n if n else 0.0
    offsets = np.cumsum([0] + [r.n_docs for r in readers], dtype=np.int64)

    def postings():
        for term, qtf in keywords:
            tps = [r.postings(term) for r in readers]
            df = sum(tp.df for tp in tps if tp is not None)
            for off, tp in zip(offsets, tps):
                if tp is not None:
                    ids, tfs, dls = tp.arrays()
                    yield ids + off, tfs, dls, df, qtf

    scores, matched = _accumulate(n, postings(), _bm25(n, avgdl, k1, b, k3))
    ids, scores = _rank(scores, matched > 0, *readers)
    names = np.concatenate([r.doc_names for r in readers]) if n else np.empty(0, object)
    return ids, scores, names


def conjunctive_bm25_f64(
    reader: IndexReader, keywords: list[tuple[str, int]], k1: float = 1.2, b: float = 0.75, k3: float = 100.0
) -> tuple[np.ndarray, np.ndarray]:
    """Float64 ranked-AND BM25 (DuckDB-oracle twin of
    engine.scoring.conjunctive_bm25; same candidate set, float64 math so
    micros match the SQL side exactly): candidates match every keyword,
    and an empty query matches nothing."""
    scores, matched = _bm25_sums(reader, keywords, k1, b, k3)
    return _rank(scores, (matched == len(keywords)) & (matched > 0), reader)


def synonym_bm25_f64(
    reader: IndexReader,
    groups: list[tuple[list[str], int]],
    k1: float = 1.2,
    b: float = 0.75,
    k3: float = 100.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Synonym-group BM25 (Lucene SynonymQuery semantics): each group of
    terms scores as ONE pseudo-term — postings unioned with tf summed per
    doc, df = number of docs matching ANY member — so adding a synonym
    never inflates a document's per-concept saturation the way two
    independent query terms would.

    ``groups``: [(terms, qtf)]; a singleton group degenerates exactly to
    plain BM25 (tested).  Float64 like the other oracle twins; absent
    members are dropped, an entirely-absent group contributes nothing.
    Duplicate members inside a group (e.g. two surface forms normalizing
    to the same token) are folded to one."""

    def postings():
        for terms, qtf in groups:
            # order-preserving member dedup
            tps = [reader.postings(t) for t in dict.fromkeys(terms)]
            parts = [tp.arrays() for tp in tps if tp is not None]
            if not parts:
                continue
            uids, inv = np.unique(np.concatenate([p[0] for p in parts]), return_inverse=True)
            tf = np.bincount(inv, weights=np.concatenate([p[1] for p in parts]).astype(np.float64))
            dl = np.zeros(len(uids), dtype=np.float64)
            dl[inv] = np.concatenate([p[2] for p in parts])  # doc length is per-doc, any member wins
            yield uids, tf, dl, len(uids), qtf

    scores, matched = _accumulate(
        reader.n_docs, postings(), _bm25(reader.n_docs, reader.avgdl, k1, b, k3)
    )
    return _rank(scores, matched > 0, reader)


def tfidf_scores_f64(reader: IndexReader, keywords: list[tuple[str, int]]) -> tuple[np.ndarray, np.ndarray]:
    n = reader.n_docs

    def contrib(tfs, dls, df, qtf):
        return np.log1p(tfs) * np.log(float(n // df))

    scores, matched = _accumulate(n, _postings(reader, keywords), contrib)
    return _rank(scores, matched > 0, reader)


def dedup_pages(input_path: str, out_dir: str, key: str = "url") -> str:
    """Exact-dedup pre-stage for the index build (SURVEY.md §2.7: the
    reference makes "one doc per name" the CALLER's responsibility;
    WriteableIndex.cs:27-30).  Keeps the first row per key (ties by the
    deterministic input order), then sorts by key so the deduped corpus has
    a deterministic layout — docID assignment downstream stays stable.

    Shape (round-3 verdict #6): the first-per-key decision runs on TINY
    (key, _pos) rows — one native Min aggregate, never a per-key pandas
    group and never the html payload through the decision shuffle — then a
    native left_semi join applies the keep-set to the full rows (the same
    aggregate + semi-join shape as dataops.dedup.exact_dedup_apply)."""
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Min

    from .dataops.dedup import _join_parts
    from .engine.reader import Fragment, plan_fragments, read_fragment

    # fragment-wise read attaches the deterministic global row position so
    # "first" is well-defined, without any driver-side materialization
    frags = plan_fragments(input_path)
    frag_ds = ray.data.from_items([f.to_dict() for f in frags])

    def load(batch: dict) -> pa.Table:
        parts = []
        for i in range(len(batch["frag_id"])):
            f = Fragment(
                int(batch["frag_id"][i]), str(batch["path"][i]),
                int(batch["row_group"][i]), int(batch["base"][i]), int(batch["n_rows"][i]),
            )
            t = read_fragment(f)
            parts.append(
                t.append_column("_pos", pa.array(np.arange(f.base, f.base + f.n_rows), pa.int64()))
            )
        return pa.concat_tables(parts)

    keyed = frag_ds.map_batches(load, batch_size=1)
    # decision stage: payload-free (key, _pos) rows only; keep-set is one
    # row per distinct key.  materialize + repartition merges the
    # aggregate's schema-less empty partitions before the join (Ray 2.49).
    keep = (
        keyed.select_columns([key, "_pos"])
        .groupby(key)
        .aggregate(Min("_pos", alias_name="_keep_pos"))
        .select_columns(["_keep_pos"])
        .materialize()
    )
    keep = keep.repartition(max(1, keep.count() // 500_000 + 1))
    deduped = (
        keyed.join(keep, "left_semi", _join_parts(16), on=("_pos",), right_on=("_keep_pos",))
        .drop_columns(["_pos"])
        .sort(key)
    )
    deduped.write_parquet(out_dir)
    return out_dir


def synth_pages_dir(n_docs: int, seed: int = 42, n_files: int = 4, row_group_size: int = 2048) -> str:
    from .corpus.pages import write_pages_parquet

    out = os.path.join(_CACHE_ROOT, f"pages-{n_docs}-{seed}-{n_files}-{row_group_size}")
    return write_pages_parquet(out, n_docs, seed=seed, n_files=n_files, row_group_size=row_group_size)


def curate_corpus(
    ds,
    min_tokens: int = 20,
    max_stop_ratio: float = 0.5,
    min_alpha_ratio: float = 0.5,
    sample_fraction: float | None = None,
    text_column: str = "text",
    id_column: str = "doc_id",
):
    """The composed training-data curation pipeline: exact dedup ->
    quality gate -> (optional) deterministic subsample.

    Every stage is one of this package's operators, every predicate is an
    exact-rational comparison (SQL-reproducible: the gates are written as
    integer cross-multiplications, no float division), and the id-hash
    sample is partitioning-invariant — the whole pipeline is re-runnable
    and oracle-checkable end to end.

    Returns the surviving corpus Dataset (original columns)."""
    import numpy as np
    import pyarrow as pa

    from .dataops.dedup import exact_dedup_apply
    from .dataops.sample import deterministic_sample
    from .text.stopwords import STOPWORDS_TUPLE

    survivors = exact_dedup_apply(ds, text_column=text_column, id_column=id_column)

    import pyarrow.compute as pc

    stop_set = pa.array(STOPWORDS_TUPLE, pa.string())

    def quality_gate(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch[text_column], "")
        n = len(texts)
        n_chars = np.asarray(pc.utf8_length(texts), dtype=np.int64)
        n_alpha = np.asarray(
            pc.count_substring_regex(texts, pattern=r"[A-Za-z]"), dtype=np.int64
        )
        lists = pc.split_pattern_regex(texts, pattern=WS_RE)
        flat = pc.list_flatten(lists)
        lens_pre = np.asarray(pc.list_value_length(lists), dtype=np.int64)
        doc_idx = np.repeat(np.arange(n), lens_pre)
        nonempty = np.asarray(pc.greater(pc.binary_length(flat), 0))
        n_tokens = np.bincount(doc_idx[nonempty], minlength=n).astype(np.int64)
        is_stop = np.asarray(pc.is_in(pc.ascii_lower(flat), value_set=stop_set)) & nonempty
        n_stop = np.bincount(doc_idx[is_stop], minlength=n).astype(np.int64)
        # exact-rational gates (integer cross-multiplication, no float):
        #   n_tokens >= min_tokens
        #   n_stop / n_tokens <= max_stop_ratio
        #   n_alpha / n_chars >= min_alpha_ratio
        sr_num = int(round(max_stop_ratio * 1000))
        ar_num = int(round(min_alpha_ratio * 1000))
        keep = (
            (n_tokens >= min_tokens)
            & (n_stop * 1000 <= sr_num * n_tokens)
            & (n_alpha * 1000 >= ar_num * n_chars)
        )
        return batch.filter(pa.array(keep))

    gated = survivors.map_batches(quality_gate, batch_format="pyarrow")
    if sample_fraction is not None:
        gated = deterministic_sample(gated, sample_fraction, id_column=id_column)
    return gated


def curate_web_corpus(
    ds,
    test_texts: list[str],
    domain_cap_n: int = 3,
    sample_fraction: float | None = None,
    url_column: str = "url",
    text_column: str = "text",
    id_column: str = "doc_id",
    min_words: int = 30,
    min_stop_words: int = 1,
):
    """The composed WEB curation pipeline — the end-to-end recipe a
    Common-Crawl-scale training-data run chains together, every stage one
    of this package's operators:

      1. per-registered-domain cap (anti SEO-farm; urlops.cap_per_domain)
      2. exact text dedup        (dedup.exact_dedup_apply)
      3. Gopher quality gate     (textstats.gopher_quality, pass flag)
      4. benchmark decontamination (clean.decontaminate, drop mode)
      5. optional deterministic subsample (sample.deterministic_sample)

    Survivor filtering is by native left_semi joins keyed on the id —
    every shuffle is id-keyed and survivor-sized; predicates are exact
    integers so the whole chain is SQL-reproducible end to end.

    Returns the surviving corpus Dataset (original columns)."""
    import pyarrow.compute as pc

    from .dataops.clean import decontaminate
    from .dataops.dedup import _join_parts, exact_dedup_apply
    from .dataops.sample import deterministic_sample
    from .dataops.textstats import gopher_quality
    from .dataops.urlops import cap_per_domain

    jp = _join_parts(8)

    capped_ids = cap_per_domain(
        ds, domain_cap_n, url_column=url_column, keep_columns=(id_column,)
    ).select_columns([id_column])
    survivors = ds.join(capped_ids, "left_semi", jp, on=(id_column,))

    survivors = exact_dedup_apply(
        survivors, text_column=text_column, id_column=id_column
    )

    gq = gopher_quality(
        survivors,
        text_column=text_column,
        id_column=id_column,
        min_words=min_words,
        min_stop_words=min_stop_words,
    )

    def pass_ids(batch):
        keep = pc.equal(batch["gopher_pass"], True)
        return batch.filter(keep).select([id_column])

    gq_ids = gq.map_batches(pass_ids, batch_format="pyarrow")
    # survivor-sized; materialize+repartition merges the filter's
    # schema-less empty blocks before the join (Ray 2.49 behavior)
    gq_ids = gq_ids.materialize()
    if gq_ids.count() == 0:
        return survivors.limit(0)
    gq_ids = gq_ids.repartition(max(1, gq_ids.count() // 1_000_000 + 1))
    survivors = survivors.join(gq_ids, "left_semi", jp, on=(id_column,))

    survivors = decontaminate(
        survivors, test_texts, text_column=text_column, id_column=id_column, mode="drop"
    )
    if sample_fraction is not None:
        survivors = deterministic_sample(
            survivors, sample_fraction, id_column=id_column
        )
    return survivors


def bm25_filtered_scores_f64(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    allowed: "np.ndarray",
    k1: float = 1.2,
    b: float = 0.75,
    k3: float = 100.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Metadata-filtered BM25: identical scoring to bm25_scores_f64, with
    candidates restricted to the ``allowed`` boolean mask over doc
    ordinals (e.g. lang == 'en').

    The mask restricts the candidate set of the full ranking (a doc's sum
    depends only on its own postings, so its score is unchanged) — the
    returned ranking is exact, not a post-filter of an unfiltered top-k,
    which can under-fill k.  At cluster scale the mask is one bit per doc
    (125 MB per 10^9 docs), broadcast once via ray.put to scorer actors."""
    allowed = np.asarray(allowed, dtype=bool)
    if allowed.shape != (reader.n_docs,):
        raise ValueError(f"allowed mask must have shape ({reader.n_docs},)")
    scores, matched = _bm25_sums(reader, keywords, k1, b, k3)
    return _rank(scores, (matched > 0) & allowed, reader)


def facet_counts(
    reader: IndexReader,
    terms: list[str],
    docs_ds,
    facet_column: str,
    id_column: str = "doc_id",
):
    """Search-result faceting: count matching documents (boolean OR over
    ``terms``) per value of ``facet_column`` -> Dataset(facet, n_docs).

    The matched doc NAMES (sized by the match set, not the corpus) are
    broadcast once via ray.put; the facet pass is a stateless map_batches
    over the docs table — per batch a vectorized is_in against the
    broadcast name set + partial value counts — followed by one tiny
    groupby-sum.  Works for any doc-name scheme (urls, ints); tombstoned
    docs never count (boolean_or already drops them)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as _pc
    import ray
    from ray.data.aggregate import Sum

    from .engine.boolean import boolean_or

    match = boolean_or(reader, terms)
    matched_names = pa.array(
        sorted(str(n) for n in reader.doc_names[match]), pa.string()
    )
    names_ref = ray.put(matched_names)

    def partial(batch: pa.Table) -> pa.Table:
        names = ray.get(names_ref)
        ids = _pc.cast(batch[id_column], pa.string())
        hit = np.asarray(_pc.is_in(ids, value_set=names))
        import pyarrow.compute as pc

        vals = batch[facet_column].combine_chunks().filter(pa.array(hit))
        vc = pc.value_counts(vals)  # one vectorized pass, no Python objects
        return pa.table(
            {
                "facet": pc.cast(vc.field("values"), pa.string()),
                "n_docs": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    return (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("facet")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )


def facet_ranges(
    reader: IndexReader,
    terms: list[str],
    docs_ds,
    value_column: str,
    edges: list[int],
    id_column: str = "doc_id",
):
    """Numeric RANGE faceting over a search-result set — the histogram
    sibling of facet_counts (price/length/date buckets on the matches):
    count matching documents (boolean OR over ``terms``) per half-open
    bucket ``[edges[i], edges[i+1])``, with underflow (-1) and overflow
    (len(edges)-1) buckets so no match silently vanishes.

    Same shape as facet_counts: match names broadcast once, a stateless
    vectorized searchsorted pass over the docs table, one tiny
    groupby-sum.  Integer edges + int64 counts keep the whole output
    SQL-exact.  Returns Dataset(bucket, lo, hi, n_docs); lo/hi are the
    bucket bounds with sentinel min/max int64 for the open ends."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as _pc
    import ray
    from ray.data.aggregate import Sum

    from .engine.boolean import boolean_or

    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("edges must be >= 2 strictly increasing values")
    edges_arr = np.asarray(edges, dtype=np.int64)
    match = boolean_or(reader, terms)
    matched_names = pa.array(
        sorted(str(n) for n in reader.doc_names[match]), pa.string()
    )
    ref = ray.put((matched_names, edges_arr))

    def partial(batch: pa.Table) -> pa.Table:
        names, e = ray.get(ref)
        ids = _pc.cast(batch[id_column], pa.string())
        hit = np.asarray(_pc.is_in(ids, value_set=names))
        vals = np.asarray(batch[value_column], dtype=np.int64)[hit]
        bucket = np.searchsorted(e, vals, side="right") - 1  # -1 = underflow
        ub, counts = np.unique(bucket, return_counts=True)
        return pa.table(
            {
                "bucket": pa.array(ub.astype(np.int64)),
                "n_docs": pa.array(counts.astype(np.int64)),
            }
        )

    agg = (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )

    lo_of = {-1: np.iinfo(np.int64).min, len(edges_arr) - 1: int(edges_arr[-1])}
    hi_of = {-1: int(edges_arr[0]), len(edges_arr) - 1: np.iinfo(np.int64).max}

    def bounds(batch: pa.Table) -> pa.Table:
        b = np.asarray(batch["bucket"], dtype=np.int64)
        lo = np.asarray(
            [lo_of[int(x)] if int(x) in lo_of else int(edges_arr[x]) for x in b],
            dtype=np.int64,
        )
        hi = np.asarray(
            [hi_of[int(x)] if int(x) in hi_of else int(edges_arr[x + 1]) for x in b],
            dtype=np.int64,
        )
        return pa.table(
            {
                "bucket": batch["bucket"],
                "lo": pa.array(lo),
                "hi": pa.array(hi),
                "n_docs": batch["n_docs"],
            }
        )

    return agg.map_batches(bounds, batch_format="pyarrow")


def bm25_boosted_scores_f64(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    boost: "np.ndarray",
    k1: float = 1.2,
    b: float = 0.75,
    k3: float = 100.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Static document priors: BM25 with a per-document multiplicative
    boost (source-quality prior, e.g. wiki 2.0 / curated 1.5 / web 1.0)
    applied AFTER term accumulation — one multiply on the summed score,
    so float ordering inside the sum is unchanged vs bm25_scores_f64 and
    the oracle stays micros-exact.

    ``boost`` is float64 per doc ordinal; at cluster scale it ships the
    same way the filtered-retrieval mask does (8 B/doc, ray.put once to
    scorer actors)."""
    import numpy as np

    boost = np.asarray(boost, dtype=np.float64)
    if boost.shape != (reader.n_docs,):
        raise ValueError(f"boost must have shape ({reader.n_docs},)")
    scores, matched = _bm25_sums(reader, keywords, k1, b, k3)
    return _rank(scores * boost, matched > 0, reader)


def prf_expanded_bm25_f64(
    reader: IndexReader,
    docs_ds,
    keywords: list[tuple[str, int]],
    options,
    fb_docs: int = 5,
    fb_terms: int = 5,
    id_column: str = "doc_id",
    text_column: str = "text",
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Pseudo-relevance feedback retrieval (engine/prf.py): initial BM25
    top-``fb_docs``, mine their top-``fb_terms`` terms (tf_sum * ln(N/df),
    corpus df), re-score with the expanded term set (expansions at
    qtf=1).  Returns (doc_ids, scores, expansion_terms).

    Both BM25 passes drop tombstoned docs, so a dead doc neither seeds
    expansions nor ranks."""
    from .engine.prf import feedback_terms

    ids0, _ = bm25_scores_f64(reader, keywords)
    fb_ids = [str(reader.doc_names[d]) for d in ids0[:fb_docs]]
    expansions = feedback_terms(
        docs_ds,
        fb_ids,
        options,
        reader._df,
        reader.n_docs,
        exclude={t for t, _ in keywords},
        fb_terms=fb_terms,
        id_column=id_column,
        text_column=text_column,
    )
    expanded = list(keywords) + [(t, 1) for t, _ in expansions]
    ids, scores = bm25_scores_f64(reader, expanded)
    return ids, scores, [t for t, _ in expansions]


def lmd_scores_f64(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    mu: float = 2000.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Query-likelihood with Dirichlet smoothing (a 4th scorer beyond the
    reference's three) — the rank-equivalent matching-docs form:

        score(d) = sum_{t in q and d} qtf_t * ln(1 + tf/(mu * cf_t/|C|))
                 + (sum_t qtf_t) * ln(mu / (dl_d + mu))

    cf_t (collection term frequency) is summed from the term's postings
    at scoring time — the same read scoring already does; |C| = sum_dl
    from build stats.  Ties -> ascending docID.  Registered as scorer
    'lmd' via engine.search.register_scorer (the extension surface the
    reference exposes via its Scorer classes, SURVEY §2.10)."""
    c_total = float(reader.stats["sum_dl"])

    def contrib(tfs, dls, df, qtf):
        p_c = mu * (float(tfs.sum()) / c_total)
        return qtf * np.log(1.0 + tfs / p_c)

    scores, matched = _accumulate(reader.n_docs, _postings(reader, keywords), contrib)
    touched = matched > 0
    qtf_total = sum(qtf for _, qtf in keywords)
    scores[touched] += qtf_total * np.log(mu / (reader.doc_lens[touched] + mu))
    return _rank(scores, touched, reader)


def lmjm_scores_f64(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    lam: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Query-likelihood with Jelinek-Mercer (linear-interpolation)
    smoothing — the rank-equivalent matching-docs form (Zhai & Lafferty
    2001):

        score(d) = sum_{t in q and d} qtf_t *
                   ln(1 + ((1-lam)/lam) * (tf/dl_d) / (cf_t/|C|))

    Unlike Dirichlet there is NO doc-length additive term: the smoothing
    mass is a fixed mixture, so unmatched docs score exactly 0 on both
    sides.  cf_t is summed from the term's postings at scoring time; |C|
    = sum_dl from build stats.  Ties -> ascending docID.  Registered as
    scorer 'lmjm' via engine.search.register_scorer (extension surface,
    SURVEY §2.10; reference scorer classes at
    /root/reference/src/Querying/Scorer.cs)."""
    c_total = float(reader.stats["sum_dl"])
    ratio = (1.0 - lam) / lam

    def contrib(tfs, dls, df, qtf):
        p_c = float(tfs.sum()) / c_total
        return qtf * np.log(1.0 + ratio * (tfs / dls) / p_c)

    scores, matched = _accumulate(reader.n_docs, _postings(reader, keywords), contrib)
    return _rank(scores, matched > 0, reader)


def pivoted_scores_f64(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    s: float = 0.2,
) -> tuple[np.ndarray, np.ndarray]:
    """Pivoted length normalization VSM (Singhal, Buckley & Mitra,
    SIGIR 1996) — the scorer that preceded BM25 as the SMART default and
    still anchors the dampened-tf family:

        score(d) = sum_{t in q and d} qtf_t
                   * (1 + ln(1 + ln(tf))) / ((1 - s) + s * dl/avgdl)
                   * ln((N + 1) / df_t)

    The double-log tf dampening and the pivot ``s`` (slope, default 0.2
    per the paper) are written exactly as published; idf uses the
    (N+1)/df form so single-doc terms still contribute.  Ties ->
    ascending docID.  Registered as scorer 'pivoted' via
    engine.search.register_scorer (extension surface, SURVEY §2.10;
    reference scorer classes at /root/reference/src/Querying/Scorer.cs)."""
    n = reader.n_docs
    avgdl = reader.avgdl

    def contrib(tfs, dls, df, qtf):
        idf = np.log((n + 1.0) / df)
        dampened = 1.0 + np.log(1.0 + np.log(tfs.astype(np.float64)))
        pivot = (1.0 - s) + s * (dls / avgdl)
        return qtf * (dampened / pivot) * idf

    scores, matched = _accumulate(n, _postings(reader, keywords), contrib)
    return _rank(scores, matched > 0, reader)


def pl2_scores_f64(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    c: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """DFR PL2 (Amati & van Rijsbergen, TOIS 2002) — Poisson randomness
    model, Laplace aftereffect, normalization 2:

        tfn      = tf * log2(1 + c * avgdl / dl)
        lambda_t = cf_t / N
        score(d) = sum_{t in q and d} qtf_t * (1 / (tfn + 1)) *
                   ( tfn * log2(tfn / lambda_t)
                     + (lambda_t - tfn) * log2(e)
                     + 0.5 * log2(2 * pi * tfn) )

    Every log2 is written ``ln(x) / ln(2)`` so a SQL oracle composes the
    IDENTICAL float64 expression (no engine-specific log2 kernel).  The
    PL2 formula assumes lambda_t < 1 (term rarer than one-per-doc) — for
    head terms the score can go negative, which is reference DFR
    behavior, not an error.  Ties -> ascending docID.  Registered as
    scorer 'pl2' via engine.search.register_scorer (extension surface,
    SURVEY §2.10)."""
    n = reader.n_docs
    avgdl = reader.avgdl
    ln2 = np.log(2.0)
    log2e = 1.0 / ln2

    def contrib(tfs, dls, df, qtf):
        lam = float(tfs.sum()) / n
        tfn = tfs * (np.log(1.0 + c * avgdl / dls) / ln2)
        gain = (1.0 / (tfn + 1.0)) * (
            tfn * (np.log(tfn / lam) / ln2)
            + (lam - tfn) * log2e
            + 0.5 * (np.log(2.0 * np.pi * tfn) / ln2)
        )
        return qtf * gain

    scores, matched = _accumulate(n, _postings(reader, keywords), contrib)
    return _rank(scores, matched > 0, reader)


def cascade_scores_f64(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    n_first: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-stage cascade ranking (Wang, Lin & Metzler, SIGIR 2011): a
    cheap first-stage ranker (TF-IDF) cuts the candidate set to its
    top-``n_first``, and only those docs are ranked by the expensive
    second stage (BM25).  The serving pattern behind every modern
    retrieve-then-rerank stack; here both stages are the f64 twins so the
    result is SQL-exact.

    First-stage cut is (tfidf desc, numeric docID asc) when doc names
    are numeric (matching SQL's row_number), ordinal otherwise; it is
    taken over live docs.  Docs outside the cut are NEVER ranked, even
    if their BM25 score would beat the winners — that loss is the
    cascade trade, pinned by tests.  Ties in the final ranking ->
    ascending docID."""
    if n_first < 1:
        raise ValueError(f"cascade_scores_f64: n_first must be >= 1 (got {n_first})")
    ids_t, sc_t = tfidf_scores_f64(reader, keywords)
    try:
        nd = _numeric_names(reader, ids_t)
    except ValueError:
        nd = ids_t
    cut = np.lexsort((nd, -sc_t))[:n_first]
    allowed = np.zeros(reader.n_docs, dtype=bool)
    allowed[ids_t[cut]] = True
    return bm25_filtered_scores_f64(reader, keywords, allowed)


def msm_bm25_scores_f64(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    min_should_match: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-should-match disjunctive BM25 (the Lucene ``mm`` operator):
    rank only docs matching at least ``min_should_match`` DISTINCT query
    terms — the middle ground between pure OR (mm=1) and conjunctive AND
    (mm=|q|).  Same accumulation as bm25_scores_f64; the candidate rule
    reads its matched-term counts, no extra postings read.  Ties ->
    ascending docID."""
    if min_should_match < 1:
        raise ValueError(
            f"msm_bm25_scores_f64: min_should_match must be >= 1 "
            f"(got {min_should_match})"
        )
    scores, matched = _bm25_sums(reader, keywords)
    return _rank(scores, matched >= min_should_match, reader)


def relaxed_bm25_scores_f64(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    k: int = 10,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Query-relaxation ladder (the serving pattern between AND and OR):
    try minimum-should-match m = |q| (pure conjunction) and relax one
    level at a time until at least ``k`` live docs match; rank that level
    with BM25.  Returns (ids, scores, m_used).  A query whose OR set is
    still smaller than k returns it with m_used = 1.

    One postings read total: the OR ranking is computed once and every
    ladder level is a filter of it by matched-term count — relaxation is
    a pure driver-side threshold choice, no re-scoring."""
    if k < 1:
        raise ValueError(f"relaxed_bm25_scores_f64: k must be >= 1 (got {k})")
    scores, matched = _bm25_sums(reader, keywords)
    ids, scores = _rank(scores, matched > 0, reader)
    m_ids = matched[ids]
    # counts per level in one histogram pass: live docs matching >= m
    ge = np.cumsum(np.bincount(m_ids, minlength=len(keywords) + 1)[::-1])[::-1]
    m_used = max((m for m in range(1, len(keywords) + 1) if ge[m] >= k), default=1)
    keep = m_ids >= m_used
    return ids[keep], scores[keep], m_used


def bm25_search_after_f64(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    cursor: tuple[int, int] | None = None,
    k: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Keyset pagination over the BM25 ranking (the search_after cursor,
    stable under concurrent result sets unlike offset paging): rank on
    (score_micros desc, NUMERIC doc name asc) and return the first ``k``
    rows strictly AFTER ``cursor = (score_micros, doc_id)``.

    Returns (numeric doc ids, score_micros) — micros, not floats, so the
    cursor comparison is integer-exact and a SQL oracle paginates
    identically.  Requires numeric doc names (the keyset needs a total
    order shared with SQL)."""
    scores, matched = _bm25_sums(reader, keywords)
    micros = np.floor(scores * 1_000_000.0 + 0.5)
    ids, m = _rank(micros, matched > 0, reader, numeric_ties=True)
    m, docs = m.astype(np.int64), _numeric_names(reader, ids)
    if cursor is not None:
        cs, cd = int(cursor[0]), int(cursor[1])
        keep = (m < cs) | ((m == cs) & (docs > cd))
        m, docs = m[keep], docs[keep]
    return docs[:k], m[:k]


def sort_matches_by_field(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    docs_ds,
    field: str,
    k: int = 10,
    descending: bool = True,
    id_column: str = "doc_id",
) -> pa.Table:
    """Rank the query's OR-match set by a METADATA column instead of the
    text score (the 'sort by price/date' engine feature): match live docs
    from the postings (boolean OR), then ONE column-pruned filtered pass over
    the docs table (vectorized isin against the broadcast match-name set)
    and a bounded top-k by (field, doc).

    Returns (doc_id, field) top-k, ties -> ascending doc_id.  The match
    set ships as a broadcast name set — at corpus scale swap in the
    dedup-apply semi-join; the fold itself never exceeds k rows/batch."""
    from .engine.boolean import boolean_or

    names = {int(reader.doc_names[d]) for d in boolean_or(reader, [t for t, _ in keywords])}

    import ray

    names_ref = ray.put(np.asarray(sorted(names), dtype=np.int64))
    sign = -1 if descending else 1

    def topk(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_column], dtype=np.int64)
        vals = np.asarray(batch[field], dtype=np.int64)
        keep = np.isin(ids, ray.get(names_ref))
        ids, vals = ids[keep], vals[keep]
        order = np.lexsort((ids, sign * vals))[:k]
        return pa.table(
            {id_column: pa.array(ids[order]), field: pa.array(vals[order])}
        )

    parts = docs_ds.select_columns([id_column, field]).map_batches(
        topk, batch_format="pyarrow"
    )
    # bounded driver fold: <= k rows per input block
    tbl = pa.concat_tables(
        pa.table(b) for b in parts.iter_batches(batch_size=None, batch_format="pyarrow")
    )
    ids = np.asarray(tbl[id_column], dtype=np.int64)
    vals = np.asarray(tbl[field], dtype=np.int64)
    order = np.lexsort((ids, sign * vals))[:k]
    return pa.table(
        {id_column: pa.array(ids[order]), field: pa.array(vals[order])}
    )


def prior_boosted_bm25_f64(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    prior: np.ndarray,
    lam: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Static document-prior blended BM25 — the web-search pattern of
    folding a query-independent authority/recency signal into the text
    score:  final(d) = bm25(d) + lam * ln(1 + prior[d]).

    ``prior`` is a dense nonnegative per-ordinal array (site authority =
    per-source doc count, PageRank, freshness...).  Only MATCHING docs
    are rescored (the candidate set comes from the BM25 pass), so the
    prior never creates matches on its own.  At 10^12 docs the dense
    array is 8 B/doc per shard slice — the doc-range sharded query path
    (engine/sharded_search.py) holds only its shard's slice, never the
    global vector."""
    scores, matched = _bm25_sums(reader, keywords)
    return _rank(scores + lam * np.log1p(prior), matched > 0, reader)


def source_doc_count_prior(docs_ds, reader: IndexReader) -> np.ndarray:
    """Per-ordinal 'site authority' prior = number of corpus docs sharing
    the document's source.  ONE column-pruned pass collects the
    (doc_id, source) pairs — the same O(n_docs) driver footprint as the
    reader's own doc_names table, which a caller holding an IndexReader
    has already accepted; counts fold driver-side over the
    dictionary-encoded source column (one Python step per DISTINCT
    source, numpy takes per doc).  At doc-range-sharded scale each shard
    builds only its slice (engine/sharded_search.py)."""
    import pyarrow.compute as pc

    pairs = pa.concat_tables(
        pa.table(b)
        for b in docs_ds.select_columns(["doc_id", "source"]).iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
    )
    tbl_ids = np.asarray(pairs["doc_id"], dtype=np.int64)
    dict_arr = pc.dictionary_encode(pairs["source"].combine_chunks())
    codes = np.asarray(dict_arr.indices, dtype=np.int64)
    code_counts = np.bincount(codes, minlength=len(dict_arr.dictionary)).astype(
        np.float64
    )
    per_doc = code_counts[codes]
    # ordinal mapping without a max(doc_id)-sized dense array: sort the
    # table ids once, searchsorted-probe the reader's names
    order = np.argsort(tbl_ids, kind="stable")
    sorted_ids = tbl_ids[order]
    names = reader.doc_names.astype(np.int64)
    pos = np.searchsorted(sorted_ids, names)
    ok = (pos < len(sorted_ids)) & (sorted_ids[np.minimum(pos, len(sorted_ids) - 1)] == names)
    if not ok.all():
        missing = names[~ok][:3].tolist()
        raise ValueError(
            f"source_doc_count_prior: index docs absent from the docs table "
            f"(e.g. {missing})"
        )
    return per_doc[order][pos]


_MAXP_KEY_BASE = 1_000_000  # chunk_key = doc_id * base + chunk_id


def _maxp_keyed(batch: pa.Table) -> pa.Table:
    """Chunk rows -> (ck, cid, chunk_key, text) with the composite key
    ``ck = doc_id * _MAXP_KEY_BASE + chunk_id``.  A chunk_id at or past the
    base would alias another document's key, so it raises."""
    chunk_ids = np.asarray(batch["chunk_id"], dtype=np.int64)
    if len(chunk_ids) and int(chunk_ids.max()) >= _MAXP_KEY_BASE:
        raise ValueError(
            f"chunk_id {int(chunk_ids.max())} >= {_MAXP_KEY_BASE}: the MaxP key "
            "doc_id * base + chunk_id would collide across documents"
        )
    keys = np.asarray(batch["doc_id"], dtype=np.int64) * _MAXP_KEY_BASE + chunk_ids
    return pa.table(
        {
            "ck": pa.array(keys),
            "cid": batch["chunk_id"],
            "chunk_key": pa.array(keys).cast(pa.string()),
            "text": batch["text"],
        }
    )


def documents_maxp_index_dir(
    sf_dir: str,
    options: IndexOptions,
    chunk_tokens: int = 64,
    overlap: int = 8,
) -> str:
    """Build (once) the PASSAGE index for MaxP retrieval: the documents
    table chunked into overlapping token windows (dataops/chunk.py), each
    chunk indexed as its own document under the composite name
    ``doc_id * 1e6 + chunk_id`` — the standard passage-retrieval layout
    (Dai & Callan SIGIR'19 BERT-MaxP lineage: score passages, aggregate
    max per document).  Chunk derivation is a distributed flat-map; the
    chunk corpus lands via the RANGE-PARTITIONED SORTED export
    (dataops/export.range_partition_export: zero-padded part files with
    disjoint ascending composite-key ranges, each sorted inside), so the
    index build's fragment plan — files in name order — sees the global
    (doc_id, chunk_id) order and chunk docIDs are deterministic WITHOUT
    any driver-side materialization of the chunk table."""
    from .dataops.chunk import chunk_documents
    from .dataops.export import range_partition_export
    from .ioutil import read_parquet_clean

    src = os.path.join(sf_dir, "documents.parquet")
    key = hashlib.md5(
        f"maxp|{INDEX_LAYOUT}|{os.path.abspath(src)}|{os.path.getmtime(src)}|{options.to_dict()}"
        f"|{chunk_tokens}|{overlap}".encode()
    ).hexdigest()[:16]
    chunks_dir = os.path.join(_CACHE_ROOT, f"docchunks-{key}")
    index_dir = os.path.join(_CACHE_ROOT, f"maxpidx-{key}")

    def build() -> None:
        def keyed():
            return chunk_documents(
                read_parquet_clean(src, columns=["doc_id", "text"]),
                chunk_tokens=chunk_tokens,
                overlap=overlap,
            ).map_batches(_maxp_keyed, batch_format="pyarrow")

        # split points from the key's known structure (doc_id * base):
        # a streaming max pass, no quantile shuffle over a near-unique key
        hi = keyed().max("ck")
        n_parts = 8
        bounds = np.linspace(0, max(int(hi or 0), 1), n_parts + 1)[1:-1].astype(
            np.int64
        )
        range_partition_export(
            keyed(), chunks_dir, key="ck", n_partitions=n_parts,
            id_column="cid", bounds=bounds,
        )
        build_index(
            chunks_dir,
            index_dir,
            BuildConfig(options=options),
            source_column="text",
            name_column="chunk_key",
        )

    return _locked_build(
        index_dir, os.path.join(index_dir, ".complete"), build, "maxp index"
    )


def maxp_bm25_f64(
    chunk_reader: IndexReader, keywords: list[tuple[str, int]],
    agg: str = "max",
) -> tuple[np.ndarray, np.ndarray]:
    """Passage-aggregated document ranking over the MaxP index — the
    three published aggregators (Dai & Callan SIGIR'19):

    - ``agg="max"``   MaxP: doc score = max over its chunks (float64;
      max is order-independent, so hash-stable).
    - ``agg="sum"``   SumP: doc score = sum of the chunks' INTEGER-MICROS
      scores — integers by construction, so the sum is order-independent
      too (a float SumP would inherit summation-associativity noise, the
      rrf lesson).  Returned scores are micros.
    - ``agg="first"`` FirstP: doc score = chunk 0's score (the lead
      passage; float64).

    Ties -> numeric doc_id ascending.  -> (numeric doc_ids, scores),
    full candidate set."""
    ids, scores = bm25_scores_f64(chunk_reader, keywords)
    if len(ids) == 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    keys = _numeric_names(chunk_reader, ids)
    docs = keys // _MAXP_KEY_BASE
    chunk_no = keys % _MAXP_KEY_BASE
    if agg == "max":
        order = np.lexsort((-scores, docs))
        d_s, s_s = docs[order], scores[order]
        starts = np.concatenate(([0], np.flatnonzero(d_s[1:] != d_s[:-1]) + 1))
        per_doc, per_score = d_s[starts], s_s[starts]  # first in group = max
    elif agg == "sum":
        micros = np.floor(scores * 1_000_000 + 0.5).astype(np.int64)
        order = np.argsort(docs, kind="stable")
        d_s, m_s = docs[order], micros[order]
        starts = np.concatenate(([0], np.flatnonzero(d_s[1:] != d_s[:-1]) + 1))
        per_doc = d_s[starts]
        per_score = np.add.reduceat(m_s, starts)  # stays int64 micros
    elif agg == "first":
        keep = chunk_no == 0
        per_doc, per_score = docs[keep], scores[keep]
    else:
        raise ValueError(f"unknown agg {agg!r} (max/sum/first)")
    rank = np.lexsort((per_doc, -per_score))
    return per_doc[rank], per_score[rank]


def phrase_bm25_f64(
    reader: IndexReader,
    pos_dir: str,
    phrase: list[str],
    k1: float = 1.2,
    b: float = 0.75,
    options=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Phrase-ranked retrieval: BM25 where tf is the EXACT-PHRASE
    occurrence count (Lucene PhraseQuery scoring) —

        score(d) = ln((N - df_p + 0.5)/(df_p + 0.5))
                   * pf*(k1+1) / (pf + k1*(1 - b + b*dl/avgdl))

    pf = phrase matches in d (positions.phrase_search — pruned two-term
    sidecar read, never a corpus pass), df_p = number of matching docs,
    N/avgdl/dl from the main index (the sidecar and index must share
    build options so kept-token doc lengths agree).  The phrase is one
    pseudo-term through the shared accumulate-and-rank step.  Ties ->
    ascending numeric doc name, matching the SQL row_number convention.
    Returns (ordinals, scores)."""
    import json

    from .engine.positions import phrase_search

    # fail loud on a sidecar/index build-options mismatch: dl/avgdl come
    # from the index's kept-token stream, pf from the sidecar's — they
    # must be the same tokenization or scores are silently wrong
    with open(os.path.join(pos_dir, "positions_stats.json")) as fh:
        pos_opts = json.load(fh)["options"]
    idx_opts = reader.stats.get("options")
    if idx_opts is not None and pos_opts != idx_opts:
        raise ValueError(
            f"phrase_bm25_f64: positional sidecar options {pos_opts} differ "
            f"from index options {idx_opts} — rebuild one to match"
        )

    tbl = phrase_search(pos_dir, phrase, options=options)
    raw_ids = np.asarray(tbl["doc_id"], dtype=np.int64)
    pf = np.asarray(tbl["n_matches"], dtype=np.float64)
    ords = np.asarray(
        [reader.doc_id_of(str(n)) for n in raw_ids.tolist()], dtype=np.int64
    )
    if (ords < 0).any():
        missing = raw_ids[ords < 0][:3].tolist()
        raise ValueError(
            f"phrase_bm25_f64: sidecar docs absent from the index "
            f"(e.g. {missing}) — rebuild the positional sidecar to match"
        )
    scores, matched = _accumulate(
        reader.n_docs,
        [(ords, pf, reader.doc_lens[ords], len(raw_ids), 1)],
        _bm25(reader.n_docs, reader.avgdl, k1, b),
    )
    return _rank(scores, matched > 0, reader, numeric_ties=True)


def collapse_ranking(
    ids: "np.ndarray",
    scores: "np.ndarray",
    group_of: "np.ndarray",
    per_group: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Search-result collapsing (field collapse): keep only the best
    ``per_group`` results per group (source/domain/site), preserving the
    incoming rank order — the one-result-per-site rule of web search.

    Operates on the RANKING (k rows), not the corpus: group ids are
    looked up per result and counted with a plain dict over the k rows.
    Results whose group is None are ALWAYS kept (an ungrouped doc is its
    own group — never silently dropped)."""
    counts: dict = {}
    keep = np.ones(len(ids), dtype=bool)
    groups = group_of[ids]
    for i, g in enumerate(groups):
        if g is None:
            continue
        seen = counts.get(g, 0)
        if seen >= per_group:
            keep[i] = False
        counts[g] = seen + 1
    return ids[keep], scores[keep]


def bm25plus_scores_f64(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    k1: float = 1.2,
    b: float = 0.75,
    k3: float = 100.0,
    delta: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """BM25+ (Lv & Zhai 2011): lower-bounds the tf normalization with
    ``delta`` so very long documents keep credit for matching a term at
    all — score = sum qterm * ln((N+1)/df) * ((k1+1)tf/(tf+K) + delta),
    K = k1(1-b+b dl/avgdl).  Fifth scorer; matching-docs form (docs with
    no query term score 0 both here and in the oracle)."""
    n = reader.n_docs
    avgdl = reader.avgdl

    def contrib(tfs, dls, df, qtf):
        idf = np.log((n + 1.0) / df)
        qterm = ((k3 + 1) * qtf) / (k3 + qtf)
        K = k1 * (1 - b + b * (dls / avgdl))
        return idf * ((tfs * (k1 + 1)) / (tfs + K) + delta) * qterm

    scores, matched = _accumulate(n, _postings(reader, keywords), contrib)
    return _rank(scores, matched > 0, reader)


def bm25_proximity_boosted_f64(
    reader: IndexReader,
    pos_dir: str,
    keywords: list[tuple[str, int]],
    window: int = 4,
    lam: float = 0.5,
    options=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Proximity-boosted BM25 (sequential-dependence lite, Metzler &
    Croft): final = bm25 + lam * ln(1 + pairs), where ``pairs`` sums the
    within-``window`` co-occurrences of each ADJACENT query-term pair
    from the positional sidecar.  The pair probe reads only the two
    terms' position rows (positions.proximity_search); the boost table
    is pair-output-sized, never a corpus pass."""
    from .engine.positions import proximity_search

    scores, matched = _bm25_sums(reader, keywords)
    boost = np.zeros(reader.n_docs, dtype=np.float64)
    for (t1, _), (t2, _) in zip(keywords, keywords[1:]):
        tbl = proximity_search(pos_dir, t1, t2, window, options=options)
        for name, n_pairs in zip(
            tbl["doc_id"].to_pylist(), tbl["n_pairs"].to_pylist()
        ):
            o = reader.doc_id_of(str(name))
            if o >= 0:
                boost[o] += float(n_pairs)
    return _rank(scores + lam * np.log1p(boost), matched > 0, reader)


def sdm_scores_f64(
    reader: IndexReader,
    pos_dir: str,
    terms: list[str],
    mu: float = 2000.0,
    lambdas: tuple[float, float, float] = (0.85, 0.1, 0.05),
    uw_window: int = 8,
    options=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential Dependence Model ranking (Metzler & Croft, SIGIR 2005) —
    the canonical term-dependency ranker: three Dirichlet-smoothed
    log-probability feature families over the query's adjacent term pairs,

        score(D) = l_T * sum_i  ln((tf_i      + mu*cf_i/|C|) / (dl + mu))
                 + l_O * sum_i  ln((o1_i      + mu*cf_O/|C|) / (dl + mu))
                 + l_U * sum_i  ln((uw_i      + mu*cf_U/|C|) / (dl + mu))

    where o1 counts EXACT ordered adjacency (#1, the positional sidecar's
    ordered_window_search at slop=1), uw counts unordered co-occurrence
    within ``uw_window`` kept-token positions (proximity_search), and
    cf_* are corpus totals of the same statistic (|C| = sum_dl).  A
    feature whose corpus frequency is zero is skipped (its log-prob is
    undefined for every document — the standard Indri convention).

    Candidates = docs matching at least one query unigram; within the
    candidate set every feature contributes, matched or smoothing-only.
    Ties -> ascending numeric doc name (the SQL row_number convention).
    Returns (ordinals, scores).

    Scale shape: unigram features come from the main index's pruned
    term reads; pair features from two pruned sidecar reads per adjacent
    pair — never a corpus pass at query time.  The sidecar and index
    must share build options (fail-loud check, like phrase_bm25_f64)."""
    import json as _json

    from .engine.positions import ordered_window_search, proximity_search

    with open(os.path.join(pos_dir, "positions_stats.json")) as fh:
        pos_opts = _json.load(fh)["options"]
    idx_opts = reader.stats.get("options")
    if idx_opts is not None and pos_opts != idx_opts:
        raise ValueError(
            f"sdm_scores_f64: positional sidecar options {pos_opts} differ "
            f"from index options {idx_opts} — rebuild one to match"
        )
    lam_t, lam_o, lam_u = lambdas
    n = reader.n_docs
    c_total = float(reader.stats["sum_dl"])
    dl = reader.doc_lens.astype(np.float64)
    score = np.zeros(n, dtype=np.float64)
    touched = np.zeros(n, dtype=bool)

    for t in terms:
        tp = reader.postings(t)
        tf_dense = np.zeros(n, dtype=np.float64)
        cf = 0.0
        if tp is not None:
            ids, tfs, _ = tp.arrays()
            tf_dense[ids] = tfs
            cf = float(tfs.sum())
            touched[ids] = True
        if cf == 0.0:
            continue
        score += lam_t * np.log((tf_dense + mu * cf / c_total) / (dl + mu))

    def _pair_counts(tbl) -> tuple[np.ndarray, float]:
        dense = np.zeros(n, dtype=np.float64)
        if tbl.num_rows == 0:
            return dense, 0.0
        raw = tbl["doc_id"].to_pylist()
        cnts = np.asarray(tbl["n_pairs"], dtype=np.float64)
        ords = np.asarray([reader.doc_id_of(str(x)) for x in raw], dtype=np.int64)
        if (ords < 0).any():
            missing = [raw[i] for i in np.flatnonzero(ords < 0)[:3]]
            raise ValueError(
                f"sdm_scores_f64: sidecar docs absent from the index "
                f"(e.g. {missing}) — rebuild the positional sidecar to match"
            )
        dense[ords] = cnts
        return dense, float(cnts.sum())

    for a, b in zip(terms, terms[1:]):
        o_dense, o_cf = _pair_counts(
            ordered_window_search(pos_dir, a, b, slop=1, options=options)
        )
        if o_cf > 0.0:
            score += lam_o * np.log((o_dense + mu * o_cf / c_total) / (dl + mu))
        u_dense, u_cf = _pair_counts(
            proximity_search(pos_dir, a, b, window=uw_window, options=options)
        )
        if u_cf > 0.0:
            score += lam_u * np.log((u_dense + mu * u_cf / c_total) / (dl + mu))

    return _rank(score, touched, reader, numeric_ties=True)
