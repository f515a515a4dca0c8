"""Impact-ordered index + score-at-a-time (SAAT) anytime retrieval.

The classic web-serving dual of the document-ordered index (Anh & Moffat,
"Pruned query evaluation using pre-computed impacts", SIGIR'06; Lin &
Trotman, "Anytime ranking for impact-ordered indexes" [JASS], ICTIR'15):
every posting's BM25 contribution is pre-computed at INDEX time, quantized
to a small integer impact q, and postings are regrouped into per-(term, q)
segments sorted by docID.  Query evaluation is then score-at-a-time:
process whole segments in descending-impact order, adding the integer q
of each segment to its docs' accumulators — and can STOP after any prefix
of segments (a postings budget rho), giving an "anytime" ranking whose
quality degrades gracefully.  This is how engines bound tail latency at
10^12-doc scale: the budget, not the posting-list length, caps per-query
work.

No reference parity: the reference engine (Program.cs) has no impact
index; this module is the scale path beyond its exhaustive scorers.

Impact scorer: BM25 with the LUCENE idf, idf+ = ln(1 + (N-df+0.5)/(df+0.5))
— always positive, unlike the reference's raw Robertson idf (negative for
df > N/2, a quirk the exhaustive scorers keep).  Early-terminated
accumulation is only sound when every admitted segment can only RAISE a
doc's score, so the impact tier gets the positive variant; it is therefore
its own scorer (rank-equivalent to reference BM25 exactly when all query
idfs are positive), the way real impact tiers sit in front of an exact
reranker.

Quantization (integer-exact, SQL-reproducible):
    imp_micros = max(0, floor(contrib(tf, dl, df) * 1e6 + 0.5))
    s          = floor(sqrt(imp_micros))        # IEEE sqrt: exact even
    s_max      = floor(sqrt(max_micros))        #   across platforms
    q          = 1 + s * (Q - 1) // s_max       # 1..Q
with contrib = idf+ * tf*(k1+1) / (tf + k1*(1-b+b*dl/avgdl)) and
max_micros the GLOBAL maximum over every posting in the index.  The sqrt
is a companding stage: impact distributions are idf-skewed by orders of
magnitude, and LINEAR global quantization collapses every common term to
q=1 (measured on the sf0.01 corpus: 27/28 terms).  IEEE-754 requires
correctly-rounded sqrt, so floor(sqrt(integer-valued double)) is
bit-deterministic across numpy and DuckDB — the bucket rule stays exact
on both sides of the oracle.  Both build passes are streaming map_batches
over the document-ordered postings blocks; the global max is a per-batch
partial -> one tiny driver reduce (never a data-sized collect).

Scale shape:
- build pass A (max): column-pruned read of postings/, vectorized block
  decode, per-batch max -> Dataset.max().  No shuffle.
- build pass B (bucket): same read, per-(block-row, q) partial doc lists
  (already docID-ascending, so partials delta+VByte encode directly),
  then ONE TERM-HASH-BUCKET groupby — the merge-stage exchange shape
  (engine/merge.py term_bucket_array) — whose finish fn merges every
  (term, q) segment in the bucket with ONE lexsort and writes ONE
  (term, q)-sorted file per bucket.  A per-(term, q) groupby was the
  first cut and is the wrong shape: web vocabularies make segment count
  ~posting count, and per-group overhead dominated (measured 35 s for a
  2k-doc corpus; the bucketed rewrite is <2 s).  num_buckets bounds
  per-writer memory — scale it so postings/num_buckets fits a worker.
- df lookup during both passes is a PER-BATCH PRUNED read of
  terms.parquet filtered to the batch's terms (the qpp.py doubly-pruned
  pattern) — never a vocabulary broadcast.
- serving: segments are served from memory, as JASS assumes.  Each
  process loads a bucket file once, on the first query that needs it, as
  the whole (term, q)-sorted table plus a term -> (first_row, end_row)
  map; impact_meta.json is cached the same way.  Every call re-checks
  each file it uses by os.stat (inode, mtime_ns, size) and reloads a
  file that changed, so a rebuilt or replaced tier (both files commit
  with os.replace) is never served stale, and a missing bucket file
  contributes nothing.  The cache holds the last _TIERS_CACHED tiers.
  A probe slices its terms' rows out of the loaded buckets, streams the
  segments in (q desc, term asc) order into a dense int accumulator; the
  anytime budget admits the longest prefix of segments whose cumulative
  posting count stays within rho.  Deterministic => SQL-checkable
  (window cumsum over segment sizes).
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data

from .codec import decode_concat_rows, encode_rows, load_meta
from .scoring import bm25_term
from .sharded_search import _topk_table, merge_topk, run_shards

_POSTING_COLS = ["term", "n", "docs_enc", "tfs_enc", "dls_enc"]


def _df_for_terms(index_dir: str, terms: pa.Array) -> dict[str, int]:
    """Pruned (term -> df) lookup for ONE batch's term set: terms.parquet
    is term-sorted, so the dataset filter prunes row groups; the result is
    bounded by the batch's vocabulary, never the corpus's."""
    uniq = pc.unique(terms)
    tbl = pads.dataset(os.path.join(index_dir, "terms.parquet")).to_table(
        columns=["term", "df"], filter=pc.field("term").isin(uniq)
    )
    return dict(zip(tbl["term"].to_pylist(), tbl["df"].to_pylist()))


def _block_impacts_micros(
    batch: pa.Table, index_dir: str, n_docs: int, avgdl: float,
    k1: float, b: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """-> (doc_ids, imp_micros, row_lens) for every posting in the batch's
    blocks, flattened in block-row order.  One vectorized decode + the
    shared float64 BM25 expression (scoring.bm25_term) with this tier's
    positive idf; negative contributions clamp to 0 micros."""
    lens = np.asarray(batch["n"], dtype=np.int64)
    ids = decode_concat_rows(batch["docs_enc"], lens, delta=True)
    tfs = decode_concat_rows(batch["tfs_enc"], lens, delta=False).astype(np.float64)
    dls = decode_concat_rows(batch["dls_enc"], lens, delta=False).astype(np.float64)
    df_map = _df_for_terms(index_dir, batch["term"])
    dfs_row = np.asarray([df_map[t] for t in batch["term"].to_pylist()], dtype=np.float64)
    dfs = np.repeat(dfs_row, lens)
    # Lucene positive idf — np.log(1.0 + x), NOT log1p: the oracle's
    # ln(1 + x) evaluates 1+x first, and the two differ in the last ulp
    idf = np.log(1.0 + (n_docs - dfs + 0.5) / (dfs + 0.5))
    micros = np.floor(bm25_term(idf, tfs, dls, avgdl, k1, b) * 1_000_000 + 0.5).astype(np.int64)
    np.maximum(micros, 0, out=micros)
    return ids, micros, lens


def build_impact_index(
    index_dir: str, out_dir: str, quant_levels: int = 256,
    num_buckets: int = 64,
) -> str:
    """Transform a built document-ordered index into an impact-ordered one.

    Output layout under ``out_dir``:
      segments/bucket=K/part.parquet   rows (term, q, n, docs_enc) sorted
                  by (term, q) — per-(term, q) docID-ascending delta+VByte
                  posting segments, one file per term-hash bucket
      impact_meta.json  {quant_levels, max_micros, num_buckets, n_docs,
                         avgdl, k1, b, n_segments, n_postings}
    """
    stats = load_meta(os.path.join(index_dir, "stats.json"))
    n_docs, avgdl = stats["n_docs"], stats["avgdl"]
    k1, b = stats["bm25"]["k1"], stats["bm25"]["b"]
    post_dir = os.path.join(index_dir, "postings")

    def batch_max(batch: pa.Table) -> pa.Table:
        _ids, micros, _lens = _block_impacts_micros(
            batch, index_dir, n_docs, avgdl, k1, b)
        m = int(micros.max()) if len(micros) else 0
        return pa.table({"m": pa.array([m], pa.int64())})

    # pass A — global max impact (per-batch partial -> scalar reduce);
    # Dataset.max is None over an empty postings set
    max_micros = (
        ray.data.read_parquet(post_dir, columns=_POSTING_COLS)
        .map_batches(batch_max, batch_format="pyarrow")
        .max("m")
    )
    max_micros = max(int(max_micros or 0), 1)
    q_span = quant_levels - 1
    s_max = max(int(np.floor(np.sqrt(float(max_micros)))), 1)

    from .merge import term_bucket_array

    def bucket(batch: pa.Table) -> pa.Table:
        """Per-(block-row, q) partial segments: inside one block docIDs are
        ascending, so each (row, q) slice is ascending too and encodes
        directly; the bucket groupby below only merges across blocks."""
        ids, micros, lens = _block_impacts_micros(
            batch, index_dir, n_docs, avgdl, k1, b)
        s = np.floor(np.sqrt(micros.astype(np.float64))).astype(np.int64)
        qs = 1 + s * q_span // s_max
        row_idx = np.repeat(np.arange(len(lens)), lens)
        # stable sort by (row, q): postings of one (row, q) stay docID-asc
        order = np.lexsort((ids, qs, row_idx))
        r_s, q_s, id_s = row_idx[order], qs[order], ids[order]
        # group boundaries of the (row, q) runs
        if len(id_s) == 0:
            return pa.table({
                "bucket": pa.array([], pa.int32()),
                "term": pa.array([], pa.string()), "q": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()), "docs_enc": pa.array([], pa.binary()),
            })
        brk = np.flatnonzero((r_s[1:] != r_s[:-1]) | (q_s[1:] != q_s[:-1]))
        starts = np.concatenate(([0], brk + 1))
        counts = np.diff(np.concatenate((starts, [len(id_s)])))
        terms = pc.take(batch["term"], pa.array(r_s[starts], pa.int64()))
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        return pa.table({
            "bucket": term_bucket_array(terms, num_buckets),
            "term": terms,
            "q": pa.array(q_s[starts], pa.int64()),
            "n": pa.array(counts, pa.int64()),
            "docs_enc": encode_rows(id_s, starts, delta=True),
        })

    seg_dir = os.path.join(out_dir, "segments")
    os.makedirs(seg_dir, exist_ok=True)

    def write_bucket(group: pa.Table) -> pa.Table:
        """Merge ALL of one bucket's (term, q) partials with one lexsort
        and write the bucket as a single (term, q)-sorted file (the
        trigram-index layout: per-group overhead killed the per-(term,q)
        map_groups first cut)."""
        empty = pa.table(
            {"bucket": pa.array([], pa.int64()), "n_segments": pa.array([], pa.int64()),
             "n_postings": pa.array([], pa.int64())}
        )
        if group.num_rows == 0:
            return empty
        bno = int(group["bucket"][0].as_py())
        lens = np.asarray(group["n"], dtype=np.int64)
        flat = decode_concat_rows(group["docs_enc"], lens, delta=True)
        term_col = group["term"]
        if isinstance(term_col, pa.ChunkedArray):
            term_col = term_col.combine_chunks()
        denc = term_col.dictionary_encode()
        # np.unique-sorted dictionary => code order == lexicographic order
        uniq = np.asarray(denc.dictionary.to_pylist(), dtype=object)
        sort_of_uniq = np.argsort(uniq)
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[sort_of_uniq] = np.arange(len(uniq))
        codes_row = rank[np.asarray(denc.indices, dtype=np.int64)]
        qs_row = np.asarray(group["q"], dtype=np.int64)
        code_flat = np.repeat(codes_row, lens)
        q_flat = np.repeat(qs_row, lens)
        order = np.lexsort((flat, q_flat, code_flat))
        code_s, q_s, id_s = code_flat[order], q_flat[order], flat[order]
        brk = np.flatnonzero((code_s[1:] != code_s[:-1]) | (q_s[1:] != q_s[:-1]))
        starts = np.concatenate(([0], brk + 1))
        counts = np.diff(np.concatenate((starts, [len(id_s)])))
        terms_sorted = uniq[sort_of_uniq]
        body = pa.table({
            "term": pa.array(terms_sorted[code_s[starts]], pa.string()),
            "q": pa.array(q_s[starts], pa.int64()),
            "n": pa.array(counts, pa.int64()),
            "docs_enc": encode_rows(id_s, starts, delta=True),
        })
        d = os.path.join(seg_dir, f"bucket={bno}")
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, "part.parquet")
        pq.write_table(body, path + ".tmp", row_group_size=1 << 14)
        os.replace(path + ".tmp", path)
        return pa.table({
            "bucket": pa.array([bno], pa.int64()),
            "n_segments": pa.array([body.num_rows], pa.int64()),
            "n_postings": pa.array([int(counts.sum())], pa.int64()),
        })

    written = (
        ray.data.read_parquet(post_dir, columns=_POSTING_COLS)
        .map_batches(bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(write_bucket, batch_format="pyarrow")
        .to_pandas()
    )
    meta = {
        "quant_levels": quant_levels, "max_micros": max_micros,
        "num_buckets": num_buckets,
        "n_docs": n_docs, "avgdl": avgdl, "k1": k1, "b": b,
        # an empty dataset's to_pandas() has no columns at all
        "n_segments": int(written["n_segments"].sum()) if len(written) else 0,
        "n_postings": int(written["n_postings"].sum()) if len(written) else 0,
    }
    meta_path = os.path.join(out_dir, "impact_meta.json")
    with open(meta_path + ".tmp", "w") as f:
        json.dump(meta, f)
    os.replace(meta_path + ".tmp", meta_path)
    return out_dir


# Serving cache: per process, the loaded files of the last few tiers,
# impact_dir -> {name: ((st_ino, st_mtime_ns, st_size), value)}, LRU.
_TIERS_CACHED = 4
_tiers: OrderedDict[str, dict] = OrderedDict()
_tiers_lock = threading.Lock()


def _cached(impact_dir: str, name, path: str, load):
    """``load(path)`` of one tier file, reused while the file's os.stat
    key is unchanged; raises FileNotFoundError (and forgets the file)
    when it is gone."""
    tier_key = os.path.abspath(impact_dir)
    try:
        st = os.stat(path)
    except FileNotFoundError:
        with _tiers_lock:
            _tiers.get(tier_key, {}).pop(name, None)
        raise
    stat_key = (st.st_ino, st.st_mtime_ns, st.st_size)
    with _tiers_lock:
        tier = _tiers.setdefault(tier_key, {})
        _tiers.move_to_end(tier_key)
        while len(_tiers) > _TIERS_CACHED:
            _tiers.popitem(last=False)
        hit = tier.get(name)
        if hit is not None and hit[0] == stat_key:
            return hit[1]
    value = load(path)
    with _tiers_lock:
        tier[name] = (stat_key, value)
    return value


def _load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def read_impact_meta(impact_dir: str) -> dict:
    path = os.path.join(impact_dir, "impact_meta.json")
    return dict(_cached(impact_dir, "meta", path, _load_json))


_SEG_COLS = ["term", "q", "n", "docs_enc"]


def _load_bucket(path: str) -> tuple[pa.Table, dict[str, tuple[int, int]]]:
    """One bucket file as (its (term, q)-sorted segments, term ->
    (first_row, end_row))."""
    tbl = pq.read_table(path, columns=_SEG_COLS).combine_chunks()
    denc = tbl["term"].combine_chunks().dictionary_encode()
    # term-sorted rows: codes ascend run by run, in dictionary order
    codes = np.asarray(denc.indices, dtype=np.int64)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(codes)) + 1)).tolist()
    ends = starts[1:] + [len(codes)]
    spans = dict(zip(denc.dictionary.to_pylist(), zip(starts, ends))) if len(codes) else {}
    return tbl, spans


def _qtf_map(keywords: list[tuple[str, int]]) -> dict[str, int]:
    qtf: dict[str, int] = {}
    for term, n in keywords:
        qtf[term] = qtf.get(term, 0) + n
    return qtf


def _admitted_segments(
    impact_dir: str, meta: dict, terms: list[str], budget: int | None
) -> tuple[pa.Table, int]:
    """Slice the query terms' segments out of their loaded bucket files
    and apply the global anytime rule; -> (admitted segments in processing
    order, postings admitted).

    Segments are processed in (q desc, term asc) order and admitted while
    the cumulative posting count stays <= budget — a deterministic prefix
    the DuckDB oracle reproduces with a window cumsum."""
    from .merge import term_bucket_array

    uniq = sorted(set(terms))
    buckets = term_bucket_array(pa.array(uniq, pa.string()), meta["num_buckets"]).to_pylist()
    parts, ranks = [], []
    for rank, (term, bno) in enumerate(zip(uniq, buckets)):
        path = os.path.join(impact_dir, "segments", f"bucket={bno}", "part.parquet")
        try:
            tbl, spans = _cached(impact_dir, bno, path, _load_bucket)
        except FileNotFoundError:
            continue
        if term in spans:
            lo, hi = spans[term]
            parts.append(tbl.slice(lo, hi - lo))
            ranks.append(np.full(hi - lo, rank, dtype=np.int64))
    if not parts:
        return pa.table({
            "term": pa.array([], pa.string()), "q": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()), "docs_enc": pa.array([], pa.binary()),
        }), 0
    seg = pa.concat_tables(parts)
    order = np.lexsort((np.concatenate(ranks), -np.asarray(seg["q"], dtype=np.int64)))
    lens = np.asarray(seg["n"], dtype=np.int64)[order]
    n_adm = len(order)
    if budget is not None:
        n_adm = int(np.searchsorted(np.cumsum(lens), budget, side="right"))
    return seg.take(pa.array(order[:n_adm], pa.int64())), int(lens[:n_adm].sum())


def _saat_range(
    adm: pa.Table, qtf: dict[str, int], lo: int, hi: int,
    exclude: np.ndarray | None, doc_key: np.ndarray | None, k: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The one SAAT accumulation kernel, over the docID range [lo, hi):
    each admitted segment adds ``q * qtf`` to the integer accumulators of
    its docs in range (one int64 scatter-add over every decoded posting),
    tombstoned docs (``exclude``, a global mask) drop out, and the local
    top-``k`` is taken by (score desc, tie asc), tie = ``doc_key[doc]``
    when given (a caller-stable numeric key — the SQL oracle's doc_id
    order), else the docID.  The whole index is the range [0, n_docs).
    -> (global doc ids, int64 scores)."""
    width = hi - lo
    if width <= 0 or adm.num_rows == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    lens = np.asarray(adm["n"], dtype=np.int64)
    ids = decode_concat_rows(adm["docs_enc"], lens, delta=True)
    weights = np.asarray(adm["q"], dtype=np.int64) * np.asarray(
        [qtf[t] for t in adm["term"].to_pylist()], dtype=np.int64)
    in_range = (ids >= lo) & (ids < hi)
    local = ids[in_range] - lo
    scores = np.zeros(width, dtype=np.int64)
    np.add.at(scores, local, np.repeat(weights, lens)[in_range])
    touched = np.zeros(width, dtype=bool)
    touched[local] = True
    if exclude is not None:
        touched &= ~exclude[lo:hi]
    cand = np.flatnonzero(touched)
    docs = cand + lo
    sel = np.lexsort((docs if doc_key is None else doc_key[docs], -scores[cand]))
    if k is not None:
        sel = sel[:k]
    return docs[sel], scores[cand[sel]]


def saat_topk(
    impact_dir: str, keywords: list[tuple[str, int]], k: int | None = 10,
    budget: int | None = None, doc_key: np.ndarray | None = None,
    exclude: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Score-at-a-time retrieval over the impact-ordered index.

    Segments of the query's terms are processed in (q desc, term asc)
    order — each adds ``q * qtf`` to its docs' integer accumulators.  With
    ``budget`` (the anytime rho), a segment is processed only while the
    cumulative posting count stays <= budget; the rule is a deterministic
    prefix, so the DuckDB oracle reproduces it with a window cumsum.

    ``exclude``: boolean tombstone mask over internal docIDs (the
    IndexReader.deleted_mask() convention) — masked docs never reach the
    ranking, the same immediate-exclusion semantics every other scorer
    honors after a delete.

    -> (doc_ids, scores, postings_processed); ranking (score desc, doc
    asc), ties broken like every other scorer in the engine.
    """
    meta = read_impact_meta(impact_dir)
    qtf = _qtf_map(keywords)
    adm, processed = _admitted_segments(impact_dir, meta, list(qtf), budget)
    ids, scores = _saat_range(adm, qtf, 0, meta["n_docs"], exclude, doc_key, k)
    return ids, scores, processed


class ShardSaat:
    """Actor stage of doc-range-sharded SAAT: ``payload`` is ONE object-store
    ref to (admitted segments, qtf map, exclude, doc_key, k), fetched once
    per actor; every [lo, hi) shard handed in runs :func:`_saat_range`."""

    def __init__(self, payload):
        self.adm, self.qtf, self.exclude, self.doc_key, self.k = ray.get(payload)

    def __call__(self, batch: pa.Table) -> pa.Table:
        topic, doc_id, score = [], [], []
        for lo, hi in zip(batch["lo"].to_pylist(), batch["hi"].to_pylist()):
            ids, scores = _saat_range(
                self.adm, self.qtf, lo, hi, self.exclude, self.doc_key, self.k)
            topic.append(np.zeros(len(ids), np.int32))
            doc_id.append(ids)
            score.append(scores)
        return _topk_table(topic, doc_id, score, np.int64)


def saat_topk_sharded(
    impact_dir: str,
    keywords: list[tuple[str, int]],
    k: int = 10,
    budget: int | None = None,
    n_shards: int = 4,
    concurrency: int | tuple[int, int] = (1, 4),
    doc_key: np.ndarray | None = None,
    exclude: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Doc-range-sharded SAAT — the tier's 10^12-doc serving path,
    bit-identical to :func:`saat_topk` (tested), tombstone ``exclude``
    mask included.  The anytime admission rule is applied ONCE, globally,
    from segment (term, q, n) metadata — no payload decode — then each
    shard actor runs the same range kernel as :func:`saat_topk` over its
    docID range and emits its local top-k, through the same dispatch and
    driver merge as the BM25 shards (engine/sharded_search.py).  The
    driver merges k rows per shard — a reduction, not a score shuffle.
    A document's whole score lives in exactly one shard, so no
    partial-score combination is ever needed and bit-identity is
    structural.
    """
    meta = read_impact_meta(impact_dir)
    qtf = _qtf_map(keywords)
    adm, processed = _admitted_segments(impact_dir, meta, list(qtf), budget)
    empty = np.empty(0, np.int64), np.empty(0, np.int64), processed
    if adm.num_rows == 0:
        return empty
    bounds = np.linspace(0, meta["n_docs"], n_shards + 1).astype(np.int64).tolist()
    shards = [{"lo": lo, "hi": hi} for lo, hi in zip(bounds[:-1], bounds[1:])]
    # ship only the admitted segments to the actors, decoded there
    payload = ray.put((adm, qtf, exclude, doc_key, k))
    rows = run_shards(ShardSaat, shards, concurrency, payload=payload)
    if rows is None:  # every shard came back empty (e.g. all matches masked)
        return empty
    docs = np.asarray(rows["doc_id"], dtype=np.int64)
    _topic, docs, scores, _rank = merge_topk(
        np.asarray(rows["topic"]), docs, np.asarray(rows["score"], dtype=np.int64), k,
        tie=None if doc_key is None else doc_key[docs],
    )
    return docs, scores, processed


_VIOL_SENTINEL = "\x00struct"


def verify_impact_index(index_dir: str, impact_dir: str) -> dict:
    """fsck for the impact tier: re-derives every posting's quantized
    impact from the SOURCE index and verifies the segments carry exactly
    those assignments — plus the structural invariants (docIDs strictly
    ascending per segment, q in [1, Q], meta totals).

    Scale shape: per-batch (term, q) -> (count, sum_ids, sum_ids^2)
    checksum partials from BOTH sides (postings re-derivation, segment
    decode; the actual side negated), ONE groupby((term, q)) sum — any
    nonzero row is a divergence.  Checksums use wrapping int64 sums, and
    the zero rows are filtered out inside Ray, so the driver holds only
    violations.  Same role as engine/maintenance.fsck_index
    for the document-ordered index.
    """
    from ray.data.aggregate import Sum

    meta = read_impact_meta(impact_dir)
    stats = load_meta(os.path.join(index_dir, "stats.json"))
    n_docs, avgdl = stats["n_docs"], stats["avgdl"]
    k1, b = stats["bm25"]["k1"], stats["bm25"]["b"]
    q_span = meta["quant_levels"] - 1
    s_max = max(int(np.floor(np.sqrt(float(meta["max_micros"])))), 1)

    def _partials(terms_row, qs_row, ids, lens, sign):
        """(term, q, cnt, s1, s2) checksum rows for one batch, vectorized."""
        with np.errstate(over="ignore"):
            ids64 = ids.astype(np.int64)
            sq = ids64 * ids64  # wrapping checksum
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        cnt = lens.astype(np.int64)
        s1 = np.add.reduceat(ids64, starts) if len(ids64) else np.empty(0, np.int64)
        s2 = np.add.reduceat(sq, starts) if len(sq) else np.empty(0, np.int64)
        s1[cnt == 0] = 0
        s2[cnt == 0] = 0
        return pa.table({
            "term": pa.array(terms_row, pa.string()),
            "q": pa.array(qs_row, pa.int64()),
            "cnt": pa.array(sign * cnt),
            "s1": pa.array(sign * s1),
            "s2": pa.array(sign * s2),
        })

    def expected(batch: pa.Table) -> pa.Table:
        ids, micros, lens = _block_impacts_micros(
            batch, index_dir, n_docs, avgdl, k1, b)
        s = np.floor(np.sqrt(micros.astype(np.float64))).astype(np.int64)
        qs = 1 + s * q_span // s_max
        row_idx = np.repeat(np.arange(len(lens)), lens)
        order = np.lexsort((ids, qs, row_idx))
        r_s, q_s, id_s = row_idx[order], qs[order], ids[order]
        if len(id_s) == 0:
            return pa.table({
                "term": pa.array([], pa.string()), "q": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()), "s1": pa.array([], pa.int64()),
                "s2": pa.array([], pa.int64()),
            })
        brk = np.flatnonzero((r_s[1:] != r_s[:-1]) | (q_s[1:] != q_s[:-1]))
        starts = np.concatenate(([0], brk + 1))
        counts = np.diff(np.concatenate((starts, [len(id_s)])))
        terms_row = pc.take(
            batch["term"], pa.array(r_s[starts], pa.int64())
        ).to_pylist()
        return _partials(terms_row, q_s[starts], id_s, counts, sign=1)

    def actual(batch: pa.Table) -> pa.Table:
        lens = np.asarray(batch["n"], dtype=np.int64)
        flat = decode_concat_rows(batch["docs_enc"], lens, delta=True)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        qs_row = np.asarray(batch["q"], dtype=np.int64)
        # structural invariants, vectorized: strictly-ascending docIDs
        # inside each segment; q within [1, Q]
        viol = int(((qs_row < 1) | (qs_row > q_span + 1)).sum())
        if len(flat):
            row_of = np.repeat(np.arange(len(lens)), lens)
            d = np.diff(flat)
            same_row = row_of[1:] == row_of[:-1]
            viol += int((same_row & (d <= 0)).sum())
        out = _partials(batch["term"].to_pylist(), qs_row, flat, lens, sign=-1)
        if viol:
            out = pa.concat_tables([out, pa.table({
                "term": pa.array([_VIOL_SENTINEL], pa.string()),
                "q": pa.array([0], pa.int64()),
                "cnt": pa.array([viol], pa.int64()),
                "s1": pa.array([0], pa.int64()),
                "s2": pa.array([0], pa.int64()),
            })])
        return out

    import ray.data

    exp_ds = ray.data.read_parquet(
        os.path.join(index_dir, "postings"), columns=_POSTING_COLS
    ).map_batches(expected, batch_format="pyarrow")
    act_ds = ray.data.read_parquet(
        os.path.join(impact_dir, "segments"),
        columns=_SEG_COLS,
    ).map_batches(actual, batch_format="pyarrow")
    def nonzero(batch: pa.Table) -> pa.Table:
        # the sentinel row's cnt is a positive violation count, so it stays
        return batch.filter(pc.or_(
            pc.or_(pc.not_equal(batch["cnt"], 0), pc.not_equal(batch["s1"], 0)),
            pc.not_equal(batch["s2"], 0),
        ))

    # only divergent (term, q) rows and the sentinel reach the driver
    bad = (
        exp_ds.union(act_ds)
        .groupby(["term", "q"])
        .aggregate(Sum("cnt", alias_name="cnt"),
                   Sum("s1", alias_name="s1"),
                   Sum("s2", alias_name="s2"))
        .map_batches(nonzero, batch_format="pyarrow")
        .to_pandas()
    )
    struct_violations = mismatched = 0
    if len(bad):  # an empty dataset's to_pandas() has no columns at all
        sent = bad["term"] == _VIOL_SENTINEL
        struct_violations = int(bad.loc[sent, "cnt"].sum())
        mismatched = int((~sent).sum())
    seg_meta = pads.dataset(os.path.join(impact_dir, "segments")).to_table(
        columns=["n"]
    )
    n_segments = seg_meta.num_rows
    n_postings = int(pc.sum(seg_meta["n"]).as_py() or 0)
    meta_violations = int(n_segments != meta["n_segments"]) + int(
        n_postings != meta["n_postings"]
    ) + int(n_postings != stats["n_postings"])
    return {
        "violations": struct_violations + mismatched + meta_violations,
        "struct_violations": struct_violations,
        "checksum_mismatches": mismatched,
        "meta_violations": meta_violations,
        "n_segments": n_segments,
        "n_postings": n_postings,
    }


def saat_rerank(
    impact_dir: str,
    reader,
    keywords: list[tuple[str, int]],
    k: int = 10,
    n_candidates: int = 100,
    budget: int | None = None,
    scores_fn=None,
    doc_key: np.ndarray | None = None,
    exclude: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The two-tier serving pipeline impact indexes exist for: the cheap
    quantized SAAT tier (optionally anytime-budgeted) nominates
    ``n_candidates`` docs, then the EXACT scorer re-scores only those and
    produces the final top-k.  Per-query cost is bounded by
    budget + n_candidates regardless of posting-list length — the
    tail-latency contract of a 10^12-doc serving tier — while the final
    ordering carries exact BM25 semantics.

    ``scores_fn(reader, keywords) -> (doc_ids, scores)`` is the exact
    tier (default: pipelines.bm25_scores_f64, which scores every SAAT
    candidate); candidates a custom exact tier does not score are
    dropped from the result, so every returned score is an exact one.

    -> (doc_ids, rerank_scores_f64, postings_processed); ranking
    (exact score desc, doc asc) over the candidate set only.
    """
    if scores_fn is None:
        from ..pipelines import bm25_scores_f64

        scores_fn = bm25_scores_f64
    cand_ids, _cand_q, processed = saat_topk(
        impact_dir, keywords, k=n_candidates, budget=budget, doc_key=doc_key,
        exclude=exclude,
    )
    if len(cand_ids) == 0:
        return np.empty(0, np.int64), np.empty(0, np.float64), processed
    exact_ids, exact_scores = scores_fn(reader, keywords)
    score_of = dict(zip(exact_ids.tolist(), exact_scores.tolist()))
    cand_ids = np.asarray([d for d in cand_ids.tolist() if d in score_of], dtype=np.int64)
    cand_scores = np.asarray([score_of[d] for d in cand_ids.tolist()], dtype=np.float64)
    tie = cand_ids if doc_key is None else doc_key[cand_ids]
    order = np.lexsort((tie, -cand_scores))[:k]
    return cand_ids[order], cand_scores[order], processed
