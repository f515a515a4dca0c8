"""Query-time scoring: vectorized TAAT scorers + MaxScore DAAT.

Scorer formulas transcribe the reference exactly (see oracle/scorers.py for
the file:line map of every quirk — integer-division TF-IDF idf, negative
BM25 idf, unused ln(1+tf), float32 per-(term,doc) casts and float32
accumulation).  ``_TermWeight`` is the one copy of the BM25 / TF-IDF idf and
per-posting contribution expressions; TAAT, MaxScore, ranked AND and the
doc-range-sharded scorer all call it.  TAAT accumulates into a dense float32
array (docIDs are dense by construction) with per-term contributions added
in QUERY ORDER — the same float32 operation order as the oracle's dict
accumulation, so scores are bit-identical, not just close.

MaxScore (Turtle & Flood 1995) is the dynamic-pruning path: document-at-a-
time traversal over block-skipping cursors with a bounded top-k heap;
per-term upper bounds come from the idf-independent block metadata
(ub_tfn/lb_tfn/ub_logtf) times the query factor.  It only prunes documents
that cannot enter the top-k and re-folds each candidate's score in query
order, so the returned top-k set, scores, and tie-broken ranking (ascending
docID on equal scores) match exhaustive TAAT exactly (property-tested in
tests/test_query.py).

BM25-ADPT's k1 fit (``_getk1``) is the engine's own vectorized copy of the
oracle's scalar grid search; the engine no longer imports the oracle, which
stays the check (tests/test_query.py compares them bit for bit).  The 23
squared-residual rows are summed left to right with ``np.add.accumulate``
because ``np.sum`` sums pairwise, which rounds differently in the last bit
from the oracle's ``sq +=`` loop.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..config import BM25Params
from .index_reader import Block, IndexReader, TermPostings

F32 = np.float32
# Safety margin added to float64 upper bounds before pruning against the
# float32 threshold (loosens pruning; never affects correctness).
_EPS = 1e-3
# Max docs per vectorized MaxScore window (scratch stays in cache; large
# enough to amortize per-window numpy overhead across blocks).
_WINDOW_CAP = 8192


def bm25_term(idf, tf, dl, avgdl: float, k1, b, qterm=1.0):
    """The one BM25 per-posting expression,

        idf * (tf*(k1+1)) / (tf + k1*(1-b+b*dl/avgdl)) * qterm

    in the oracle's operation order, float64 throughout.  Every argument
    broadcasts, so the same expression serves one term's postings, a whole
    batch of terms (per-posting idf) and a (config, posting) grid of
    (k1, b).  Callers bring their own idf: ``math.log`` and ``np.log``
    round differently in the last bit on some inputs, so each path keeps
    the log its oracle uses and only the arithmetic after idf is shared."""
    return idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * (dl / avgdl))) * qterm


class _TermWeight:
    """One query term's idf and query factor, and its float32 per-posting
    contribution: ``bm25_term`` cast to float32, so every caller is
    bit-identical to the oracle.  idf stays ``math.log`` here because the
    oracle uses it; ``np.log`` (the float64 twins' log) differs from it in
    the last bit on 5,090 of the 20,999 BM25 idf inputs of an N = 20,999
    corpus (numpy 1.26 SIMD log on an AVX-512 x86-64 host).  TF-IDF
    ignores qtf and document length, as the reference does (``params``
    may be None)."""

    __slots__ = ("kind", "idf", "qterm", "params", "avgdl")

    def __init__(self, kind: str, n_docs: int, df: int, qtf: int,
                 params: BM25Params | None, avgdl: float):
        self.kind = kind
        self.params = params
        self.avgdl = avgdl
        if kind == "tfidf":
            self.idf = math.log(n_docs // df)  # reference integer-division quirk
            self.qterm = 1.0
        elif kind == "bm25":
            self.idf = math.log((n_docs - df + 0.5) / (df + 0.5))
            self.qterm = ((params.k3 + 1) * qtf) / (params.k3 + qtf)
        else:
            raise ValueError(f"unknown scoring kind {kind!r} (bm25/tfidf)")

    def contrib(self, tfs: np.ndarray, dls: np.ndarray) -> np.ndarray:
        if self.kind == "tfidf":
            return (np.log1p(tfs) * self.idf).astype(np.float32)
        return bm25_term(
            self.idf, tfs, dls, self.avgdl, self.params.k1, self.params.b, self.qterm
        ).astype(np.float32)

    def block_bound(self, blk: Block) -> float:
        # stored tfn = tf/(tf + k1*norm); BM25 contribution = idf*(k1+1)*tfn*qterm.
        # For negative idf the *least* tfn gives the largest (least negative)
        # contribution, hence lb_tfn.
        if self.kind == "tfidf":
            return self.idf * blk.ub_logtf
        tfn = blk.ub_tfn if self.idf > 0 else blk.lb_tfn
        return self.idf * (self.params.k1 + 1) * tfn * self.qterm


# --------------------------------------------------------------------------
# TAAT (exhaustive) — the conformance baseline and the BM25-ADPT path
# --------------------------------------------------------------------------

def _topk_from_dense(scores: np.ndarray, touched: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    cand = np.flatnonzero(touched)
    if len(cand) == 0:
        return cand, scores[cand]
    s = scores[cand]
    order = np.lexsort((cand, -s.astype(np.float64)))[:k]
    return cand[order], s[order]


def _taat(
    reader: IndexReader, keywords: list[tuple[str, int]], kind: str,
    params: BM25Params | None, k: int, exclude: np.ndarray | None = None,
    width: int | None = None, adpt_params: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive TAAT for ``kind`` in {bm25, tfidf, bm25adpt} into a dense
    accumulator of ``width`` doc ordinals (default ``reader.n_docs``; a
    doc-range shard passes its own range while idf keeps the global N).
    bm25adpt takes each term's (k1, IGs[1]) from ``adpt_params`` when given
    (the sharded phase-1 result), else from the term's own cd counts."""
    n = reader.n_docs
    avgdl = reader.avgdl
    width = n if width is None else width
    scores = np.zeros(width, dtype=np.float32)
    touched = np.zeros(width, dtype=bool)
    for term, qtf in keywords:
        tp = reader.postings(term)
        if tp is None:
            continue
        ids, tfs, dls = tp.arrays()
        if kind == "bm25adpt":
            cds = adpt_cds(tfs, dls, params.b, avgdl)
            if adpt_params is not None:
                k1, ig1 = adpt_params[term]
            else:
                k1, ig1 = adpt_term_params(n, tp.df, adpt_cd_counts(cds))
            contrib = adpt_contrib(cds, qtf, k1, ig1)
        else:
            contrib = _TermWeight(kind, n, tp.df, qtf, params, avgdl).contrib(tfs, dls)
        scores[ids] = scores[ids] + contrib
        touched[ids] = True
    if exclude is not None:
        touched &= ~exclude
    return _topk_from_dense(scores, touched, k)


def taat_bm25(
    reader: IndexReader, keywords: list[tuple[str, int]], params: BM25Params, k: int = 1000,
    exclude: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    return _taat(reader, keywords, "bm25", params, k, exclude)


def taat_tfidf(
    reader: IndexReader, keywords: list[tuple[str, int]], k: int = 1000,
    exclude: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    return _taat(reader, keywords, "tfidf", None, k, exclude)


def taat_bm25_adpt(
    reader: IndexReader, keywords: list[tuple[str, int]], params: BM25Params, k: int = 1000,
    exclude: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    return _taat(reader, keywords, "bm25adpt", params, k, exclude)


def adpt_cds(tfs: np.ndarray, dls: np.ndarray, b: float, avgdl: float) -> np.ndarray:
    """Per-posting length-normalised tf (cd, float32) that BM25-ADPT's IG
    curve and contributions are computed from."""
    return (tfs / (1 - b + b * dls / avgdl)).astype(np.float32)


def adpt_cd_counts(cds: np.ndarray) -> np.ndarray:
    """counts[i] = #postings with cd >= (i+2) - 0.5, for t = 2..101.

    Mergeable across doc-range shards by plain addition — the basis of the
    sharded BM25-ADPT two-phase protocol."""
    cds_sorted = np.sort(np.asarray(cds, dtype=np.float64))
    thresholds = np.arange(2, 102, dtype=np.float64) - 0.5
    return (len(cds_sorted) - np.searchsorted(cds_sorted, thresholds, side="left")).astype(np.int64)


def adpt_term_params(n_docs: int, df: int, counts: np.ndarray) -> tuple[np.float32, np.float32]:
    """(k1, IGs[1]) for one term from its GLOBAL cd counts — the IG curve
    and the k1 grid search (BM25ADPT.cs:44-168; float semantics identical
    to the oracle, which is tested against it)."""
    igs = adpt_igs(n_docs, df, counts)
    return _getk1(igs), igs[1]


def adpt_igs(n_docs: int, df: int, counts: np.ndarray) -> np.ndarray:
    """One term's float32 IG curve from its GLOBAL cd counts, with the
    reference's truncation quirk (BM25ADPT.cs:44-140)."""

    def getdft(t: int) -> float:
        # The C# getdft returns float (float32): N/df/counts round through
        # float32 before the double-precision log math below.  Identical for
        # values < 2^24; matters for web-scale corpora (ADVICE r1).  Note
        # C# Math.Log(x, 2) = ln(x)/ln(2) can still differ from math.log2 by
        # 1 ulp — the bit-exactness claim is scoped to inputs where the two
        # agree (all tested corpora; divergence probability ~1e-16/term).
        if t == 0:
            return float(F32(n_docs))
        if t == 1:
            return float(F32(df))
        return float(F32(counts[t - 2]))

    def ig(t: int) -> np.float32:
        return F32(
            -math.log2((df + 0.5) / (n_docs + 1))
            + math.log2((getdft(t + 1) + 0.5) / (getdft(t) + 1))
        )

    igs = np.zeros(100, dtype=np.float32)
    igs[0] = ig(0)
    for i in range(1, 100):
        igs[i] = ig(i)
        if igs[i - 1] > igs[i]:
            trunc = np.zeros(i + 1, dtype=np.float32)
            trunc[:i] = igs[:i]
            igs = trunc
            break
    return igs


def adpt_contrib(cds: np.ndarray, qtf: int, k1: np.float32, ig1: np.float32) -> np.ndarray:
    """Per-posting float32 contributions qtf * ck * IGs[1] (BM25ADPT.cs:79-95)."""
    with np.errstate(all="ignore"):
        ck = (cds * F32(float(k1) + 1)) / (F32(k1) + cds)
        return (F32(qtf) * ck * ig1).astype(np.float32)


def _k1_grid() -> np.ndarray:
    """The oracle's k1 candidates, drift included: ``j += 0.1`` from 0.2
    while ``j <= 2.5`` (BM25ADPT.cs:141-168)."""
    grid, j = [], 0.2
    while j <= 2.5:
        grid.append(j)
        j += 0.1
    return np.asarray(grid, dtype=np.float64)


_K1_GRID = _k1_grid()
# Relative gap under which two grid rows count as tied.  ``x * x`` and the
# oracle's ``x ** 2`` (libm pow, within 0.52 ulp) differ by at most 1 ulp
# per square, so two left-to-right sums of <= 100 squares differ by well
# under 1e-13 relative; rows farther apart than this rank the same way in
# both, and nearer ones are re-summed with ``** 2``.
_K1_TIE_RTOL = 1e-12


def _getk1(igs: np.ndarray) -> np.float32:
    """BM25-ADPT's k1: the grid j minimising sum_t (IGs[t]/IGs[1] -
    (j+1)t/(j+t))^2, first strict minimum (NaN never wins, 0.2 when no row
    is finite).  Bit-identical to ``oracle.scorers._getk1``: the float32
    ratio, the residuals and the left-to-right sums are the oracle's own
    IEEE operations, vectorized over the (grid, t) plane."""
    igs = np.asarray(igs, dtype=np.float32)
    with np.errstate(all="ignore"):
        ratio = (igs / igs[1]).astype(np.float64)
    t = np.arange(len(igs), dtype=np.float64)
    j = _K1_GRID[:, None]
    resid = ratio - ((j + 1) * t) / (j + t)
    sq = np.add.accumulate(resid * resid, axis=1)[:, -1]
    finite = np.isfinite(sq)
    if not finite.any():
        return F32(_K1_GRID[0])
    best = sq[finite].min()
    near = np.flatnonzero(finite & (sq <= best + best * _K1_TIE_RTOL))
    if len(near) > 1:  # near-tie: re-sum those rows exactly as the oracle
        exact = []
        for r in near.tolist():
            acc = 0.0
            for v in resid[r].tolist():
                acc += v ** 2
            exact.append(acc)
        return F32(_K1_GRID[near[int(np.argmin(exact))]])
    return F32(_K1_GRID[near[0]])


# --------------------------------------------------------------------------
# Block-skipping cursors + MaxScore DAAT
# --------------------------------------------------------------------------

class _Cursor:
    __slots__ = ("qpos", "w", "blocks", "bi", "pos", "ids", "tfs", "dls", "ub", "cur")

    def __init__(self, tp: TermPostings, qpos: int, w: _TermWeight):
        self.qpos = qpos
        self.w = w
        self.blocks = tp.blocks
        self.bi = 0
        self.pos = 0
        self.ids = self.tfs = self.dls = None
        # term-level upper bound (clamped >= 0 so the non-essential prefix
        # sums are monotone)
        self.ub = max(0.0, max(w.block_bound(b) for b in self.blocks)) + _EPS
        self._load_block()

    def _load_block(self):
        if self.bi < len(self.blocks):
            self.ids, self.tfs, self.dls = self.blocks[self.bi].decode()
            self.pos = 0
            self.cur = int(self.ids[0])
        else:
            self.ids = None
            self.cur = -1  # exhausted sentinel handled by caller

    @property
    def exhausted(self) -> bool:
        return self.ids is None

    def advance_to(self, target: int) -> None:
        """Move to the first posting with doc >= target (block-skipping)."""
        while self.bi < len(self.blocks) and self.blocks[self.bi].last_doc < target:
            self.bi += 1
            self.ids = None
        if self.bi >= len(self.blocks):
            self.ids = None
            return
        if self.ids is None:
            self._load_block()
        pos = int(np.searchsorted(self.ids, target, side="left"))
        if pos >= len(self.ids):
            self.bi += 1
            self._load_block()
        else:
            self.pos = pos
            self.cur = int(self.ids[pos])

    def gather_range(self, w_end: int) -> tuple[np.ndarray, np.ndarray]:
        """Consume all postings with doc < w_end (possibly spanning blocks);
        returns (doc_ids, float32 contributions) and leaves the cursor on
        the first posting >= w_end."""
        ids_parts: list[np.ndarray] = []
        contrib_parts: list[np.ndarray] = []
        while not self.exhausted and self.cur < w_end:
            hi = int(np.searchsorted(self.ids, w_end, side="left"))
            ids_parts.append(self.ids[self.pos : hi])
            contrib_parts.append(self.slice_contrib(self.pos, hi))
            if hi >= len(self.ids):
                self.bi += 1
                self._load_block()
            else:
                self.pos = hi
                self.cur = int(self.ids[hi])
                break
        if not ids_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        if len(ids_parts) == 1:
            return ids_parts[0], contrib_parts[0]
        return np.concatenate(ids_parts), np.concatenate(contrib_parts)

    def slice_contrib(self, lo: int, hi: int) -> np.ndarray:
        """Float32 contributions for postings [lo, hi) of the current block."""
        return self.w.contrib(self.tfs[lo:hi], self.dls[lo:hi])


def _build_cursors(
    reader: IndexReader, keywords: list[tuple[str, int]], params: BM25Params, kind: str
) -> list[_Cursor]:
    """One cursor per present term, numbered in query order."""
    cursors: list[_Cursor] = []
    for term, qtf in keywords:
        tp = reader.postings(term)
        if tp is None or not tp.blocks:
            continue
        w = _TermWeight(kind, reader.n_docs, tp.df, qtf, params, reader.avgdl)
        cursors.append(_Cursor(tp, len(cursors), w))
    return cursors


def conjunctive_bm25(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    params: BM25Params,
    k: int = 1000,
) -> tuple[np.ndarray, np.ndarray]:
    """Ranked AND retrieval: BM25 top-k over docs containing ALL query terms.

    The candidate set comes from the block-skipping boolean AND
    (engine/boolean.py — rarest-term-first, tombstone-aware), then each
    term's contribution is gathered BLOCK-GRANULARLY: only posting blocks
    that actually contain a matched doc are decoded, so a head term costs
    O(matched blocks), not O(postings).  Scores are accumulated float32 in
    query order — bit-identical to the exhaustive TAAT score of the same
    docs (tested).  Any query term absent from the index yields an empty
    result (conjunctive semantics, unlike J1's silent drop)."""
    from .boolean import boolean_and

    docs = boolean_and(reader, [t for t, _ in keywords])
    if len(docs) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
    scores = np.zeros(len(docs), dtype=np.float32)
    for term, qtf in keywords:
        tp = reader.postings(term)
        w = _TermWeight("bm25", reader.n_docs, tp.df, qtf, params, reader.avgdl)
        for blk in tp.blocks:
            lo = int(np.searchsorted(docs, blk.first_doc))
            hi = int(np.searchsorted(docs, blk.last_doc, side="right"))
            if lo == hi:
                continue  # no matched doc in this block: never decoded
            bids, btfs, bdls = blk.decode()
            pos = np.searchsorted(bids, docs[lo:hi])
            scores[lo:hi] = scores[lo:hi] + w.contrib(btfs[pos], bdls[pos])
    order = np.lexsort((docs, -scores.astype(np.float64)))[:k]
    return docs[order], scores[order]


def maxscore_topk(
    reader: IndexReader,
    keywords: list[tuple[str, int]],
    params: BM25Params,
    k: int = 1000,
    kind: str = "bm25",
    exclude: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """MaxScore top-k, bit-identical to TAAT (tested).

    Live terms are sorted by ascending term upper bound and split into a
    NON-ESSENTIAL prefix (cumulative ub <= heap threshold) and an ESSENTIAL
    suffix.  Only essential cursors enumerate documents (vectorized
    windows); non-essential cursors are probed per surviving candidate in
    descending-ub order with early abandon on the remaining-ub bound.  Docs
    matched only by non-essential terms are skipped outright: per-term ubs
    carry +_EPS, so such a doc's true score is STRICTLY below the threshold
    and can never tie into the top-k.

    A global ascending ``frontier`` keeps enumeration strictly doc-ordered
    across partition changes (a probed-but-not-consumed non-essential posting
    below the frontier must never re-surface when its term turns essential —
    that would double-insert the doc), which also makes heap tie behavior
    (first k in doc order among equal scores) identical to TAAT's
    ascending-docID tie-break.

    Exact scoring: a candidate's score is re-folded in float32 over its
    matching terms in QUERY order (the same add order as the TAAT dense
    accumulator), so scores are bit-identical, not just rank-identical.

    ``exclude``: boolean mask of tombstoned doc ordinals.  Bounds computed
    over all postings remain valid upper bounds for the live docs (removing
    docs can only lower a term's max), and dead docs are dropped before they
    can enter the heap — results are bit-identical to TAAT with the same
    mask (tested).
    """
    cursors = _build_cursors(reader, keywords, params, kind)

    heap: list[tuple[float, int]] = []  # (score, -doc) min-heap; weakest first

    def threshold() -> float:
        return heap[0][0] if len(heap) == k else -math.inf

    frontier = 0
    live = [c for c in cursors if not c.exhausted]
    while live:
        # enforce the global frontier: postings below it were either scored
        # exactly or proven strictly below the threshold in a prior window
        for c in live:
            if c.cur < frontier:
                c.advance_to(frontier)
        live = [c for c in live if not c.exhausted]
        if not live:
            break
        live.sort(key=lambda c: c.ub)
        th = threshold()
        acc = 0.0
        split = 0
        while split < len(live) and acc + live[split].ub <= th:
            acc += live[split].ub
            split += 1
        if split == len(live):
            break  # all terms together cannot beat the threshold
        ness_desc = live[:split][::-1]  # probe order: descending ub
        ess = live[split:]
        ne_total = acc

        w_start = min(c.cur for c in ess)
        w_end = w_start + _WINDOW_CAP
        width = w_end - w_start
        scratch = np.zeros(width, dtype=np.float32)
        touched = np.zeros(width, dtype=bool)
        # keep per-term window postings for the exact per-candidate re-fold
        parts: list[tuple[int, np.ndarray, np.ndarray]] = []
        for c in sorted(ess, key=lambda c: c.qpos):
            ids, contrib = c.gather_range(w_end)
            rel = ids - w_start
            scratch[rel] = scratch[rel] + contrib
            touched[rel] = True
            parts.append((c.qpos, ids, contrib))
        cand = np.flatnonzero(touched)
        if exclude is not None and len(cand):
            cand = cand[~exclude[w_start + cand]]
        cand_scores = scratch[cand]
        if len(heap) == k:
            # conservative bulk pre-filter; +_EPS covers the float32 add-
            # reordering slack when a non-essential contribution interleaves
            # into the query-order fold
            keep = cand_scores.astype(np.float64) + ne_total + _EPS > th
            cand, cand_scores = cand[keep], cand_scores[keep]

        for rel, ess_score in zip(cand.tolist(), cand_scores.tolist()):
            doc = w_start + rel
            th_now = threshold()
            partial = float(ess_score)
            remaining = ne_total
            hits: list[tuple[int, float]] = []
            abandoned = False
            for c in ness_desc:
                if partial + remaining + _EPS <= th_now:
                    abandoned = True
                    break
                remaining -= c.ub
                if c.exhausted:
                    continue
                if c.cur < doc:
                    c.advance_to(doc)  # candidates ascend, so this is monotone
                if not c.exhausted and c.cur == doc:
                    cv = float(c.slice_contrib(c.pos, c.pos + 1)[0])
                    partial += cv
                    hits.append((c.qpos, cv))
            if abandoned:
                continue
            if hits:
                # exact score: fold ALL matching contributions in query order
                # (float64 intermediate of two float32 values rounds to the
                # same float32 as a native float32 add)
                for qp, ids, contrib in parts:
                    pos = int(np.searchsorted(ids, doc))
                    if pos < len(ids) and ids[pos] == doc:
                        hits.append((qp, float(contrib[pos])))
                hits.sort()
                s = np.float32(0.0)
                for _qp, cv in hits:
                    s = np.float32(s + cv)
                score = float(s)
            else:
                score = float(ess_score)
            if len(heap) < k:
                heapq.heappush(heap, (score, -doc))
            elif score > heap[0][0]:
                heapq.heapreplace(heap, (score, -doc))

        frontier = w_end
        live = [c for c in live if not c.exhausted]

    # (score desc, docID asc) — the TAAT tie-break
    ranked = sorted(heap, key=lambda p: (-p[0], -p[1]))
    ids = np.asarray([-d for _s, d in ranked], dtype=np.int64)
    scores = np.asarray([s for s, _d in ranked], dtype=np.float32)
    return ids, scores
