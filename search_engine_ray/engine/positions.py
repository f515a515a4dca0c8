"""Positional sidecar index + phrase queries.

The reference engine stores no positions (its posting entry is
``{docId, tf}``, /root/reference/src/Indexing/PostingEntry.cs:3-13), so
phrase queries are a beyond-reference capability.  To keep the
golden-pinned main index format untouched, positions live in a SIDECAR
directory built by its own resumable fragment pipeline:

    positions/part-NNNNNN.parquet      one file per input fragment,
                                       term-sorted rows
    positions_manifest/frag-*.json     per-fragment commit markers (resume)
    positions_stats.json               build options + counters

Row layout per (term, fragment): the same compressed-triple shape as the
main segments —

    docs_enc : delta+VByte docIDs (ascending within the fragment),
    npos_enc : VByte occurrence count per doc,
    pos_enc  : delta+VByte token ordinals, the gap stream restarting at
               each doc (positions are ordinals within the KEPT token
               stream, i.e. after casefold/tag/stopword/stem — matching
               doc_len semantics, so a phrase with a stopword inside
               matches across the gap the same way the query path drops
               stopwords silently).

Scale shape: no merge pass — files stay per-fragment, rows term-sorted so
Parquet row-group stats prune reads to the queried terms.  A phrase query
therefore reads O(df) bytes per term regardless of corpus size.  (If
fragment-file COUNT itself becomes the bottleneck at 10^12 docs, run the
same (bucket, shard) groupby merge the main index uses; the row layout
already concatenates.)

Phrase matching is one vectorized sorted-set intersection over composite
``doc_id * 2^21 + position`` keys — no per-doc Python loop.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import IndexOptions
from ..text.tokenizer import normalize_query_word
from ..text.vectorized import tokenize_batch
from .codec import delta_decode, encode_rows, load_meta, vbyte_decode
from .reader import Fragment, plan_fragments, read_fragment
from .segments import _atomic_write_parquet

POSITIONS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("frag_id", pa.int32()),
        ("df_local", pa.int32()),
        ("docs_enc", pa.binary()),
        ("npos_enc", pa.binary()),
        ("pos_enc", pa.binary()),
    ]
)

# composite key = doc_id << _POS_BITS | position; docs up to 2^42, docs
# longer than 2^21 kept tokens refuse loudly (nothing silently truncates)
_POS_BITS = 21
_POS_LIMIT = 1 << _POS_BITS


def build_fragment_positions(
    ids: np.ndarray,
    texts: pa.Array,
    frag_id: int,
    options: IndexOptions,
) -> pa.Table:
    """One fragment's positional rows (pure function, fully vectorized).

    ``ids`` are the per-row global doc identifiers (strictly ascending —
    either ``base + row_index`` ordinals or an integer id column)."""
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) > 1 and (np.diff(ids) <= 0).any():
        raise ValueError("positional ids must be strictly ascending within a fragment")
    tb = tokenize_batch(texts, options)
    total = len(tb.term_codes)
    if total == 0:
        return POSITIONS_SCHEMA.empty_table()
    if int(tb.doc_lens.max()) >= _POS_LIMIT:
        raise ValueError(
            f"a document has >= 2^{_POS_BITS} kept tokens; raise _POS_BITS "
            "before indexing positions for it"
        )

    # kept-token ordinal within each doc (doc_idx is non-decreasing)
    doc_starts = np.concatenate(([0], np.cumsum(tb.doc_lens)[:-1]))
    pos = np.arange(total, dtype=np.int64) - np.repeat(doc_starts, tb.doc_lens)

    # (term, doc, pos) sorted -> per-(term,doc) position runs
    order = np.lexsort((pos, tb.doc_idx, tb.term_codes))
    t_s = tb.term_codes[order]
    d_s = tb.doc_idx[order]
    p_s = pos[order]

    pair_change = np.empty(total, dtype=bool)
    pair_change[0] = True
    np.logical_or(t_s[1:] != t_s[:-1], d_s[1:] != d_s[:-1], out=pair_change[1:])
    pair_starts = np.flatnonzero(pair_change)
    npos = np.diff(np.append(pair_starts, total)).astype(np.int64)
    pair_term = t_s[pair_starts]
    pair_doc = ids[d_s[pair_starts]]

    term_change = np.empty(len(pair_term), dtype=bool)
    term_change[0] = True
    np.not_equal(pair_term[1:], pair_term[:-1], out=term_change[1:])
    term_starts = np.flatnonzero(term_change)  # indices into pairs
    df_local = np.diff(np.append(term_starts, len(pair_term))).astype(np.int32)

    # docs: delta restarting per term
    docs_enc = encode_rows(pair_doc, term_starts, delta=True)

    npos_enc = encode_rows(npos, term_starts, delta=False)

    # positions: delta restarting per (term, doc) PAIR but sliced per TERM —
    # the gap stream is precomputed here and encoded non-delta, because the
    # cell boundary (term) is coarser than the delta restart (pair)
    pos_gaps = p_s.copy()
    pos_gaps[1:] -= p_s[:-1]
    pos_gaps[pair_starts] = p_s[pair_starts]
    pos_term_starts = pair_starts[term_starts]  # value index of each term's first position
    pos_enc = encode_rows(pos_gaps, pos_term_starts, delta=False)

    return pa.table(
        {
            "term": pa.array(tb.terms[pair_term[term_starts]], pa.string()),
            "frag_id": pa.array(np.full(len(term_starts), frag_id, dtype=np.int32)),
            "df_local": pa.array(df_local),
            "docs_enc": docs_enc,
            "npos_enc": npos_enc,
            "pos_enc": pos_enc,
        },
        schema=POSITIONS_SCHEMA,
    )


class PositionBuilder:
    """Per-worker stage: fragment descriptors in -> manifest rows out
    (the SegmentBuilder shape, writing the sidecar layout)."""

    def __init__(
        self,
        index_dir: str,
        options: IndexOptions,
        source_column: str = "text",
        name_column: str = "doc_id",
    ):
        self.index_dir = index_dir
        self.options = options
        self.source_column = source_column
        self.name_column = name_column
        os.makedirs(os.path.join(index_dir, "positions"), exist_ok=True)
        os.makedirs(os.path.join(index_dir, "positions_manifest"), exist_ok=True)

    def _process_one(self, frag: Fragment) -> dict:
        mpath = os.path.join(
            self.index_dir, "positions_manifest", f"frag-{frag.frag_id:06d}.json"
        )
        if os.path.exists(mpath):
            with open(mpath) as fh:
                m = json.load(fh)
            m["skipped"] = True
            return m

        table = read_fragment(frag, columns=[self.name_column, self.source_column])
        col = table[self.source_column]
        if self.source_column == "html":
            from ..corpus.extract import extract_text_batch

            texts = extract_text_batch(col)
        else:
            texts = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        name_col = table[self.name_column]
        if pa.types.is_integer(name_col.type):
            # an integer id column (e.g. documents.doc_id) keys the sidecar
            # directly, so phrase results carry the CALLER's ids
            ids = np.asarray(name_col, dtype=np.int64)
        else:
            ids = frag.base + np.arange(table.num_rows, dtype=np.int64)
        rows = build_fragment_positions(ids, texts, frag.frag_id, self.options)
        path = os.path.join(self.index_dir, "positions", f"part-{frag.frag_id:06d}.parquet")
        nbytes = _atomic_write_parquet(rows, path)
        manifest = {
            "frag_id": frag.frag_id,
            "stage": "positions",
            "n_terms": int(rows.num_rows),
            "n_postings": int(pc.sum(rows["df_local"]).as_py() or 0),
            "bytes": int(nbytes),
            "input_lineage": f"{frag.path}#rg{frag.row_group}@{frag.base}",
            "skipped": False,
        }
        tmp = mpath + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(manifest, fh)
        os.replace(tmp, mpath)
        return manifest

    def __call__(self, batch: dict) -> pa.Table:
        rows = [
            self._process_one(
                Fragment(
                    frag_id=int(batch["frag_id"][i]),
                    path=str(batch["path"][i]),
                    row_group=int(batch["row_group"][i]),
                    base=int(batch["base"][i]),
                    n_rows=int(batch["n_rows"][i]),
                )
            )
            for i in range(len(batch["frag_id"]))
        ]
        return pa.Table.from_pylist(rows)


def build_position_index(
    input_path: str | list[str],
    index_dir: str,
    options: IndexOptions | None = None,
    source_column: str = "text",
    name_column: str = "doc_id",
) -> dict:
    """Build (or resume) the positional sidecar.  Fragment-parallel
    map_batches, per-fragment manifests for resume, no shuffle."""
    import ray.data

    options = options or IndexOptions()
    os.makedirs(index_dir, exist_ok=True)
    stats_path = os.path.join(index_dir, "positions_stats.json")
    fragments = plan_fragments(input_path)
    # a fragment-manifest resume appends to cells an earlier run wrote:
    # refuse them unless they are VByte
    marker = os.path.join(index_dir, "positions_codec.json")
    if os.path.exists(marker):
        load_meta(marker)
    if os.path.exists(stats_path):
        prior = load_meta(stats_path)
        if prior.get("n_fragments") == len(fragments) and prior.get(
            "options"
        ) == options.to_dict():
            return prior

    frag_ds = ray.data.from_items([f.to_dict() for f in fragments])
    manifests = frag_ds.map_batches(
        PositionBuilder,
        fn_constructor_kwargs=dict(
            index_dir=index_dir,
            options=options,
            source_column=source_column,
            name_column=name_column,
        ),
        batch_size=1,
        concurrency=(1, 8),
        num_cpus=1,
    ).to_pandas()

    # which id space the sidecar's doc_id column carries (the
    # _process_one branch): integer name columns key by the CALLER's
    # ids, everything else by build ordinals — recorded so composers
    # (engine/boolexpr phrase nodes) can translate without guessing
    import pyarrow.parquet as _pq

    name_type = _pq.read_schema(fragments[0].path).field(name_column).type
    stats = {
        "n_fragments": len(fragments),
        "codec": "vbyte",
        "n_terms_rows": int(manifests["n_terms"].sum()),
        "n_postings": int(manifests["n_postings"].sum()),
        "bytes": int(manifests["bytes"].sum()),
        "options": options.to_dict(),
        "id_space": "caller" if pa.types.is_integer(name_type) else "ordinal",
    }
    with open(stats_path + ".tmp", "w") as fh:
        json.dump(stats, fh)
    os.replace(stats_path + ".tmp", stats_path)
    return stats


def _sidecar_options(index_dir: str, options: IndexOptions | None) -> IndexOptions:
    """The caller's options, else the sidecar's build options — after
    refusing a sidecar whose stats record a codec other than VByte."""
    stats_path = os.path.join(index_dir, "positions_stats.json")
    if options is None or os.path.exists(stats_path):
        stats = load_meta(stats_path)
        options = options or IndexOptions.from_dict(stats["options"])
    return options


def _term_keys(tbl: pa.Table) -> np.ndarray:
    """Decode one term's rows into a SORTED composite key array
    ``doc_id << _POS_BITS | position``."""
    if tbl.num_rows == 0:
        return np.empty(0, dtype=np.int64)
    df_local = np.asarray(tbl["df_local"], dtype=np.int64)
    keys_parts: list[np.ndarray] = []
    # decode per row (a row = one fragment's postings for the term): the
    # loop is over FRAGMENT-rows of one term, not docs or positions
    for i in range(tbl.num_rows):
        nd = int(df_local[i])
        docs = delta_decode(tbl["docs_enc"][i].as_py(), nd)
        npos = vbyte_decode(tbl["npos_enc"][i].as_py(), nd).astype(np.int64)
        total = int(npos.sum())
        pgaps = vbyte_decode(tbl["pos_enc"][i].as_py(), total).astype(np.int64)
        cum = np.cumsum(pgaps)
        ends = np.cumsum(npos)
        bases = np.repeat(np.concatenate(([0], cum[ends[:-1] - 1])), npos)
        pos = cum - bases
        keys_parts.append((np.repeat(docs, npos) << _POS_BITS) | pos)
    keys = np.concatenate(keys_parts)
    keys.sort()
    return keys


def phrase_search(
    index_dir: str,
    phrase: list[str],
    options: IndexOptions | None = None,
    exclude_doc_ids=None,
) -> pa.Table:
    """Docs containing the exact phrase (consecutive kept-token ordinals),
    with occurrence counts.  Query words are normalized like the query
    path (casefold / stopword-drop / stem per the build options); a
    phrase reduced to < 1 term matches nothing.

    Returns ``(doc_id, n_matches)`` sorted by doc_id ascending."""
    import pyarrow.dataset as pads

    options = _sidecar_options(index_dir, options)

    terms = [
        normalize_query_word(
            w,
            case_folding=options.case_folding,
            remove_stopwords=options.remove_stopwords,
            stemming=options.stemming,
        )
        for w in phrase
    ]
    terms = [t for t in terms if t]  # stopwords dropped silently (J1 semantics)
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "n_matches": pa.array([], pa.int64())}
    )
    if not terms:
        return empty

    dset = pads.dataset(os.path.join(index_dir, "positions"))
    tbl = dset.to_table(filter=pc.field("term").isin(sorted(set(terms))))

    per_term: dict[str, np.ndarray] = {}
    for t in set(terms):
        sub = tbl.filter(pc.equal(tbl["term"], t))
        per_term[t] = _term_keys(sub)

    # intersect composite keys: candidate = positions where the phrase STARTS
    cand = per_term[terms[0]]
    for i, t in enumerate(terms[1:], start=1):
        if cand.size == 0:
            return empty
        shifted = per_term[t] - i  # same doc iff position >= i, guard below
        ok = (per_term[t] & (_POS_LIMIT - 1)) >= i
        cand = np.intersect1d(cand, shifted[ok], assume_unique=True)
    if cand.size == 0:
        return empty
    docs = cand >> _POS_BITS
    uniq, counts = np.unique(docs, return_counts=True)
    if exclude_doc_ids is not None and len(uniq):
        # the positions sidecar is a separate artifact with no tombstone
        # file of its own — callers holding a tombstoned MAIN index pass
        # its deleted doc ids here (or rebuild the sidecar after compact)
        keep = ~np.isin(uniq, np.asarray(list(exclude_doc_ids), dtype=np.int64))
        uniq, counts = uniq[keep], counts[keep]
    return pa.table(
        {"doc_id": pa.array(uniq), "n_matches": pa.array(counts.astype(np.int64))}
    )


def proximity_search(
    index_dir: str,
    term_a: str,
    term_b: str,
    window: int,
    options: IndexOptions | None = None,
    exclude_doc_ids=None,
) -> pa.Table:
    """Docs where (normalized) ``term_a`` and ``term_b`` occur within
    ``window`` kept-token positions of each other, with the number of
    qualifying (pos_a, pos_b) pairs -> ``(doc_id, n_pairs)`` sorted by
    doc_id ascending.

    Same pruned read as phrase_search: only the two terms' rows leave the
    positions sidecar.  Pair counting is two searchsorted range probes
    per a-occurrence over the sorted composite keys — O((|a|+|b|) log |b|),
    never a materialized pair list."""
    if window < 0:
        raise ValueError("window must be >= 0")
    import pyarrow.dataset as pads

    options = _sidecar_options(index_dir, options)

    def norm(w: str) -> str:
        return normalize_query_word(
            w,
            case_folding=options.case_folding,
            remove_stopwords=options.remove_stopwords,
            stemming=options.stemming,
        )

    ta, tb = norm(term_a), norm(term_b)
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "n_pairs": pa.array([], pa.int64())}
    )
    if not ta or not tb or ta == tb:
        return empty

    dset = pads.dataset(os.path.join(index_dir, "positions"))
    tbl = dset.to_table(filter=pc.field("term").isin([ta, tb]))
    a_keys = _term_keys(tbl.filter(pc.equal(tbl["term"], ta)))
    b_keys = _term_keys(tbl.filter(pc.equal(tbl["term"], tb)))
    if a_keys.size == 0 or b_keys.size == 0:
        return empty

    doc_base = (a_keys >> _POS_BITS) << _POS_BITS
    lo = np.maximum(a_keys - window, doc_base)
    hi = np.minimum(a_keys + window, doc_base + (_POS_LIMIT - 1))
    counts = np.searchsorted(b_keys, hi, side="right") - np.searchsorted(
        b_keys, lo, side="left"
    )
    keep = counts > 0
    if not keep.any():
        return empty
    docs = (a_keys[keep] >> _POS_BITS).astype(np.int64)
    uniq, idx = np.unique(docs, return_inverse=True)
    per_doc = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(per_doc, idx, counts[keep])
    if exclude_doc_ids is not None and len(uniq):
        km = ~np.isin(uniq, np.asarray(list(exclude_doc_ids), dtype=np.int64))
        uniq, per_doc = uniq[km], per_doc[km]
    return pa.table(
        {"doc_id": pa.array(uniq), "n_pairs": pa.array(per_doc)}
    )


def ordered_window_search(
    index_dir: str,
    term_a: str,
    term_b: str,
    slop: int,
    options: IndexOptions | None = None,
    exclude_doc_ids=None,
) -> pa.Table:
    """ORDERED sloppy-phrase retrieval: docs where (normalized) ``term_a``
    PRECEDES ``term_b`` by 1..``slop`` kept-token positions (Lucene
    SpanNear with inOrder=true), with the number of qualifying ordered
    (pos_a, pos_b) pairs -> ``(doc_id, n_pairs)`` sorted by doc_id
    ascending.  slop=1 counts exact bigram adjacency.

    Same pruned read and searchsorted range probes as proximity_search —
    only the asymmetric window [pos_a+1, pos_a+slop] differs; never a
    materialized pair list."""
    if slop < 1:
        raise ValueError("slop must be >= 1")
    import pyarrow.dataset as pads

    options = _sidecar_options(index_dir, options)

    def norm(w: str) -> str:
        return normalize_query_word(
            w,
            case_folding=options.case_folding,
            remove_stopwords=options.remove_stopwords,
            stemming=options.stemming,
        )

    ta, tb = norm(term_a), norm(term_b)
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "n_pairs": pa.array([], pa.int64())}
    )
    if not ta or not tb or ta == tb:
        return empty

    dset = pads.dataset(os.path.join(index_dir, "positions"))
    tbl = dset.to_table(filter=pc.field("term").isin([ta, tb]))
    a_keys = _term_keys(tbl.filter(pc.equal(tbl["term"], ta)))
    b_keys = _term_keys(tbl.filter(pc.equal(tbl["term"], tb)))
    if a_keys.size == 0 or b_keys.size == 0:
        return empty

    doc_base = (a_keys >> _POS_BITS) << _POS_BITS
    lo = a_keys + 1  # strictly after a, same doc (guarded by hi clamp)
    hi = np.minimum(a_keys + slop, doc_base + (_POS_LIMIT - 1))
    counts = np.searchsorted(b_keys, hi, side="right") - np.searchsorted(
        b_keys, lo, side="left"
    )
    keep = counts > 0
    if not keep.any():
        return empty
    docs = (a_keys[keep] >> _POS_BITS).astype(np.int64)
    uniq, idx = np.unique(docs, return_inverse=True)
    per_doc = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(per_doc, idx, counts[keep])
    if exclude_doc_ids is not None and len(uniq):
        km = ~np.isin(uniq, np.asarray(list(exclude_doc_ids), dtype=np.int64))
        uniq, per_doc = uniq[km], per_doc[km]
    return pa.table(
        {"doc_id": pa.array(uniq), "n_pairs": pa.array(per_doc)}
    )
