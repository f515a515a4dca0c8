"""Property tests: the vectorized segment+merge core (no Ray) must produce
an index decode-equal to the oracle for arbitrary corpora and partitionings,
and scoring must stay rank-identical."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from search_engine_ray.config import BuildConfig, IndexOptions
from search_engine_ray.engine.codec import delta_decode, vbyte_decode
from search_engine_ray.engine.merge import add_merge_keys, make_merge_fn
from search_engine_ray.engine.segments import build_fragment_postings
from search_engine_ray.oracle.indexer import OracleIndex

TEXTS = st.lists(
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Ll", "Lu", "Nd"),
            whitelist_characters=" .,<>=:;?/-'\n\t",
            max_codepoint=0x17F,
        ),
        max_size=80,
    ),
    min_size=1,
    max_size=24,
)


def _build_inline(texts, options, n_frags, block_entries=4, frags_per_shard=2):
    """Run the real fragment+merge kernels in-process over a partitioning."""
    config = BuildConfig(options=options, block_entries=block_entries, frags_per_shard=frags_per_shard)
    bounds = np.linspace(0, len(texts), n_frags + 1).astype(int)
    seg_tables = []
    doc_lens = []
    for f in range(n_frags):
        lo, hi = int(bounds[f]), int(bounds[f + 1])
        names = pa.array([str(i) for i in range(lo, hi)], pa.string())
        docs_t, seg_t = build_fragment_postings(
            names, pa.array(texts[lo:hi], pa.string()), lo, f, config
        )
        doc_lens.extend(docs_t["doc_len"].to_pylist())
        if seg_t.num_rows:
            seg_tables.append(seg_t)
    if not seg_tables:
        return {}, doc_lens
    seg = pa.concat_tables(seg_tables)
    keyed = add_merge_keys(seg, frags_per_shard, term_buckets=3)
    avgdl = (sum(doc_lens) / len(doc_lens)) if doc_lens else 1.0
    fn = make_merge_fn(config, max(avgdl, 1e-9))
    postings: dict[str, tuple[list[int], list[int], list[int]]] = {}
    import pyarrow.compute as pc

    for b in set(keyed["bucket"].to_pylist()):
        for s in set(keyed["shard"].to_pylist()):
            mask = pc.and_(pc.equal(keyed["bucket"], b), pc.equal(keyed["shard"], s))
            g = keyed.filter(mask)
            if g.num_rows == 0:
                continue
            out = fn(g)
            rows = sorted(
                out.to_pylist(), key=lambda r: (r["term"], r["first_doc"])
            )
            for row in rows:
                ids = delta_decode(row["docs_enc"], row["n"]).tolist()
                tfs = vbyte_decode(row["tfs_enc"], row["n"]).tolist()
                dls = vbyte_decode(row["dls_enc"], row["n"]).tolist()
                e = postings.setdefault(row["term"], ([], [], []))
                e[0].extend(ids)
                e[1].extend(tfs)
                e[2].extend(dls)
    return postings, doc_lens


@settings(max_examples=60, deadline=None)
@given(TEXTS, st.integers(min_value=1, max_value=5))
def test_pipeline_core_equals_oracle(texts, n_frags):
    options = IndexOptions(True, True, True)
    oracle = OracleIndex.build([(str(i), t) for i, t in enumerate(texts)], options)
    postings, doc_lens = _build_inline(texts, options, min(n_frags, len(texts)))
    assert doc_lens == oracle.doc_lens
    assert set(postings) == set(oracle.postings)
    for term, (ids, tfs, dls) in postings.items():
        o_ids, o_tfs = oracle.postings[term]
        assert ids == o_ids, term
        assert tfs == o_tfs, term
        assert dls == [oracle.doc_lens[d] for d in ids], term
        assert ids == sorted(set(ids))  # docID-sorted, deduped invariant


@settings(max_examples=30, deadline=None)
@given(TEXTS)
def test_partition_count_invariance_property(texts):
    options = IndexOptions(True, False, False)
    a, _ = _build_inline(texts, options, 1)
    b, _ = _build_inline(texts, options, min(4, len(texts)), frags_per_shard=1)
    assert a == b
