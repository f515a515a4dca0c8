"""Index maintenance: document tombstones (delete without rebuild).

Beyond-reference surface: the reference engine
(/root/reference/src/Indexing/WriteableIndex.cs) is build-once — removing
a document means re-indexing the corpus.  A long-lived web index needs
cheap deletes (takedowns, recrawls, spam removal); the standard design is
the Lucene-style tombstone: deleted doc names are recorded next to the
index, query-time scoring drops them from RESULTS while collection
statistics (df, avgdl) stay at their build values until the next rebuild
("compaction" here is simply rebuilding from the retained corpus — the
build is already resumable and incremental, engine/build.py).

Scale shape
-----------
``tombstones.parquet`` holds ``(name, before_id)`` rows — proportional
to the number of DELETED docs, not the corpus.  ``before_id`` is NULL
for a plain delete (every version of the name is dead) and a docID
bound for an UPSERT (only versions with ordinal < before_id are dead —
the re-indexed newer version stays live).  Readers turn it into a boolean
mask over doc ordinals once per actor (``IndexReader.deleted_mask``,
1 bit/doc in RAM — 125 MB per 10^9 docs, same footprint as the
filtered-retrieval mask).  At 10^12-doc scale the name->ordinal
resolution runs per doc-range shard (each shard actor resolves only
names that fall in its own docs partition), so no single process holds a
global name map.

Query semantics: tombstoned docs never appear in results; scores of
surviving docs are UNCHANGED (corpus-wide idf — the Lucene contract).
MaxScore composes exactly: term bounds computed over all postings are
still valid upper bounds for the live docs, and dead docs are dropped
at window evaluation before entering the heap — MaxScore stays
available and bit-identical to masked TAAT (tested).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from .codec import decode_concat_rows, load_meta

TOMBSTONES_FILE = "tombstones.parquet"


def _path(index_dir: str) -> str:
    return os.path.join(index_dir, TOMBSTONES_FILE)


def read_tombstones(path_or_dir: str) -> dict[str, int | None]:
    """name -> before_id bound (None = every version dead).  Accepts an
    index dir or the tombstones file path; {} when absent.  Rows for the
    same name collapse to the dominating bound (None beats any number,
    larger bound beats smaller — it hides a superset of versions)."""
    p = path_or_dir if path_or_dir.endswith(".parquet") else _path(path_or_dir)
    if not os.path.exists(p):
        return {}
    tbl = pq.read_table(p)
    names = tbl["name"].to_pylist()
    bounds = (
        tbl["before_id"].to_pylist()
        if "before_id" in tbl.column_names
        else [None] * len(names)
    )
    out: dict[str, int | None] = {}
    for n, b in zip(names, bounds):
        if n in out and (out[n] is None or (b is not None and b <= out[n])):
            continue
        out[n] = None if b is None else int(b)
    return out


def _write_tombstones(index_dir: str, entries: dict[str, int | None]) -> None:
    names = sorted(entries)
    tmp = _path(index_dir) + ".tmp"
    pq.write_table(
        pa.table(
            {
                "name": pa.array(names, pa.string()),
                "before_id": pa.array([entries[n] for n in names], pa.int64()),
            }
        ),
        tmp,
    )
    os.replace(tmp, _path(index_dir))


def _commit_stats(out_dir: str, stats: dict) -> None:
    """Write ``stats.json`` last, through tmp + ``os.replace``: the commit
    point of a maintenance verb's output index, as in ``build_index``."""
    import json

    path = os.path.join(out_dir, "stats.json")
    with open(path + ".tmp", "w") as fh:
        json.dump(stats, fh)
    os.replace(path + ".tmp", path)


def tombstoned_names(index_dir: str) -> list[str]:
    """Currently tombstoned doc names (sorted; empty list if none)."""
    return sorted(read_tombstones(index_dir))


GENERATIONS_DIR = "generations"


def snapshot_generation(index_dir: str, op: str) -> int:
    """Checkpoint the CURRENT visibility state as generation K before a
    mutation (time-travel support): the tombstone table is copied to
    ``generations/tombstones.gen-K.parquet`` and an oplog row records the
    docID watermark (stats.json n_docs at snapshot time).  ``as_of=K``
    reads then reconstruct exactly the pre-op view: snapshot tombstones
    plus every docID >= the watermark hidden (documents appended by later
    upserts/increments did not exist yet).  K counts mutations: gen 0 is
    the state before the first delete/upsert/clear."""
    import json as _json
    import shutil as _shutil

    gdir = os.path.join(index_dir, GENERATIONS_DIR)
    os.makedirs(gdir, exist_ok=True)
    oplog = os.path.join(gdir, "oplog.jsonl")
    k = 0
    if os.path.exists(oplog):
        with open(oplog) as fh:
            k = sum(1 for _ in fh)
    snap = os.path.join(gdir, f"tombstones.gen-{k:06d}.parquet")
    src = _path(index_dir)
    if os.path.exists(src):
        _shutil.copyfile(src, snap + ".tmp")
        os.replace(snap + ".tmp", snap)
    else:
        pq.write_table(
            pa.table(
                {
                    "name": pa.array([], pa.string()),
                    "before_id": pa.array([], pa.int64()),
                }
            ),
            snap + ".tmp",
        )
        os.replace(snap + ".tmp", snap)
    with open(os.path.join(index_dir, "stats.json")) as fh:
        n_docs = _json.load(fh)["n_docs"]
    with open(oplog, "a") as fh:
        fh.write(_json.dumps({"gen": k, "op": op, "n_docs": int(n_docs)}) + "\n")
    return k


def read_generation(index_dir: str, as_of: int) -> tuple[dict[str, int | None], int]:
    """(tombstone entries, docID watermark) of generation ``as_of``.
    Raises with the available range when the generation doesn't exist."""
    import json as _json

    gdir = os.path.join(index_dir, GENERATIONS_DIR)
    oplog = os.path.join(gdir, "oplog.jsonl")
    rows = []
    if os.path.exists(oplog):
        with open(oplog) as fh:
            rows = [_json.loads(line) for line in fh if line.strip()]
    if not 0 <= as_of < len(rows):
        raise ValueError(
            f"generation {as_of} does not exist; index has "
            f"{len(rows)} generation(s) (0..{len(rows) - 1})"
            if rows
            else f"generation {as_of} does not exist; index has no "
            "recorded mutations (query it directly)"
        )
    snap = os.path.join(gdir, f"tombstones.gen-{as_of:06d}.parquet")
    return read_tombstones(snap), int(rows[as_of]["n_docs"])


def list_generations(index_dir: str) -> pa.Table:
    """(gen, op, n_docs, n_tombstones) per recorded generation."""
    import json as _json

    gdir = os.path.join(index_dir, GENERATIONS_DIR)
    oplog = os.path.join(gdir, "oplog.jsonl")
    rows = []
    if os.path.exists(oplog):
        with open(oplog) as fh:
            rows = [_json.loads(line) for line in fh if line.strip()]
    n_tomb = [
        len(read_tombstones(os.path.join(gdir, f"tombstones.gen-{r['gen']:06d}.parquet")))
        for r in rows
    ]
    return pa.table(
        {
            "gen": pa.array([r["gen"] for r in rows], pa.int64()),
            "op": pa.array([r["op"] for r in rows], pa.string()),
            "n_docs": pa.array([r["n_docs"] for r in rows], pa.int64()),
            "n_tombstones": pa.array(n_tomb, pa.int64()),
        }
    )


def delete_docs(
    index_dir: str, names, before_id: int | None = None, override: bool = False,
    snapshot: bool = True,
) -> int:
    """Tombstone ``names`` (idempotent union with any existing set).
    Returns the total number of tombstoned names after the update.

    ``before_id=None`` (plain delete) hides EVERY version of the name;
    an integer bound hides only versions with ordinal < before_id (the
    upsert primitive).  Names that are not in the index are recorded
    anyway (they may arrive before a pending incremental append lands) —
    the reader's mask build simply skips unresolvable names.

    ``override=True`` REPLACES any existing entry instead of unioning.
    Upsert needs this: after a plain delete the name holds a ``None``
    (everything-dead) bound which union semantics would keep, hiding the
    re-indexed version forever; the upsert's watermark bound must win so
    the new version (ordinal >= before_id) is live."""
    if not os.path.exists(os.path.join(index_dir, "stats.json")):
        raise FileNotFoundError(f"{index_dir} is not an index directory")
    if snapshot:
        snapshot_generation(index_dir, "delete")
    merged = read_tombstones(index_dir)
    for n in names:
        n = str(n)
        if not override:
            prior = merged.get(n, -1)
            if prior is None or (
                before_id is not None and prior != -1 and prior >= before_id
            ):
                continue  # existing bound already dominates
        merged[n] = before_id
    _write_tombstones(index_dir, merged)
    return len(merged)


def clear_tombstones(index_dir: str) -> int:
    """Remove all tombstones (e.g. after a compacting rebuild).  Returns
    how many were cleared."""
    n = len(tombstoned_names(index_dir))
    if n:
        snapshot_generation(index_dir, "clear")
    p = _path(index_dir)
    if os.path.exists(p):
        os.remove(p)
    return n


def compact_index(index_dir: str, out_dir: str, overwrite: bool = False) -> dict:
    """Physically apply tombstones: rewrite the index without the deleted
    docs, with dense renumbered docIDs and exactly recomputed statistics
    (n_docs, avgdl, per-term df, block score bounds) — after compaction
    the index scores IDENTICALLY to a fresh build over the retained
    corpus (tested bit-identical), and its block bounds are exact again.

    Dataflow (shard structure preserved — no re-tokenization, no
    shuffle):

        postings_files(postings) -> one task per file (map_postings_files):
          decode, drop deleted entries, remap docIDs, re-block + re-bound
          with the NEW avgdl  [merge.reblock, the build merge's kernel]
          -> the same sSSSSS-bBBBBB.parquet name in out_dir
        read_parquet(docs) -> map_batches(filter + remap) -> write
        terms/df + stats: metadata-only aggregate of the new blocks.

    A postings file holds every block of its terms in its shard, so each
    file is rewritten on its own and two compactions of one index give
    byte-identical postings trees.

    The docID remap never ships as an O(n_docs) array (round-3 verdict
    #5).  Shards cover disjoint contiguous docID ranges (build assigns
    docIDs by fragment position; merge/append keep shards disjoint), so
    the sorted deleted-id set is SLICED per shard range and each slice is
    a separate ``ray.put`` object: a task reads only the slices its
    docID range overlaps, plus a tiny (n_shards) offset table of
    deletions-before-base.  new_id = old_id - (deletions <= old_id) via
    searchsorted — bit-identical to the dense remap, O(deleted-in-shard)
    memory per task instead of 8 B x n_docs in every plasma store.

    Returns the new stats dict.  The output is a query-only index
    (docs/postings/terms/stats) — incremental append continues from the
    ORIGINAL build directory, which stays untouched.
    """
    import shutil
    import time

    import numpy as np
    import pyarrow.dataset as pads
    import ray
    import ray.data

    from .merge import map_postings_files, postings_files, reblock, shard_first_docs

    stats = load_meta(os.path.join(index_dir, "stats.json"))
    files = postings_files(os.path.join(index_dir, "postings"))
    if overwrite and os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir, exist_ok=False)
    phases: dict[str, float] = {}

    # resolve tombstoned names -> ordinals + their doc lens (tombstone-sized)
    _t = time.perf_counter()
    docs_ds_meta = pads.dataset(os.path.join(index_dir, "docs"))
    entries = read_tombstones(index_dir)
    if entries:
        hit = docs_ds_meta.to_table(
            columns=["doc_id", "doc_len", "name"],
            filter=pads.field("name").isin(list(entries)),
        )
        pairs = [
            (int(d), int(dl))
            for d, dl, n in zip(
                hit["doc_id"].to_pylist(),
                hit["doc_len"].to_pylist(),
                hit["name"].to_pylist(),
            )
            if entries.get(n) is None or d < entries[n]
        ]
        deleted_ids = np.sort(np.asarray([p[0] for p in pairs], dtype=np.int64))
        deleted_dl = int(sum(p[1] for p in pairs))
    else:
        deleted_ids = np.empty(0, dtype=np.int64)
        deleted_dl = 0

    n_docs = stats["n_docs"]
    new_n_docs = n_docs - len(deleted_ids)
    new_sum_dl = stats["sum_dl"] - deleted_dl
    new_avgdl = new_sum_dl / new_n_docs if new_n_docs else 0.0

    # shard-local remap slices: each shard's docID range from its own
    # files' footer statistics (no posting row is read), then one plasma
    # object PER SHARD holding only that range's deleted ids.
    # del_before[i] = deletions below range i's base.
    if len(deleted_ids):
        # range i covers [lo_i, lo_{i+1}); docs before the first posting
        # shard fold into range 0
        range_lo = np.sort(np.asarray(list(shard_first_docs(files).values()), dtype=np.int64))
        if len(range_lo) == 0:  # index with zero postings
            range_lo = np.zeros(1, dtype=np.int64)
        range_lo[0] = 0
        cuts = np.searchsorted(deleted_ids, range_lo)
        del_before = cuts.astype(np.int64)
        bounds = np.append(cuts, len(deleted_ids))
        slice_refs = [
            ray.put(deleted_ids[bounds[i]: bounds[i + 1]])
            for i in range(len(range_lo))
        ]
    else:
        range_lo = np.zeros(1, dtype=np.int64)
        del_before = np.zeros(1, dtype=np.int64)
        slice_refs = [ray.put(np.empty(0, dtype=np.int64))]

    def _remap_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(new_ids, keep_mask) for a batch of old docIDs — reads only the
        deleted-id slices whose shard range the batch overlaps."""
        if len(ids) == 0:
            return ids, np.zeros(0, dtype=bool)
        s0 = int(np.searchsorted(range_lo, ids.min(), side="right")) - 1
        s1 = int(np.searchsorted(range_lo, ids.max(), side="right")) - 1
        dels = np.concatenate([ray.get(slice_refs[s]) for s in range(s0, s1 + 1)])
        pos = np.searchsorted(dels, ids, side="left")
        present = np.zeros(len(ids), dtype=bool)
        inb = pos < len(dels)
        present[inb] = dels[pos[inb]] == ids[inb]
        return ids - (del_before[s0] + pos), ~present

    phases["resolve"] = time.perf_counter() - _t

    k1 = stats["bm25"]["k1"]
    b = stats["bm25"]["b"]
    bk = stats["block_entries"]

    def compact_file(tbl: pa.Table, shard: int) -> pa.Table:
        return reblock(tbl, shard, bk, k1, b, new_avgdl, _remap_ids)

    # postings rewrite: file by file, same names
    _t = time.perf_counter()
    out_postings = os.path.join(out_dir, "postings")
    map_postings_files(files, out_postings, compact_file)
    phases["postings"] = time.perf_counter() - _t

    # docs rewrite: drop deleted rows, renumber
    _t = time.perf_counter()

    def remap_docs(batch: pa.Table) -> pa.Table:
        new_ids, keep = _remap_ids(np.asarray(batch["doc_id"], dtype=np.int64))
        batch = batch.filter(pa.array(keep))
        return batch.set_column(
            batch.schema.get_field_index("doc_id"), "doc_id", pa.array(new_ids[keep])
        )

    (
        ray.data.read_parquet(os.path.join(index_dir, "docs"))
        .map_batches(remap_docs, batch_format="pyarrow")
        .write_parquet(os.path.join(out_dir, "docs"))
    )
    phases["docs"] = time.perf_counter() - _t

    # terms/df + stats from block metadata only (shared writer — stays
    # distributed past the driver threshold, terms_io.finalize_terms)
    _t = time.perf_counter()
    from .terms_io import finalize_terms

    n_terms_out, n_postings_out = finalize_terms(out_postings, out_dir)
    phases["terms"] = time.perf_counter() - _t

    new_stats = dict(
        stats,
        n_docs=int(new_n_docs),
        sum_dl=int(new_sum_dl),
        avgdl=new_avgdl,
        n_terms=int(n_terms_out),
        n_postings=int(n_postings_out),
        compacted_from=os.path.abspath(index_dir),
        n_compacted_out=len(deleted_ids),
        phase_sec={k: round(v, 3) for k, v in phases.items()},
    )
    _commit_stats(out_dir, new_stats)
    return new_stats


def merge_indexes(a_dir: str, b_dir: str, out_dir: str, overwrite: bool = False) -> dict:
    """Union-merge two independently built indexes into one (the segment
    merge a long-lived engine runs when corpora are indexed in parts):
    A's docIDs are kept, B's are rebased by ``n_docs(A)``, B's shard ids
    shift past A's (doc-range shards stay disjoint, so blocks stay
    globally docID-ordered per term) and every block is re-encoded with
    the merged avgdl — block score bounds depend on avgdl, so neither
    side's bounds survive as-is (same discipline as compaction).

    Scores after the merge are IDENTICAL to a fresh build over the
    concatenated corpus (tested bit-identical per term).  No
    re-tokenization and no shuffle: shards never mix sides, so each
    postings file of either side is rewritten on its own (one task per
    file, ``merge.map_postings_files``) — decode -> rebase -> re-block
    via the build merge's ``reblock`` kernel — under its own name, B's
    with the shifted shard id.  Tombstones of both inputs are carried
    over by name union.

    Requires identical IndexOptions, BM25 params, and block_entries on
    both inputs (raises otherwise).
    """
    import shutil
    import time

    import ray.data

    from .merge import map_postings_files, postings_files, reblock

    stats = {}
    files = {}
    for side, d in (("a", a_dir), ("b", b_dir)):
        stats[side] = load_meta(os.path.join(d, "stats.json"))
        files[side] = postings_files(os.path.join(d, "postings"))
    for key in ("options", "bm25", "block_entries"):
        if stats["a"][key] != stats["b"][key]:
            raise ValueError(
                f"merge_indexes requires matching {key}: "
                f"{stats['a'][key]!r} != {stats['b'][key]!r}"
            )
    if overwrite and os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir, exist_ok=False)
    phases: dict[str, float] = {}

    n_a = stats["a"]["n_docs"]
    new_n_docs = n_a + stats["b"]["n_docs"]
    new_sum_dl = stats["a"]["sum_dl"] + stats["b"]["sum_dl"]
    new_avgdl = new_sum_dl / new_n_docs if new_n_docs else 0.0
    k1 = stats["a"]["bm25"]["k1"]
    b = stats["a"]["bm25"]["b"]
    bk = stats["a"]["block_entries"]

    out_postings = os.path.join(out_dir, "postings")
    shard_off_b = max(files["a"], default=-1) + 1

    def rewrite(doc_off: int):
        def fn(tbl: pa.Table, shard: int) -> pa.Table:
            return reblock(tbl, shard, bk, k1, b, new_avgdl, lambda ids: (ids + doc_off, None))

        return fn

    _t = time.perf_counter()
    map_postings_files(files["a"], out_postings, rewrite(0))
    map_postings_files(files["b"], out_postings, rewrite(n_a), shard_off=shard_off_b)
    phases["postings"] = time.perf_counter() - _t

    # docs: A as-is, B rebased
    _t = time.perf_counter()

    def rebase_docs(off: int):
        def fn(batch: pa.Table) -> pa.Table:
            if not off:
                return batch
            return batch.set_column(
                batch.schema.get_field_index("doc_id"),
                "doc_id",
                pa.compute.add(batch["doc_id"], off),
            )

        return fn

    out_docs = os.path.join(out_dir, "docs")
    ray.data.read_parquet(os.path.join(a_dir, "docs")).map_batches(
        rebase_docs(0), batch_format="pyarrow"
    ).union(
        ray.data.read_parquet(os.path.join(b_dir, "docs")).map_batches(
            rebase_docs(n_a), batch_format="pyarrow"
        )
    ).write_parquet(out_docs)
    phases["docs"] = time.perf_counter() - _t

    # terms/df + stats from block metadata (shared writer, terms_io)
    _t = time.perf_counter()
    from .terms_io import finalize_terms

    n_terms_out, n_postings_out = finalize_terms(out_postings, out_dir)
    phases["terms"] = time.perf_counter() - _t

    # carry tombstones over: A's bounds unchanged, B's docID bounds
    # shift by n_a (B's ordinals were rebased); unbounded stays unbounded
    ta = read_tombstones(a_dir)
    tb = {
        n: (None if b is None else b + n_a) for n, b in read_tombstones(b_dir).items()
    }
    merged_tombs: dict[str, int | None] = dict(ta)
    for n, b in tb.items():
        prior = merged_tombs.get(n, -1)
        if prior is None or (b is not None and prior != -1 and prior >= b):
            continue
        merged_tombs[n] = b
    if merged_tombs:
        _write_tombstones(out_dir, merged_tombs)

    new_stats = dict(
        stats["a"],
        n_docs=int(new_n_docs),
        sum_dl=int(new_sum_dl),
        avgdl=new_avgdl,
        n_terms=int(n_terms_out),
        n_postings=int(n_postings_out),
        n_fragments=stats["a"].get("n_fragments", 0) + stats["b"].get("n_fragments", 0),
        merged_from=[os.path.abspath(a_dir), os.path.abspath(b_dir)],
        phase_sec={k: round(v, 3) for k, v in phases.items()},
    )
    _commit_stats(out_dir, new_stats)
    return new_stats


def fsck_index(index_dir: str) -> dict:
    """Index integrity verification (the ops tool a long-lived index
    needs): decode EVERY posting block distributed and check the
    invariants the query engine relies on, then cross-check the
    dictionary and stats tables against what the blocks actually hold.

    Per-block checks (one task per postings file, groupby-free):

    - block docIDs strictly increasing, within [first_doc, last_doc]
    - n == decoded length; tf >= 1; dl >= 1; docIDs within [0, n_docs)
    - ub_tfn / lb_tfn / ub_logtf are valid bounds for the block
    - layout (engine/merge.py): every file is named sSSSSS-bBBBBB.parquet
      (``bad_file_names`` counts the others) and every row's ``shard``
      equals its file name's shard

    Global cross-checks: per-term df equals terms.parquet; sum of df
    equals stats n_postings; docs table doc_ids dense in [0, n_docs);
    doc_len in postings equals the docs table value for every entry.

    Returns a report dict with ``violations`` (0 = healthy) and
    counters.  Scale shape: postings stream through tasks (decode is the
    same vectorized kernel queries use), only (term, df_partial) rows
    and violation counts leave each task.  The doc_len cross-check array
    ships once via ray.put (8 B/doc — the same footprint precedent as
    the filtered-retrieval mask and compaction remap; at 10^12-doc scale
    it shrinks to per-shard slices like those do)."""
    import numpy as np
    import pyarrow.dataset as pads
    import ray
    import ray.data

    import pandas as pd

    from .merge import listed_names, parse_postings_name

    stats = load_meta(os.path.join(index_dir, "stats.json"))
    n_docs = stats["n_docs"]
    k1 = stats["bm25"]["k1"]
    b = stats["bm25"]["b"]
    avgdl = stats["avgdl"]

    docs_tbl = pads.dataset(os.path.join(index_dir, "docs")).to_table(
        columns=["doc_id", "doc_len"]
    )
    ids_arr = np.asarray(docs_tbl["doc_id"], dtype=np.int64)
    ids = np.sort(ids_arr)
    docs_dense = bool(len(ids) == n_docs and (ids == np.arange(n_docs)).all())
    # a corrupt docs table (ids outside [0, n_docs)) is itself a finding —
    # count it and keep going rather than crashing the integrity tool
    in_range = (ids_arr >= 0) & (ids_arr < n_docs)
    bad_doc_rows = int((~in_range).sum())
    dl_of = np.zeros(n_docs, dtype=np.int64)
    dl_of[ids_arr[in_range]] = np.asarray(docs_tbl["doc_len"], dtype=np.int64)[in_range]
    dl_ref = ray.put(dl_of)

    post_dir = os.path.join(index_dir, "postings")
    jobs = [
        {"path": os.path.join(post_dir, n), "shard": (parse_postings_name(n) or (-1,))[0]}
        for n in listed_names(post_dir)
    ]
    bad_file_names = sum(1 for j in jobs if j["shard"] < 0)

    def check_file(job_batch: pa.Table) -> pa.Table:
        job = job_batch.to_pylist()[0]
        batch = pq.read_table(job["path"])
        dl_map = ray.get(dl_ref)
        viol = 0
        if job["shard"] >= 0:
            viol += int((np.asarray(batch["shard"]) != job["shard"]).sum())
        row_lens = np.asarray(batch["n"], dtype=np.int64)
        doc_ids = decode_concat_rows(batch["docs_enc"], row_lens, delta=True)
        tfs = decode_concat_rows(batch["tfs_enc"], row_lens, delta=False)
        dls = decode_concat_rows(batch["dls_enc"], row_lens, delta=False)
        ends = np.cumsum(row_lens)
        starts = ends - row_lens  # both empty for an empty file
        firsts = np.asarray(batch["first_doc"], dtype=np.int64)
        lasts = np.asarray(batch["last_doc"], dtype=np.int64)
        # strictly increasing within each block: diffs > 0 except at starts
        d = np.diff(doc_ids)
        ok_incr = np.ones(len(doc_ids), dtype=bool)
        if len(doc_ids) > 1:
            ok_incr[1:] = d > 0
        ok_incr[starts] = True
        viol += int((~ok_incr).sum())
        viol += int((doc_ids[starts] != firsts).sum())
        viol += int((doc_ids[ends - 1] != lasts).sum())
        viol += int(((doc_ids < 0) | (doc_ids >= n_docs)).sum())
        viol += int((tfs < 1).sum()) + int((dls < 1).sum())
        viol += int((dls != dl_map[np.clip(doc_ids, 0, n_docs - 1)]).sum())
        # block bounds
        tfn = tfs / (tfs + k1 * (1.0 - b + b * (dls.astype(np.float64) / avgdl)))
        logtf = np.log1p(tfs)
        ub = np.maximum.reduceat(tfn, starts) if len(tfn) else np.empty(0)
        lb = np.minimum.reduceat(tfn, starts) if len(tfn) else np.empty(0)
        ul = np.maximum.reduceat(logtf, starts) if len(logtf) else np.empty(0)
        eps = 1e-6  # bounds may be LOOSE (pass-through rows), never tight-low
        viol += int((np.asarray(batch["ub_tfn"], dtype=np.float64) < ub - eps).sum())
        viol += int((np.asarray(batch["lb_tfn"], dtype=np.float64) > lb + eps).sum())
        viol += int((np.asarray(batch["ub_logtf"], dtype=np.float64) < ul - eps).sum())
        out = pa.table(
            {
                "term": batch["term"],
                "df_part": pa.array(row_lens),
                "violations": pa.array(np.full(batch.num_rows, 0, dtype=np.int64)),
            }
        )
        if viol:
            # attribute batch violations to the first row (summed globally)
            v = np.zeros(batch.num_rows, dtype=np.int64)
            v[0] = viol
            out = out.set_column(2, "violations", pa.array(v))
        return out

    agg = (
        ray.data.from_items(jobs)
        .map_batches(check_file, batch_size=1, batch_format="pyarrow")
        .groupby("term")
        .sum(["df_part", "violations"])
        .to_pandas()  # dictionary-sized
    )
    if not len(agg.columns):  # no postings at all: a zero-column frame
        agg = pd.DataFrame(columns=["term", "df_part", "violations"])
    df_col = "sum(df_part)" if "sum(df_part)" in agg.columns else "df_part"
    v_col = "sum(violations)" if "sum(violations)" in agg.columns else "violations"
    violations = int(agg[v_col].sum())

    from .terms_io import read_terms_table

    terms_tbl = read_terms_table(index_dir)
    dict_df = dict(zip(terms_tbl["term"].to_pylist(), terms_tbl["df"].to_pylist()))
    got_df = dict(zip(agg["term"], agg[df_col].astype(int)))
    df_mismatches = sum(
        1 for t in set(dict_df) | set(got_df) if dict_df.get(t, 0) != got_df.get(t, 0)
    )
    n_postings = int(agg[df_col].sum())
    return {
        "n_docs": n_docs,
        "docs_dense": docs_dense,
        "n_terms": int(len(got_df)),
        "n_terms_dict": int(terms_tbl.num_rows),
        "n_postings": n_postings,
        "n_postings_stats": stats["n_postings"],
        "df_mismatches": int(df_mismatches),
        "bad_doc_rows": bad_doc_rows,
        "bad_file_names": bad_file_names,
        "violations": violations
        + df_mismatches
        + bad_doc_rows
        + bad_file_names
        + (0 if docs_dense else 1)
        + (0 if n_postings == stats["n_postings"] else 1)
        + (0 if len(got_df) == terms_tbl.num_rows else 1),
    }


def prune_terms(
    index_dir: str,
    out_dir: str,
    df_threshold: int | None = None,
    terms: list[str] | None = None,
    overwrite: bool = False,
) -> dict:
    """Static index pruning ("stopword promotion"): drop the postings of
    high-df terms — explicit ``terms`` and/or every term with
    ``df > df_threshold`` (the candidates diagnostics.index_stats
    surfaces).  The standard trick for head terms that were not in the
    build-time stopword list but behave like stopwords at corpus scale.

    ONLY the dropped terms change: remaining postings pass through as-is
    (a row filter over each postings file, rewritten under its own name —
    no decode/re-encode; docIDs, doc lengths, avgdl, every kept term's df
    and block bounds are untouched), so scoring with any query over
    surviving terms is bit-identical to the unpruned index.  Queries containing a pruned term silently skip
    it — exactly the reference's absent-term semantics (J1).

    Returns the new stats dict with ``n_pruned_terms``."""
    import shutil
    import time

    import pyarrow.compute as pc

    from .merge import map_postings_files, postings_files
    from .terms_io import read_terms_table

    stats = load_meta(os.path.join(index_dir, "stats.json"))
    files = postings_files(os.path.join(index_dir, "postings"))

    terms_tbl = read_terms_table(index_dir)
    drop = set(terms or [])
    if df_threshold is not None:
        for t, d in zip(terms_tbl["term"].to_pylist(), terms_tbl["df"].to_pylist()):
            if d > df_threshold:
                drop.add(t)
    if overwrite and os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir, exist_ok=False)
    phases: dict[str, float] = {}
    drop_arr = pa.array(sorted(drop), pa.string())

    def flt(tbl: pa.Table, _shard: int) -> pa.Table:
        return tbl.filter(pc.invert(pc.is_in(tbl["term"], value_set=drop_arr)))

    _t = time.perf_counter()
    out_postings = os.path.join(out_dir, "postings")
    map_postings_files(files, out_postings, flt)
    phases["postings"] = time.perf_counter() - _t

    # docs unchanged (doc stats keep their build-time semantics)
    _t = time.perf_counter()
    shutil.copytree(os.path.join(index_dir, "docs"), os.path.join(out_dir, "docs"))
    tomb = os.path.join(index_dir, TOMBSTONES_FILE)
    if os.path.exists(tomb):
        shutil.copy(tomb, _path(out_dir) + ".tmp")
        os.replace(_path(out_dir) + ".tmp", _path(out_dir))
    phases["docs"] = time.perf_counter() - _t

    keep_mask = pc.invert(pc.is_in(terms_tbl["term"], value_set=drop_arr))
    new_terms = terms_tbl.filter(keep_mask)
    terms_path = os.path.join(out_dir, "terms.parquet")
    pq.write_table(new_terms, terms_path + ".tmp")
    os.replace(terms_path + ".tmp", terms_path)

    new_stats = dict(
        stats,
        n_terms=int(new_terms.num_rows),
        n_postings=int(pa.compute.sum(new_terms["df"]).as_py() or 0),
        n_pruned_terms=len(drop),
        pruned_from=os.path.abspath(index_dir),
        phase_sec={k: round(v, 3) for k, v in phases.items()},
    )
    _commit_stats(out_dir, new_stats)
    return new_stats


def upsert_docs(
    index_dir: str,
    corpus_dir: str,
    update_file: str,
    config=None,
    source_column: str = "html",
    name_column: str = "url",
) -> dict:
    """Update-or-insert: replace existing documents with new versions (and
    add brand-new ones) WITHOUT a rebuild — the missing verb between
    incremental append (engine/build.py) and tombstone delete.

    Mechanics (both halves are existing primitives):

    1. every name in ``update_file`` that is already indexed is
       TOMBSTONED (the old version disappears from results immediately);
    2. ``update_file`` is moved into ``corpus_dir`` under a name that
       sorts after every existing corpus file, and the resumable build
       extends the index with only the new fragments (old fragments and
       docIDs untouched, merge re-run).

    Queries then see exactly one live version per name (the new one) —
    verified by test_upsert_docs.  A later ``compact_index`` drops the
    dead versions physically.  Returns the post-append stats dict plus
    ``n_replaced``."""
    from .build import build_index

    # refuse an index the append cannot extend before tombstoning anything
    load_meta(os.path.join(index_dir, "stats.json"))
    upd = pq.read_table(update_file, columns=[name_column])
    names = [str(n) for n in upd[name_column].to_pylist()]
    reader_names = set()
    docs_dir = os.path.join(index_dir, "docs")
    if os.path.isdir(docs_dir):
        import pyarrow.dataset as pads

        hit = pads.dataset(docs_dir).to_table(
            columns=["name"], filter=pads.field("name").isin(names)
        )
        reader_names = set(hit["name"].to_pylist())
    # one pre-op generation snapshot for the WHOLE upsert (tombstone +
    # append happen atomically from the time-travel view)
    snapshot_generation(index_dir, "upsert")
    replaced = sorted(reader_names)
    if replaced:
        import json

        with open(os.path.join(index_dir, "stats.json")) as fh:
            n_before = json.load(fh)["n_docs"]
        # bound the tombstone at the pre-append docID watermark: only the
        # OLD versions die; the re-indexed versions (ordinals >= n_before)
        # stay live.  override: a prior plain delete left a None
        # (everything-dead) bound that would otherwise dominate and hide
        # the new version too — the watermark must replace it.
        delete_docs(
            index_dir, replaced, before_id=n_before, override=True,
            snapshot=False,
        )

    # place the update file so it sorts after every existing corpus file
    existing = sorted(
        f for f in os.listdir(corpus_dir) if f.endswith(".parquet")
    )
    seq = 0
    prefix = "zz-upsert-"
    for f in existing:
        if f.startswith(prefix):
            try:
                seq = max(seq, int(f[len(prefix):].split(".")[0]) + 1)
            except ValueError:
                pass
    dest_name = f"{prefix}{seq:06d}.parquet"
    if existing and dest_name <= existing[-1] and not existing[-1].startswith(prefix):
        raise ValueError(
            f"cannot place update after existing corpus file {existing[-1]!r}; "
            "rename corpus files to sort before 'zz-upsert-*'"
        )
    import shutil

    shutil.copyfile(update_file, os.path.join(corpus_dir, dest_name))
    stats = build_index(
        corpus_dir, index_dir, config,
        source_column=source_column, name_column=name_column,
    )
    stats = dict(stats, n_replaced=len(replaced))
    return stats


def refresh_index(
    index_dir: str,
    corpus_dir: str,
    captures_file: str,
    config=None,
    source_column: str = "html",
    name_column: str = "url",
    ts_column: str = "warc_ts",
) -> dict:
    """Incremental crawl-to-index refresh — the composed maintenance verb
    a recrawl needs, built from three existing primitives:

    1. **newest capture per name** (dataops.dedup.latest_per_key + a
       (name, ts, hash)-keyed semi join — the content hash alone is not
       row-unique):
       a crawl batch holds many captures of one url; only the max-ts one
       can enter the index (ties broken by the md5 of the source bytes —
       deterministic under any partitioning);
    2. **unchanged-content skip**: captures whose source bytes equal the
       currently indexed version (md5 compare against a column-pruned
       streaming scan of the existing corpus, filtered to the captured
       names only) are dropped — no-op recrawls must not grow the index
       or kill the live version;
    3. **upsert_docs** for the changed + brand-new remainder (old
       versions tombstoned at the docID watermark, resumable append,
       merge re-run).

    The captures stages run as Dataset ops (a refresh batch can be a
    whole crawl segment); only the post-filter update table — by
    definition index-update-sized — lands on the driver, the same
    materialization contract upsert_docs already has.  Returns the build
    stats plus n_captures / n_latest / n_unchanged / n_upserts."""
    import hashlib

    import numpy as np
    import pyarrow.dataset as pads

    from ..ioutil import read_parquet_clean

    caps = read_parquet_clean(captures_file)
    n_captures = caps.count()
    if n_captures == 0:
        import json

        with open(os.path.join(index_dir, "stats.json")) as fh:
            stats = json.load(fh)
        return dict(
            stats,
            n_captures=0,
            n_latest=0,
            n_unchanged=0,
            n_upserts=0,
            n_replaced=0,
        )

    def prep(batch: pa.Table) -> pa.Table:
        ts = batch[ts_column]
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        src = batch[source_column]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        def _bytes(v):
            return v if isinstance(v, bytes) else str(v).encode()
        caphash = np.fromiter(
            (
                int.from_bytes(hashlib.md5(_bytes(v)).digest()[:8], "big", signed=True)
                for v in src.to_pylist()
            ),
            dtype=np.int64,
            count=len(src),
        )
        return pa.table(
            {
                name_column: batch[name_column],
                "_ts": ts.cast(pa.int64()),
                "_cap_id": pa.array(caphash),
                source_column: src,
            }
        )

    prepped = caps.map_batches(prep, batch_format="pyarrow")
    # latest capture per name, ties -> max content hash.  The semi join
    # back onto the captures keys on the FULL (name, ts, hash) triple —
    # a content hash alone is not row-unique (identical boilerplate
    # bodies across urls would cross-match and keep stale captures).
    from ..dataops.dedup import _join_parts, latest_per_key
    from ..ioutil import nonempty_blocks

    keep = latest_per_key(prepped, name_column, "_ts", id_column="_cap_id")
    keep = nonempty_blocks(keep.materialize())
    if keep is None:
        winners = prepped.limit(0)
    else:
        winners = prepped.join(
            keep,
            "left_semi",
            _join_parts(16),
            on=(name_column, "_ts", "_cap_id"),
            right_on=(name_column, "_ts", "keep__cap_id"),
        )
    batches = [
        pa.table(b)
        for b in winners.iter_batches(batch_size=None, batch_format="pyarrow")
    ]
    batches = [b for b in batches if b.num_rows]
    if batches:
        upd = pa.concat_tables(batches)
        # byte-identical duplicate captures (same name+ts+content) all
        # survive the semi join; keep exactly one per name
        df = upd.to_pandas().drop_duplicates(subset=[name_column], ignore_index=True)
        upd = pa.Table.from_pandas(df, schema=upd.schema, preserve_index=False)
    else:
        upd = pa.table(
            {
                name_column: pa.array([], pa.string()),
                "_ts": pa.array([], pa.int64()),
                "_cap_id": pa.array([], pa.int64()),
                source_column: pa.array([], pa.string()),
            }
        )
    n_latest = upd.num_rows

    # old-content hashes for the captured names only (column-pruned scan)
    names = [str(n) for n in upd[name_column].to_pylist()]
    old_hash: dict[str, int] = {}
    corpus = pads.dataset(corpus_dir, format="parquet")
    if names:
        tbl = corpus.to_table(
            columns=[name_column, source_column],
            filter=pads.field(name_column).isin(
                upd[name_column].to_pylist()
            ),
        )
        for nm, v in zip(tbl[name_column].to_pylist(), tbl[source_column].to_pylist()):
            b = v if isinstance(v, bytes) else str(v).encode()
            old_hash[str(nm)] = int.from_bytes(
                hashlib.md5(b).digest()[:8], "big", signed=True
            )

    keep_mask = [
        old_hash.get(str(nm)) != int(ch)
        for nm, ch in zip(upd[name_column].to_pylist(), upd["_cap_id"].to_pylist())
    ]
    changed = upd.filter(pa.array(keep_mask)).drop_columns(["_ts", "_cap_id"])
    n_unchanged = n_latest - changed.num_rows

    if changed.num_rows == 0:
        import json

        with open(os.path.join(index_dir, "stats.json")) as fh:
            stats = json.load(fh)
        return dict(
            stats,
            n_captures=n_captures,
            n_latest=n_latest,
            n_unchanged=n_unchanged,
            n_upserts=0,
            n_replaced=0,
        )

    # per-run temp file inside the index dir (no fixed shared path: two
    # concurrent refreshes must not read each other's update table)
    import tempfile

    fd, upd_path = tempfile.mkstemp(
        prefix="refresh-update-", suffix=".parquet", dir=index_dir
    )
    os.close(fd)
    try:
        pq.write_table(changed, upd_path)
        stats = upsert_docs(
            index_dir, corpus_dir, upd_path, config=config,
            source_column=source_column, name_column=name_column,
        )
    finally:
        try:
            os.remove(upd_path)
        except OSError:
            pass
    return dict(
        stats,
        n_captures=n_captures,
        n_latest=n_latest,
        n_unchanged=n_unchanged,
        n_upserts=changed.num_rows,
    )
