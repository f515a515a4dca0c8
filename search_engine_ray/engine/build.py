"""Index-build pipeline orchestration (the `index` entry point).

Reference lifecycle (/root/reference/src/Program.cs:35-68 + Indexer.cs):
scan files -> per-worker in-RAM index -> barrier -> serial merge -> one
binary blob.  Ray-native restatement (SURVEY.md §3.1):

  plan fragments (footer metadata only, deterministic docID bases)
    -> map_batches(build_segments_batch, tasks)  [stage 1: streams, no shuffle]
         each fragment atomically writes docs/ + segments/ parts and a
         manifest JSON (the checkpoint commit marker)
    -> global stats from manifests (n_docs, avgdl)  [tiny driver reduce]
    -> read_parquet(segments) -> groupby(bucket, shard)
         -> map_groups(vectorized merge)         [stage 2: THE shuffle]
         each group writes its own postings/sSSSSS-bBBBBB.parquet
         (rows sorted by (term, block_no), tmp + os.replace) and returns
         a one-row manifest
    -> terms table, stats.json, .complete marker

Resume: stage 1 skips any fragment whose manifest exists (no data read);
stage 2 is idempotent and re-runs only if the .complete marker is absent.
Output is a directory of Parquet files, never one giant file; its
postings layout is deterministic (two builds of one corpus are
byte-identical), see engine/merge.py.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import pyarrow as pa
import ray
import ray.data

from ..config import BuildConfig
from .codec import load_meta
from .merge import (
    POSTINGS_SCHEMA,
    add_merge_keys,
    make_merge_fn,
    postings_file_name,
    write_postings_file,
)
from .reader import plan_fragments
from .segments import build_segments_batch

# terms finalization: at most this many (term, shard) block-metadata rows
# aggregate driver-side into ONE terms.parquet; above it the finalization
# is fully distributed and writes a sorted terms/ directory.  Module-level
# so tests can force the distributed branch on small corpora.
TERMS_DRIVER_MAX_ROWS = 5_000_000


def build_index(
    input_path: str | list[str],
    index_dir: str,
    config: BuildConfig | None = None,
    source_column: str = "html",
    name_column: str = "url",
    term_buckets: int | None = None,
    overwrite: bool = False,
) -> dict:
    """Build (or resume building) the inverted index.  Returns stats dict."""
    config = config or BuildConfig()
    if overwrite and os.path.isdir(index_dir):
        shutil.rmtree(index_dir)
    os.makedirs(index_dir, exist_ok=True)
    # resuming or appending extends the cells an earlier build wrote:
    # refuse them unless they are VByte
    for name in ("stats.json", "build_codec.json"):
        if os.path.exists(os.path.join(index_dir, name)):
            load_meta(os.path.join(index_dir, name))

    complete_marker = os.path.join(index_dir, ".complete")

    _t = time.perf_counter()
    phases: dict[str, float] = {}
    fragments = plan_fragments(input_path)
    phases["plan"] = time.perf_counter() - _t

    if os.path.exists(complete_marker):
        plan_path0 = os.path.join(index_dir, "build_plan.json")
        with open(plan_path0) as fh:
            prior0 = json.load(fh)
        if prior0 == [f.to_dict() for f in fragments]:
            with open(os.path.join(index_dir, "stats.json")) as fh:
                return json.load(fh)
        # input grew (or changed): fall through — the plan-prefix check
        # below either resumes incrementally or refuses
        os.remove(complete_marker)
    plan_path = os.path.join(index_dir, "build_plan.json")
    current = [f.to_dict() for f in fragments]
    if os.path.exists(plan_path):
        with open(plan_path) as fh:
            prior = json.load(fh)
        if current[: len(prior)] == prior:
            # resume, or INCREMENTAL APPEND: new input files that sort after
            # every prior file extend the plan without disturbing any
            # existing fragment's docID base — old fragments are skipped via
            # their manifests, only new ones build, and the merge re-runs.
            pass
        else:
            raise ValueError(
                "input layout changed since the prior build in a way that "
                "would reassign existing docIDs (appended files must sort "
                "after all prior files) — rebuild with overwrite=True"
            )
    with open(plan_path + ".tmp", "w") as fh:
        json.dump(current, fh)
    os.replace(plan_path + ".tmp", plan_path)

    # ---- stage 1: per-fragment segments (streams; no shuffle) ----
    n_cpus = max(2, int(ray.cluster_resources().get("CPU", 4)))
    # stateless task pool: worker processes are reused, so the
    # module-global Porter memo stays warm without actor-pool startup
    manifest_ds = ray.data.from_items([f.to_dict() for f in fragments]).map_batches(
        build_segments_batch,
        fn_kwargs=dict(
            index_dir=index_dir,
            config=config,
            source_column=source_column,
            name_column=name_column,
        ),
        batch_size=1,
        num_cpus=1,
    )
    _t = time.perf_counter()
    manifests = manifest_ds.to_pandas()  # tiny: one row per fragment
    phases["segments"] = time.perf_counter() - _t

    n_docs = int(manifests["n_docs"].sum())
    sum_dl = int(manifests["sum_dl"].sum())
    avgdl = sum_dl / n_docs if n_docs else 0.0

    if term_buckets is None:
        # Size merge groups to stay cache-resident (~0.5 MiB of postings
        # per (bucket, shard) group): DRAM-throttled hosts run a
        # cache-sized vectorized merge an order of magnitude faster than a
        # big-array one, and at cluster scale smaller groups also smooth
        # shuffle skew.  ~20 bytes per posting entry across the three
        # parallel arrays.
        n_postings = int(manifests["n_postings"].sum())
        n_shards = max(1, (len(fragments) + config.frags_per_shard - 1) // config.frags_per_shard)
        term_buckets = int(min(4096, max(16, n_postings * 20 // (512 * 1024) // n_shards)))

    # ---- stage 2: the term shuffle ----
    postings_dir = os.path.join(index_dir, "postings")
    if os.path.isdir(postings_dir):
        shutil.rmtree(postings_dir)  # idempotent re-run of an interrupted merge

    # Coarse read blocks bound the sort's fan-out: the all-to-all creates
    # (input blocks x output partitions) objects, so many tiny blocks turn a
    # small exchange into thousands of object transfers.  Partition count is
    # DATA-driven (~256 MiB of segment data per shuffle partition — grows
    # with corpus size at cluster scale), bounded by fragment count and by
    # 2x the CPUs so a single node is never oversubscribed with
    # bandwidth-heavy merge tasks.  Sizing happens AT THE READ
    # (override_num_blocks) — no separate repartition exchange.
    seg_bytes = int(manifests["bytes"].sum())
    by_data = max(1, seg_bytes // (256 * 1024 * 1024))
    shuffle_parts = int(max(2, min(len(fragments), n_cpus * 2, max(by_data, min(8, n_cpus)))))
    seg_ds = ray.data.read_parquet(
        os.path.join(index_dir, "segments"), override_num_blocks=shuffle_parts
    )
    keyed = seg_ds.map_batches(
        add_merge_keys,
        fn_kwargs=dict(frags_per_shard=config.frags_per_shard, term_buckets=term_buckets),
        batch_format="pyarrow",
    )
    merge = make_merge_fn(config, avgdl)

    def merge_and_write(group: pa.Table) -> pa.Table:
        shard, bucket = group["shard"][0].as_py(), group["bucket"][0].as_py()
        path = os.path.join(postings_dir, postings_file_name(shard, bucket))
        return pa.table({
            "shard": [shard], "bucket": [bucket],
            "rows": [write_postings_file(merge(group), path)],
        })

    os.makedirs(postings_dir)
    _t = time.perf_counter()
    written = keyed.groupby(["bucket", "shard"]).map_groups(
        merge_and_write, batch_format="pyarrow"
    ).to_pandas()  # one row per (bucket, shard) file
    if len(written) == 0:
        # degenerate corpus (every token filtered): one empty file
        write_postings_file(
            POSTINGS_SCHEMA.empty_table(),
            os.path.join(postings_dir, postings_file_name(0, 0)),
        )
    phases["merge"] = time.perf_counter() - _t

    # terms table: df per term (A4 materialized) — aggregate over block
    # metadata only, no posting payload moves.  Small metadata (the common
    # case up to ~millions of terms x shards) aggregates driver-side into
    # ONE sorted terms.parquet; past the threshold the whole finalization
    # stays distributed — groupby.sum -> sort -> a sorted terms/ DIRECTORY
    # (round-3 verdict #7: at 10^9+ distinct web-scale tokens a driver
    # collect OOMs).  All readers accept both layouts via engine.terms_io;
    # compact and merge share the same writer.
    from .terms_io import finalize_terms

    _t = time.perf_counter()
    n_terms, _ = finalize_terms(postings_dir, index_dir, TERMS_DRIVER_MAX_ROWS)
    phases["terms"] = time.perf_counter() - _t

    stats = {
        "n_docs": n_docs,
        "sum_dl": sum_dl,
        "avgdl": avgdl,
        "n_terms": int(n_terms),
        "n_postings": int(manifests["n_postings"].sum()),
        "n_fragments": len(fragments),
        "options": config.options.to_dict(),
        "bm25": {"k1": config.bm25.k1, "k3": config.bm25.k3, "b": config.bm25.b},
        "block_entries": config.block_entries,
        "codec": "vbyte",
        "frags_per_shard": config.frags_per_shard,
        "term_buckets": term_buckets,
        "phase_sec": {k: round(v, 3) for k, v in phases.items()},
    }
    with open(os.path.join(index_dir, "stats.json.tmp"), "w") as fh:
        json.dump(stats, fh)
    os.replace(os.path.join(index_dir, "stats.json.tmp"), os.path.join(index_dir, "stats.json"))
    with open(complete_marker, "w") as fh:
        fh.write("ok")
    return stats
