"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {ingest,query,update} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root.  It generates the workload's inputs from
``--seed`` under ``.pbw/`` in the repository, starts a one-CPU Ray
session, sets up, runs the closed loop for ``--seconds``, checks every
result, stops Ray and removes its scratch files.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones,
from a traced run whose spans are written to ``.pbw/results/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".pbw")
DEADLINE_S = 170  # a run must end within 180 s
# AF_UNIX socket paths are at most 107 bytes; Ray appends about 58 to its
# temp dir.
RAY_TEMP_MAX = 48


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs: the host's share of stolen time
    explains slow runs on a shared machine."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def start_ray(work: str) -> str | None:
    """A one-CPU local Ray session whose workers import the package from
    this checkout.  Returns a temp dir to remove if it had to live
    outside the checkout."""
    import ray
    import ray.data

    temp = os.path.join(work, "r")
    outside = None
    if len(temp) > RAY_TEMP_MAX:
        temp = outside = tempfile.mkdtemp(prefix="pbr")
    ray.init(
        num_cpus=1,
        include_dashboard=False,
        logging_level="ERROR",
        object_store_memory=400 * 2**20,
        _temp_dir=temp,
        runtime_env={"env_vars": {"PYTHONPATH": ROOT}},
    )
    ray.data.DataContext.get_current().enable_progress_bars = False
    return outside


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["ingest", "query", "update"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--pages", type=int, default=None,
                    help="corpus size (default: the workload's; tests use a tiny one)")
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import search_engine_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import search_engine_ray from {ROOT}: {e}", file=sys.stderr)
        return 2
    from perfbench.common import Ctx
    from perfbench.layers import probe, trace_metrics
    from perfbench.tracing import Tracer, span_cost_s
    from perfbench.workloads import CORPUS_PAGES, WORKLOADS

    import ray

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    outside = None
    try:
        outside = start_ray(work)
        ctx = Ctx(work=work, seed=args.seed, seconds=args.seconds,
                  pages=args.pages or CORPUS_PAGES, tr=Tracer(bool(args.trace)))
        t0, ticks0 = time.perf_counter(), cpu_ticks()
        metrics, state = WORKLOADS[args.workload](ctx)
        wall = time.perf_counter() - t0
        ticks = [b - a for a, b in zip(ticks0, cpu_ticks())]
        ctx.notes["cpu_steal_share"] = ticks[0] / max(ticks[1], 1)
        if args.trace:
            n_spans = len(ctx.tr.spans)
            probe(ctx, state)
            trace_metrics(ctx, n_spans, wall, span_cost_s())
            metrics = ctx.lay.metrics()
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        _save(args, ctx, metrics)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        if outside:
            shutil.rmtree(outside, ignore_errors=True)
    print(json.dumps({
        "correct": ctx.chk.failed == 0,
        "attempted": ctx.chk.attempted,
        "failed": ctx.chk.failed,
        "metrics": metrics,
    }))
    return 0


def _save(args, ctx, metrics: dict) -> None:
    """Keep the run's summary (and spans, when traced) under .pbw/results."""
    out = os.path.join(WORK_ROOT, "results")
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    summary = {"notes": ctx.notes, "metrics": metrics,
               "attempted": ctx.chk.attempted, "failed": ctx.chk.failed}
    with open(stem + ".json", "w") as fh:
        json.dump(summary, fh, indent=1, default=float)
    print(json.dumps({"workload": args.workload, "notes": ctx.notes}, default=float), file=sys.stderr)
    if args.trace:
        ctx.tr.dump(stem + ".spans.jsonl")


if __name__ == "__main__":
    sys.exit(main())
