#!/usr/bin/env python3
"""End-to-end benchmark of deeprh campaigns, with per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload spatial-serial --seed 2021 \\
        --seconds 10 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` also replays the same ops with every layer
wrapped in spans and prints the per-layer metrics instead; its spans are
written to ``.perfbench/trace/<workload>/trace.jsonl``, which
``deeprh trace summarize`` reads.  Every op's result digest is checked
against the expected one.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics: name -> unit.
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s",
              "peak_rss_mb": "MB"}

#: Per-layer metrics (``--trace 1``): name -> unit.  Counts, times and
#: byte sizes are means per op; each ratio is followed by its base.
PER_LAYER = {
    "rng.derive.calls": "count",
    "rng.derive.self_s": "s",
    "population.cells_for.calls": "count",
    "population.cells_for.self_s": "s",
    "population.row_cache.hit_ratio": "fraction",
    "population.row_cache.lookups": "count",
    "temperature.sample_ranges.self_s": "s",
    "oracle.threshold_parts.calls": "count",
    "oracle.threshold_parts.self_s": "s",
    "oracle.cache.hit_ratio": "fraction",
    "oracle.cache.lookups": "count",
    "oracle.shared_cache.hit_ratio": "fraction",
    "oracle.shared_cache.lookups": "count",
    "oracle.arena.self_s": "s",
    "oracle.arena.hit_ratio": "fraction",
    "oracle.arena.fetches": "count",
    "hammer.grid.calls": "count",
    "hammer.ber_grid.self_s": "s",
    "hammer.hcfirst_grid.self_s": "s",
    "hammer.hcfirst_min_grid.self_s": "s",
    "study.prepare.self_s": "s",
    "study.to_dict.self_s": "s",
    "supervisor.run_s": "s",
    "supervisor.dispatches": "count",
    "supervisor.pool_utilization": "fraction",
    "transport.worker_s": "s",
    "transport.parent_s": "s",
    "checkpoint.save.calls": "count",
    "checkpoint.save.self_s": "s",
    "serve.run_p50_s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.reply_bytes": "B",
    "setup.import_s": "s",
    "proc.cpu_per_wall": "s/s",
    "proc.wall_s": "s",
    "trace.unattributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.untraced_op_p50_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_digests(out, pinned) -> None:
    """Mark every op whose digest differs from the expected one.

    Expected digests are pinned for the default workload seed and
    otherwise computed once on the serial in-process path; both happen
    after the timed window.  Traced ops must also match the untraced
    run of the same op.
    """
    import measure

    records = out.timed + out.traced
    expected = measure.reference_digests((r.op for r in records),
                                         {**pinned, **out.references})
    for record in records:
        if record.result is not None:
            record.digest = measure.digest(record.result)
            record.result = None
        if not record.error and record.digest != expected[record.op.key]:
            record.error = f"digest mismatch for {record.op.key}"
    untraced = {r.op.key: r.digest for r in out.timed}
    for record in out.traced:
        if not record.error and record.digest != untraced[record.op.key]:
            record.error = f"traced digest differs for {record.op.key}"


def end_to_end(out) -> dict:
    timed = out.timed
    window = max(r.end for r in timed) - min(r.start for r in timed)
    return {
        "setup_s": statistics.median(out.setup_s),
        "op_p50_s": statistics.median(r.seconds for r in timed),
        "ops_per_s": len(timed) / window,
        "peak_rss_mb": out.peak_rss_mb,
    }


def per_layer(out, op_p50_s: float) -> dict:
    values = {name: 0.0 for name in PER_LAYER}
    values.update(out.layer)
    traced_p50 = statistics.median(r.seconds for r in out.traced)
    values["setup.import_s"] = statistics.median(out.import_s)
    values["proc.cpu_per_wall"] = out.cpu_per_wall
    values["proc.wall_s"] = max(r.end for r in out.timed) \
        - min(r.start for r in out.timed)
    values["serve.reply_bytes"] = statistics.mean(
        r.reply_bytes for r in out.timed)
    values["trace.overhead_frac"] = traced_p50 / op_p50_s - 1.0
    values["trace.untraced_op_p50_s"] = op_p50_s
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return values


def report(name: str, seed: int, out, e2e: dict, layer: dict) -> None:
    import measure

    failed = [r for r in out.timed + out.traced if r.error]
    print(f"workload {name}  seed {seed}")
    print(f"  setup_s      {e2e['setup_s']:.4f} s    median of "
          f"{len(out.setup_s)} fresh starts: "
          f"{measure.quantiles(out.setup_s)}")
    if out.import_s:
        print(f"  setup.import_s {statistics.median(out.import_s):.4f} s  "
              "import repro.runner, repro.serve: "
              f"{measure.quantiles(out.import_s)}")
    print(f"  op_p50_s     {e2e['op_p50_s']:.4f} s    "
          f"{measure.quantiles([r.seconds for r in out.timed])}"
          "  (warm-up op excluded)")
    print(f"  ops_per_s    {e2e['ops_per_s']:.4f} 1/s  "
          f"{len(out.timed)} ops")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    attempted = len(out.timed) + len(out.traced)
    print(f"  error_rate   {len(failed) / attempted:.4f} fraction  "
          f"({len(failed)} of {attempted} ops failed)")
    for record in failed:
        print(f"    failed: {record.op.key}: {record.error}")
    for problem in out.problems:
        print(f"    problem: {problem}")
    if layer:
        print(f"  per-layer (traced replay of {len(out.traced)} ops, "
              "per op):")
        for metric, unit in PER_LAYER.items():
            print(f"    {metric:34s} {layer[metric]:.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no deeprh sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    import measure

    measure.use_checkout_environment()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # Everything the program writes during a run (checkpoints, arena
    # dirs, the serve socket) stays inside the checkout.
    shutil.rmtree(measure.WORK, ignore_errors=True)
    (measure.WORK / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(measure.WORK / "tmp")
    tempfile.tempdir = None
    try:
        out = workload.run(args.seed, args.seconds, bool(args.trace))
        check_digests(out, measure.pinned_digests())
    finally:
        shutil.rmtree(measure.WORK, ignore_errors=True)
        measure.stop_resource_tracker()
    e2e = end_to_end(out)
    layer = per_layer(out, e2e["op_p50_s"]) if args.trace else {}
    report(args.workload, args.seed, out, e2e, layer)
    chosen = layer if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(1 for r in out.timed + out.traced if r.error)
    print(json.dumps({
        "correct": failed == 0 and not out.problems,
        "attempted": len(out.timed) + len(out.traced),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
