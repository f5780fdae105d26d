"""Benchmark of the `matropt` command line, with every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload ehrhart --seed 1 --seconds 35 --trace 0

Workloads (inputs and checks in workloads.py):
  ehrhart   `matropt ehrhart` on a small catalog; triangulation, half-open
            flags and the z = 1 specialization do the work.
  search    btrpt / pb / ls / dfbfs on the criterion-9 graphs with d = 2
            weights; heuristics and the rank oracle do the work.
  polytope  check-unimodular, hstar-uniform and ehrhart-uniform; placing
            triangulations of point sets and uniform closed forms, never
            genfun or heuristics.

One process, one operation at a time (closed loop, one client), `--workers 1`
where a subcommand has the flag.  Each operation calls
`matropt.cli.main(argv)` with stdout captured and loads its matroid from
file.  A pass runs the whole batch once on a freshly imported matropt, so
module-level caches start empty as in a new CLI process.  Passes repeat
while the next one fits in --seconds; run_s is their median, calibrated for
host speed (speed.py).  Every output is checked against its oracle after
the timed passes.

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 it carries the per-layer metrics of one traced pass (tracer.py),
run between two untraced passes for trace_overhead_frac.  Details go to
perfbench/out/: provenance, per-operation latencies, the stdout digest and,
for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402

SETUP_REPEATS = 5

SPAN_S = (
    "triangulate.half_open_decompose", "triangulate.tangent_cone",
    "genfun.dilation_polynomial", "genfun.generic_lambda",
    "triangulate.placing_triangulation", "linalg.lattice_span_basis",
    "uniform.hstar_uniform", "uniform.ehrhart_uniform",
    "heuristics.boundary_pareto_search", "heuristics.pivot_test",
    "heuristics.projected_boundary", "heuristics.fiber_bfs_driver",
    "matroid.adjacent_bases", "oracles.enumerate_bases", "oracles.polytope_dimension",
)
SPAN_SELF_S = (
    "triangulate.cone_triangulation", "genfun.matroid_genfun",
    "triangulate.placing_triangulation", "cli.main",
)
COUNTS = (
    "triangulate.cells", "triangulate.cells_per_cone_max", "genfun.terms",
    "triangulate.placing_cells", "multicriteria.project.calls", "multicriteria.objective.calls",
    "heuristics.pivot_test.targets", "heuristics.pivot_test.found",
    "heuristics.neighbor_scans", "matroid.rank_of.calls", "matroid.rank_of.distinct",
    "oracles.bases",
)
SPAN_CALLS = (
    "linalg.bareiss_det", "linalg.solve_in_row_space", "linalg.rational_kernel_basis",
    "matroid.adjacent_bases", "matroid.random_basis",
)
# Per-operation stage split (calibrated seconds) for the detail file.
STAGES = ("oracles.enumerate_bases", "triangulate.tangent_cone",
          "triangulate.cone_triangulation", "triangulate.half_open_decompose",
          "genfun.dilation_polynomial")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_import():
    """Import matropt from this checkout's src/, dropping any earlier copy so
    that module-level caches start empty."""
    for name in [m for m in sys.modules if m == "matropt" or m.startswith("matropt.")]:
        del sys.modules[name]
    import matropt.cli

    if Path(matropt.cli.__file__).resolve().parent != SRC / "matropt":
        raise ImportError(f"matropt imported from {matropt.cli.__file__}, not {SRC}")
    return matropt.cli


def setup(workload, seed, directory):
    """Generate and write the inputs, then import matropt; returns the
    calibrated seconds this took (setup_s) and the operations."""
    with SpeedSampler() as speed:
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        ops = workloads.WORKLOADS[workload](seed, directory)
        fresh_import()
    return speed.calibrated, ops


def run_pass(cli, ops, tracer=None):
    """Run every operation once; returns the pass's SpeedSampler and
    [(stdout, error, latency)]."""
    results = []
    gc.collect()
    with SpeedSampler() as speed:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(i)
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            error = None
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(op.argv))
                if code != 0:
                    error = f"exit code {code}: {err.getvalue().strip()}"
            except SystemExit as exc:
                error = f"exit {exc.code}: {err.getvalue().strip()}"
            except Exception:
                error = traceback.format_exc()
            results.append((out.getvalue(), error, time.perf_counter() - t0))
    if tracer is not None:
        tracer.finish()
    return speed, results


def digest(results):
    h = hashlib.sha256()
    for stdout, _, _ in results:
        h.update(stdout.encode("utf-8"))
    return h.hexdigest()


def check(ops, results):
    """Oracle verdict per operation: (failure or None, found, total)."""
    verdicts = []
    for op, (stdout, error, _) in zip(ops, results):
        if error is not None:
            verdicts.append((error, 0, 0))
            continue
        try:
            found, total = op.check(stdout)
            verdicts.append((None, found, total))
        except Exception as exc:  # malformed output fails its operation, not the run
            verdicts.append((f"{type(exc).__name__}: {exc}", 0, 0))
    return verdicts


def latency_table(ops, passes):
    """Per operation kind: sample count, median, the highest of p90/p99 with
    at least ten samples beyond it, and max, in ms."""
    by_kind = {}
    for results in passes:
        for op, (_, _, latency) in zip(ops, results):
            by_kind.setdefault(op.kind, []).append(latency * 1e3)
    table = {}
    for kind, v in by_kind.items():
        row = {"n": len(v), "median_ms": statistics.median(v), "max_ms": max(v)}
        for p in (99, 90):
            if len(v) * (100 - p) >= 1000:
                row[f"p{p}_ms"] = statistics.quantiles(v, n=100)[p - 1]
                break
        table[kind] = row
    return table


def provenance(workload, seed, n_ops):
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "operations": n_ops,
    }


def commit_id():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def layer_metrics(tracer, untraced_s, traced_speed):
    """Per-layer metrics of the traced pass; span seconds are calibrated with
    the traced pass's own speed, like run_s."""
    inclusive, self_s, calls = tracer.summary()
    counts = tracer.counts
    scale = traced_speed.calibrated / traced_speed.wall
    traced_s = traced_speed.calibrated
    m = {}
    for name in SPAN_S:
        m[f"{name}.s"] = (inclusive[name] * scale, "s")
    for name in SPAN_SELF_S:
        m[f"{name}.self_s"] = (self_s[name] * scale, "s")
    for name in COUNTS:
        m[name] = (counts[name], "count")
    for name in SPAN_CALLS:
        m[f"{name}.calls"] = (calls[name], "count")
    m["heuristics.searches"] = (calls["heuristics.local_search"] + calls["heuristics.tabu_search"],
                                "count")
    m["heuristics.pivot_test.hit_ratio"] = (
        ratio(counts["heuristics.pivot_test.found"], counts["heuristics.pivot_test.targets"]),
        "ratio")
    m["matroid.rank_hit_ratio"] = (
        1 - ratio(counts["matroid.rank_of.distinct"], counts["matroid.rank_of.calls"]), "ratio")
    m["matroid.random_basis.accept_ratio"] = (
        ratio(calls["matroid.random_basis"], counts["matroid.random_basis.draws"]), "ratio")
    m["io.load_s"] = ((inclusive["io.load_matroid"] + inclusive["io.load_weights"]) * scale, "s")
    m["cli.self_s"] = m.pop("cli.main.self_s")
    m["trace_overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    return m


def ratio(a, b):
    return a / b if b else 0.0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "matropt" / "cli.py").is_file():
        print(f"error: no matropt sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{tag}-{os.getpid()}"
    try:
        return benchmark(args, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def benchmark(args, tag, workdir):
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, ops = setup(args.workload, args.seed, workdir)
        setups.append(seconds)
    setup_s = statistics.median(setups)

    detail = {"provenance": provenance(args.workload, args.seed, len(ops)),
              "setup_s": setups}
    if args.trace:
        # Untraced passes on both sides of the traced one: the traced pass
        # is compared with their median, so that neither the first pass of
        # the process nor a drift across the three stands in for overhead.
        first_speed, first = run_pass(fresh_import(), ops)
        tracer = tracing.Tracer()
        cli = fresh_import()
        tracing.instrument(tracer)
        traced_speed, traced = run_pass(cli, ops, tracer)
        last_speed, last = run_pass(fresh_import(), ops)  # also drops the wrappers
        passes = [first, traced, last]
        untraced = [first, last]
        speeds = [first_speed, last_speed]
    else:
        speeds, passes = [], []
        budget_start = time.perf_counter()
        while True:
            speed, results = run_pass(fresh_import(), ops)
            speeds.append(speed)
            passes.append(results)
            elapsed = time.perf_counter() - budget_start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        untraced = passes
    times = [speed.calibrated for speed in speeds]
    walls = [speed.wall for speed in speeds]

    verdicts = check(ops, passes[0])
    digests = [digest(results) for results in passes]
    attempted = failed = 0
    for results, d in zip(passes, digests):
        pass_verdicts = verdicts if d == digests[0] else check(ops, results)
        attempted += len(ops)
        failed += sum(1 for v in pass_verdicts if v[0] is not None)
    found = sum(v[1] for v in verdicts)
    total = sum(v[2] for v in verdicts)
    # Workloads without oracle point sets have nothing to miss.
    recall = found / total if total else 1.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    run_s = statistics.median(times)
    end_to_end = {"setup_s": (setup_s, "s"), "run_s": (run_s, "s"),
                  "search_recall": (recall, "ratio"), "peak_rss_mb": (peak_rss_mb, "MB")}
    detail.update({
        "pass_s": times,
        "pass_wall_s": walls,
        "kernel_samples": [len(speed.samples) for speed in speeds],
        "kernel_mean_s": [statistics.mean(speed.samples) for speed in speeds],
        "stdout_sha256": digests[0],
        "digests_agree": len(set(digests)) == 1,
        "fail_frac": failed / attempted,
        "recall_points": [found, total],
        "latency": latency_table(ops, untraced),
        "ops": [op.argv for op in ops],
        "op_latency_ms": [[r[2] * 1e3 for r in results] for results in untraced],
        "failures": [{"op": i, "argv": ops[i].argv, "error": v[0]}
                     for i, v in enumerate(verdicts) if v[0] is not None],
    })
    if args.trace:
        metrics = layer_metrics(tracer, statistics.median(times), traced_speed)
        scale = traced_speed.calibrated / traced_speed.wall
        detail["traced_pass_s"] = traced_speed.calibrated
        detail["traced_pass_wall_s"] = traced_speed.wall
        detail["stages_per_op"] = [
            {"op": i, "kind": ops[i].kind, **{k: v * scale for k, v in split.items()}}
            for i, split in sorted(tracer.per_op(STAGES).items())]
        with gzip.open(OUT / f"{tag}-spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec) + "\n")
    else:
        metrics = end_to_end
    detail["metrics"] = {k: v[0] for k, v in metrics.items()}
    detail["end_to_end"] = {k: v[0] for k, v in end_to_end.items()}

    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, separators=(",", ":"))

    print(f"# {json.dumps(detail['provenance'], sort_keys=True)}")
    print(f"# stdout sha256 {digests[0]} over {len(passes)} pass(es), "
          f"identical: {detail['digests_agree']}")
    for kind, row in sorted(detail["latency"].items()):
        print(f"# latency {kind}: " + " ".join(
            f"{k.removesuffix('_ms')}={v:.3f} ms" if k != "n" else f"n={v}" for k, v in row.items()))
    for v in verdicts:
        if v[0] is not None:
            print(f"# FAILED: {v[0].splitlines()[-1]}")
    print(f"fail_frac {failed / attempted} ratio")
    print(f"run_wall_s {statistics.median(walls)} s")
    for name, (value, unit) in {**end_to_end, **metrics}.items():
        print(f"{name} {value} {unit}")
    correct = failed == 0 and len(set(digests)) == 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
