"""End-to-end "reproduce the paper" benchmark.

Every repeat of a workload runs in a fresh child process (see
``child.py``), single-threaded, with no result cache and no
observability, because that is what a ``repro-experiments`` user pays.

Usage, from the repository root::

    python benchmarks/e2e/run.py [--workloads W,..] [--seed N] [--repeats N]
                                 [--seconds S] [--trace] [--sets N] [--out PATH]
    python benchmarks/e2e/run.py --compare PARENT.json CHANGE.json
    python benchmarks/e2e/run.py --write-reference [--workloads W,..]
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The first form prints every metric by name and unit, checks every
output, and writes a JSON artifact (default ``benchmarks/e2e/out/e2e.json``,
with ``spans_<workload>.json`` beside it when ``--trace`` is given). It
exits 1 if any op failed, a traced layer never fired on its home
workload, or (with ``--sets 2``) two sets' medians differ by more than a
metric's bound. The last form measures one workload and prints, as its
last line, one JSON object holding the metrics ``BENCHMARK.json`` lists:
its ``end_to_end`` metrics, or with ``--trace 1`` its ``per_layer``
metrics from traced runs. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":
    # Import the benchmark as a package from the checkout root, not from
    # this directory, where trace.py would shadow the standard library.
    sys.path[0] = str(ROOT)

from benchmarks.e2e.compare import (  # noqa: E402
    compare_rows,
    describe,
    format_compare,
    layer_rows,
    set_disagreements,
)
from benchmarks.e2e.workloads import METRICS, WORKLOADS, Workload  # noqa: E402

#: Set-up-only children per measurement, on top of one set-up sample
#: per repeat, so even a one-repeat run reports a median set-up time.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0
DEFAULT_OUT = ROOT / "benchmarks" / "e2e" / "out" / "e2e.json"


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed op)."""


def child_env() -> dict[str, str]:
    """The environment of every child: one BLAS thread, no cache, no obs."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_OBS", "REPRO_CACHE_DIR")
    }
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run one child to completion and return its report."""
    command = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", workload, "--seed", str(seed), *flags, "--spawned-at",
    ]
    command.append(repr(time.monotonic()))
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(
            f"{workload} child exceeded {CHILD_TIMEOUT_S:.0f} s"
        ) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise BenchmarkError(
            f"{workload} child exited {proc.returncode}:\n{tail}"
        )
    return json.loads(lines[-1])


def _repeat(run_one, repeats: int | None, seconds: float | None) -> list[dict]:
    """Call ``run_one`` ``repeats`` times, or, given ``seconds``, while the
    next repeat is projected to end within that many seconds (at least
    once)."""
    reports: list[dict] = []
    start = time.monotonic()
    while True:
        reports.append(run_one())
        n = len(reports)
        if seconds is None:
            if n >= repeats:
                return reports
        elif (time.monotonic() - start) * (n + 1) / n > seconds:
            return reports


def _failures(reports: list[dict]) -> list[str]:
    return [
        f"{call['label']}: {problem}"
        for report in reports
        for call in report["calls"]
        for problem in call.get("problems", ())
    ]


def measure(
    workload: Workload, seed: int, repeats: int | None, seconds: float | None
) -> dict:
    """The untraced repeats of one workload and their end-to-end metrics."""
    name = workload.name
    setup = [
        spawn(name, seed, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)
    ]
    reports = _repeat(lambda: spawn(name, seed), repeats, seconds)
    samples = {
        "wall_s": [r["wall_s"] for r in reports],
        "setup_s": setup + [r["setup_s"] for r in reports],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
        "sim_server_hours_per_s": [
            workload.server_hours / r["wall_s"] for r in reports
        ],
        "paper_err_pct": [
            r["paper_err_pct"] for r in reports if r.get("paper_err_pct") is not None
        ],
    }
    metrics = {}
    for metric in METRICS:
        if metric.applies_to(name) and samples[metric.name]:
            metrics[metric.name] = {
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
                "absolute": metric.absolute,
                **describe(samples[metric.name]),
            }
    return {
        "seed": seed,
        "repeats": len(reports),
        "ops": sum(r["ops"] for r in reports),
        "failed_ops": sum(r["failed_ops"] for r in reports),
        "failures": _failures(reports),
        "calls": [r["calls"] for r in reports],
        "metrics": metrics,
    }


def trace_run(workload: Workload, seed: int, out_dir: Path) -> dict:
    """One traced run; its spans go to ``spans_<workload>.json``."""
    path = out_dir / f"spans_{workload.name}.json"
    report = spawn(workload.name, seed, "--spans", str(path))
    return {
        "run_id": report["run_id"],
        "spans": path.name,
        "wall_s": report["wall_s"],
        "ops": report["ops"],
        "failed_ops": report["failed_ops"],
        "failures": _failures([report]),
        "missing_layers": report["missing_layers"],
        "layers": report["layers"],
    }


def _print_result(name: str, result: dict) -> None:
    print(
        f"{name}: {result['repeats']} repeats, ops {result['ops']}, "
        f"failed_ops {result['failed_ops']}"
    )
    for metric, stats in result["metrics"].items():
        print(
            f"  {metric:<24} {stats['median']:>12.6g} {stats['unit']:<11} "
            f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  max {stats['max']:.6g}  "
            f"n {stats['n']}"
        )
    trace = result.get("trace")
    if trace:
        print(
            f"  trace: wall {trace['wall_s']:.3f} s, overhead "
            f"{trace['overhead_pct']:+.1f}%, spans {trace['spans']}"
        )
    for failure in result["failures"] + (trace or {}).get("failures", []):
        print(f"  FAILED {failure}")
    for layer in (trace or {}).get("missing_layers", []):
        print(f"  MISSING layer {layer} never fired")


def _workload_names(args: argparse.Namespace) -> list[str]:
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; choose from {list(WORKLOADS)}")
    return names


def run_sets(args: argparse.Namespace) -> int:
    names = _workload_names(args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    artifact = {
        "schema": "e2e.bench/1",
        "meta": {
            "seed": args.seed,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "sets": [],
    }
    problems: list[str] = []
    for _ in range(args.sets):
        run_set = {}
        for name in names:
            workload = WORKLOADS[name]
            result = measure(
                workload, args.seed, args.repeats or workload.repeats, args.seconds
            )
            if args.trace:
                trace = trace_run(workload, args.seed, out.parent)
                trace["overhead_pct"] = 100.0 * (
                    trace["wall_s"] / result["metrics"]["wall_s"]["median"] - 1.0
                )
                result["trace"] = trace
                problems += [
                    f"{name}: layer {m} never fired" for m in trace["missing_layers"]
                ]
                if trace["failed_ops"]:
                    problems.append(f"{name}: {trace['failed_ops']} traced ops failed")
            if result["failed_ops"]:
                problems.append(f"{name}: {result['failed_ops']} ops failed")
            _print_result(name, result)
            run_set[name] = result
        artifact["sets"].append(run_set)
    if args.sets > 1:
        problems += set_disagreements(artifact)
    out.write_text(json.dumps(artifact, indent=1) + "\n")
    print(f"wrote {out}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def write_references(args: argparse.Namespace) -> int:
    for name in _workload_names(args):
        seeds = (0, 1) if not WORKLOADS[name].experiments else (0,)
        for seed in seeds:
            report = spawn(name, seed, "--write-reference")
            written = [
                c["label"] for c in report["calls"] if c.get("reference_written")
            ]
            print(f"{name} seed {seed}: wrote {written or 'nothing (golden-pinned)'}")
    return 0


def driver(args: argparse.Namespace) -> int:
    """Measure one workload; print the BENCHMARK.json metrics as JSON."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    if args.trace:
        out_dir = Path(args.out).parent
        out_dir.mkdir(parents=True, exist_ok=True)
        runs = _repeat(
            lambda: trace_run(workload, args.seed, out_dir),
            args.repeats or 1,
            args.seconds,
        )
        values = {
            name: statistics.median(run["layers"][name] for run in runs)
            for name in runs[0]["layers"]
        }
        listed = spec["per_layer"]
        attempted = sum(run["ops"] for run in runs)
        failed = sum(run["failed_ops"] for run in runs)
        missing = sorted({m for run in runs for m in run["missing_layers"]})
        failures = [f for run in runs for f in run["failures"]]
    else:
        result = measure(
            workload, args.seed, args.repeats or workload.repeats, args.seconds
        )
        values = {name: stats["median"] for name, stats in result["metrics"].items()}
        listed = spec["end_to_end"]
        attempted, failed = result["ops"], result["failed_ops"]
        missing, failures = [], result["failures"]
    metrics = {}
    for entry in listed:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']} {values[entry['name']]!r} {entry['unit']}")
    for failure in failures:
        print(f"FAILED {failure}")
    for layer in missing:
        print(f"MISSING layer {layer} never fired")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not missing,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description='End-to-end "reproduce the paper" benchmark.',
    )
    parser.add_argument("--workloads", help="comma-separated workload names")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload; last line is a JSON result")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, help="repeats per workload")
    parser.add_argument("--seconds", type=float,
                        help="repeat while the next repeat fits in this budget")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add a traced run (per-layer metrics)")
    parser.add_argument("--sets", type=int, default=1,
                        help="full sets to run; >1 fails on median disagreement")
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="artifact path")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--write-reference", action="store_true",
                        help="record reference fingerprints of this commit")
    args = parser.parse_args(argv)
    for option in ("repeats", "seconds", "sets"):
        value = getattr(args, option)
        if value is not None and value <= 0:
            parser.error(f"--{option} must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)
    try:
        if args.compare:
            parent, change = (json.loads(Path(p).read_text()) for p in args.compare)
            rows = compare_rows(parent, change)
            print(format_compare(rows, layer_rows(parent, change)))
            return 0
        if args.write_reference:
            return write_references(args)
        if args.workload:
            return driver(args)
        return run_sets(args)
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
