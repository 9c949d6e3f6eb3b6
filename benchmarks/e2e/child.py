"""One repeat of one workload, in a fresh process.

``run.py`` starts this as ``python -m benchmarks.e2e.child`` with the
workload, the seed and the monotonic time at which it spawned the
process. The child prepares the workload's inputs (that is set-up),
makes each call in turn (a closed loop: one call after the previous one
returns), then checks every output and prints one JSON report as the
last line of its standard output.

With ``--spans PATH`` set-up and calls run traced (see ``layers.py``)
and the spans are written to PATH; with ``--setup-only`` the child
exits as soon as its inputs are ready; with ``--write-reference`` it
records each output not pinned by a golden file as the expected
fingerprint before checking it.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Sequence

from benchmarks.e2e.workloads import WORKLOADS, Workload


@dataclass
class Op:
    """One measured call and how to check its output.

    ``check(output)`` returns mismatch messages (empty means correct);
    ``reference(output)`` records the output as the expected fingerprint,
    or returns False when the output is pinned elsewhere (a golden file).
    Both import :mod:`benchmarks.e2e.checks` when first called, so the
    test helpers it loads stay out of set-up.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    reference: Callable[[object], bool]


def paper_order(workload: Workload, seed: int) -> list[str]:
    """The seed's permutation of the workload's experiments."""
    ids = list(workload.experiments)
    random.Random(seed).shuffle(ids)
    return ids


def _experiment_op(registry, eid: str, quick: bool) -> Op:
    def call():
        # Looked up at call time, so a traced run reaches the wrapper.
        return registry.run_experiment(eid, quick=quick, jobs=1, cache=False)

    def check(result) -> list[str]:
        from benchmarks.e2e import checks

        path, _ = checks.experiment_expected(eid, quick)
        return checks.check_against(path, checks.experiment_fingerprint(result, quick))

    def reference(result) -> bool:
        from benchmarks.e2e import checks

        path, golden = checks.experiment_expected(eid, quick)
        if not golden:
            checks.write_reference(path, checks.experiment_fingerprint(result, quick))
        return not golden

    return Op(eid, call, check, reference)


def paper_ops(workload: Workload, seed: int) -> list[Op]:
    from repro.experiments import registry

    return [
        _experiment_op(registry, eid, workload.quick)
        for eid in paper_order(workload, seed)
    ]


def event_inputs(seed: int):
    """The event-mode workload's simulator, built from the seed."""
    from repro.dcsim.cluster import ClusterTopology
    from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig
    from repro.materials.library import commercial_paraffin_with_melting_point
    from repro.server.characterization import characterize_platform
    from repro.server.configs import one_u_commodity
    from repro.units import hours
    from repro.workload.synthetic import diurnal_trace

    rng = random.Random(seed)
    spec = one_u_commodity()
    trace = diurnal_trace(
        duration_s=hours(6.0),
        peak_hour=13.5 + rng.uniform(-1.5, 1.5),
        peak=rng.uniform(0.92, 0.95),
    )
    return DatacenterSimulator(
        characterize_platform(spec),
        spec.power_model,
        commercial_paraffin_with_melting_point(43.0),
        trace,
        topology=ClusterTopology(server_count=1008),
        config=SimulationConfig(mode="event", engine="batched", seed=seed),
    )


def event_ops(workload: Workload, seed: int) -> list[Op]:
    simulator = event_inputs(seed)

    def check(result) -> list[str]:
        from benchmarks.e2e import checks

        problems = checks.simulation_invariants(simulator, result)
        path = checks.simulation_expected(workload.name, seed)
        if path.exists():
            problems += checks.check_against(
                path, checks.simulation_fingerprint(result)
            )
        return problems

    def reference(result) -> bool:
        from benchmarks.e2e import checks

        path = checks.simulation_expected(workload.name, seed)
        checks.write_reference(path, checks.simulation_fingerprint(result))
        return True

    return [Op(workload.name, lambda: simulator.run(), check, reference)]


def prepare(workload: Workload, seed: int) -> list[Op]:
    if workload.experiments:
        return paper_ops(workload, seed)
    return event_ops(workload, seed)


def execute(ops: Sequence[Op], write_reference: bool = False) -> dict:
    """Make every call, then check every output.

    A call that raises or whose output fails its check is a failed op;
    neither stops the remaining calls. Checks run after the last call
    returns, outside the measured interval.
    """
    records = []
    outputs = []
    first = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        try:
            output, error = op.call(), None
        except Exception:
            output, error = None, traceback.format_exc(limit=4)
        records.append({"label": op.label, "call_s": time.perf_counter() - start})
        outputs.append((output, error))
    last = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op, record, (output, error) in zip(ops, records, outputs):
        if error is None and write_reference:
            record["reference_written"] = op.reference(output)
        problems = [error] if error is not None else op.check(output)
        record["ok"] = not problems
        if problems:
            record["problems"] = problems[:5]
    return {
        "wall_s": last - first,
        "peak_rss_mb": peak_rss_mb,
        "ops": len(ops),
        "failed_ops": sum(not r["ok"] for r in records),
        "calls": records,
        "outputs": [output for output, _ in outputs],
    }


def traced(workload: Workload, seed: int, spans_path: str) -> dict:
    """Set up and run the calls with every layer wrapped and repro.obs
    counting. Set-up is traced too, so work done while building the
    inputs (such as characterizing the platform) is attributed."""
    from repro import obs

    from benchmarks.e2e.layers import TARGETS, layer_metrics, missing_layers
    from benchmarks.e2e.trace import Tracer

    run_id = f"{workload.name}-seed{seed}"
    tracer = Tracer(run_id)
    obs.reset()
    obs.enable()
    tracer.install(TARGETS)
    try:
        outcome = execute(prepare(workload, seed))
    finally:
        tracer.uninstall()
        obs.disable()
    layers = layer_metrics(tracer.summary(), obs.snapshot().counters)
    tracer.write(spans_path, workload=workload.name, seed=seed)
    outcome["layers"] = layers
    outcome["missing_layers"] = missing_layers(workload.name, layers)
    outcome["run_id"] = run_id
    return outcome


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--spans", metavar="PATH")
    mode.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.spans:
        report = traced(workload, args.seed, args.spans)
    else:
        ops = prepare(workload, args.seed)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        report = execute(ops, write_reference=args.write_reference)
        report["setup_s"] = setup_s
    if workload.experiments:
        from benchmarks.e2e.checks import paper_error_pct

        results = [r for r in report["outputs"] if r is not None]
        report["paper_err_pct"] = paper_error_pct(results)
    del report["outputs"]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
