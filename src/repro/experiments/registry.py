"""Experiment result type, registry, and command-line entry point.

Execution plumbing lives on :mod:`repro.runner`:

* ``--jobs N`` / the ``jobs`` keyword fan work over worker processes —
  across experiments in :func:`run_all`, and inside any experiment
  whose ``run()`` accepts a ``jobs`` argument (the blockage sweep, the
  cluster studies, the ablations).
* ``--cache DIR`` / the ``cache`` keyword (or ``REPRO_CACHE_DIR``)
  turn on the content-addressed result cache: a re-run of an already
  computed ``(experiment, quick)`` point is a disk read. Off by
  default, so outputs stay byte-identical with no cache directory.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.analysis.tables import format_table
from repro.errors import ExperimentError
from repro.obs import get_registry
from repro.runner.cache import ResultCache, resolve_cache
from repro.runner.pool import sweep
from repro.runner.serialize import (
    decode_experiment_result,
    encode_experiment_result,
)


@dataclass
class ExperimentResult:
    """The output of one experiment.

    ``tables`` maps a caption to (headers, rows); ``series`` maps a series
    name to an array (figure data); ``summary`` maps a short metric name
    to its measured value, with ``paper`` recording the value the paper
    reports for the same metric where one exists.

    ``perf`` holds the observability layer's measurements of the run —
    wall-time breakdown, solver step counts, simulator event counts (see
    :mod:`repro.obs`). It is empty unless collection is enabled
    (``REPRO_OBS=1`` or :func:`repro.obs.enable`), so default outputs are
    unchanged.
    """

    experiment_id: str
    title: str
    tables: dict[str, tuple[list[str], list[list[object]]]] = field(
        default_factory=dict
    )
    series: dict[str, np.ndarray] = field(default_factory=dict)
    summary: dict[str, float] = field(default_factory=dict)
    paper: dict[str, float] = field(default_factory=dict)
    perf: dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable report of the experiment."""
        parts = [f"== {self.experiment_id}: {self.title} =="]
        for caption, (headers, rows) in self.tables.items():
            parts.append(format_table(headers, rows, title=caption))
        if self.summary:
            rows = []
            for name, value in self.summary.items():
                paper_value = self.paper.get(name)
                rows.append(
                    [
                        name,
                        f"{value:.4g}",
                        "-" if paper_value is None else f"{paper_value:.4g}",
                    ]
                )
            parts.append(
                format_table(
                    ["metric", "measured", "paper"], rows, title="Summary"
                )
            )
        return "\n\n".join(parts)


#: Experiment id -> implementing module (each has run(quick=False)).
_REGISTRY: dict[str, str] = {
    "table1": "repro.experiments.table1_pcm_properties",
    "table2": "repro.experiments.table2_tco_params",
    "fig1": "repro.experiments.fig1_concept",
    "fig4": "repro.experiments.fig4_validation",
    "fig7": "repro.experiments.fig7_blockage",
    "fig9": "repro.experiments.fig9_ocp_layouts",
    "fig10": "repro.experiments.fig10_workload",
    "fig11": "repro.experiments.fig11_cooling_load",
    "fig11_faults": "repro.experiments.fig11_faults",
    "fig12": "repro.experiments.fig12_throughput",
    "ablations": "repro.experiments.ablations",
    "extensions": "repro.experiments.extensions",
    "control_tournament": "repro.experiments.control_tournament",
}


def all_experiment_ids() -> list[str]:
    """All registered experiment ids, in paper order."""
    return list(_REGISTRY)


def experiment_cache_spec(
    experiment_id: str, quick: bool
) -> dict[str, object]:
    """Cache address of one ``(experiment, quick)`` point.

    Shared by :func:`run_experiment` and :func:`run_all`, so a point
    computed through either answers for both. ``jobs`` is deliberately
    absent: parallelism must not change the result, so a point computed
    with any worker count answers for all.
    """
    return {
        "kind": "experiment",
        "id": experiment_id,
        "quick": bool(quick),
    }


def _call_run(module, quick: bool, jobs: int) -> ExperimentResult:
    """Invoke ``module.run``, passing ``jobs`` only where supported."""
    parameters = inspect.signature(module.run).parameters
    if "jobs" in parameters:
        return module.run(quick=quick, jobs=jobs)
    return module.run(quick=quick)


def run_experiment(
    experiment_id: str,
    quick: bool = False,
    jobs: int = 1,
    cache: ResultCache | str | Path | None = None,
) -> ExperimentResult:
    """Run one experiment by id.

    Parameters
    ----------
    jobs:
        Worker processes for the experiment's internal sweeps (ignored
        by experiments with nothing to fan out).
    cache:
        A :class:`~repro.runner.cache.ResultCache`, a cache directory,
        or ``None`` to fall through to ``REPRO_CACHE_DIR`` (and run
        uncached when that is unset). On a hit the stored result is
        returned without running anything; ``perf`` is left empty, as
        the stored run's measurements would misdescribe the lookup.
    """
    try:
        module_name = _REGISTRY[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; choose from "
            f"{all_experiment_ids()}"
        ) from None
    module = importlib.import_module(module_name)
    store = resolve_cache(cache)
    spec = experiment_cache_spec(experiment_id, quick)
    if store is not None:
        from repro.runner.cache import MISS

        payload = store.get(spec)
        if payload is not MISS:
            return decode_experiment_result(payload)

    registry = get_registry()
    if not registry.enabled:
        result = _call_run(module, quick, jobs)
    else:
        with registry.collect() as collection:
            with registry.timer(f"experiment.{experiment_id}"):
                result = _call_run(module, quick, jobs)
        result.perf = collection.report.perf_section()
    if store is not None:
        store.put(spec, encode_experiment_result(result))
    return result


def _run_encoded(task: tuple) -> dict[str, object]:
    """Sweep worker for :func:`run_all`: run one experiment, return it
    in the codec's value space (cheap to pickle, ready to cache)."""
    experiment_id, quick = task
    return encode_experiment_result(
        run_experiment(experiment_id, quick=quick, jobs=1, cache=False)
    )


def run_all(
    experiment_ids: Sequence[str] | None = None,
    quick: bool = False,
    jobs: int = 1,
    cache: ResultCache | str | Path | None = None,
) -> list[ExperimentResult]:
    """Run several experiments, optionally fanned across processes.

    Results come back in request order. Cache hits are resolved in the
    parent process under the same addresses :func:`run_experiment`
    uses, so serial and parallel runs share one cache population.
    """
    ids = list(experiment_ids) if experiment_ids else all_experiment_ids()
    unknown = [eid for eid in ids if eid not in _REGISTRY]
    if unknown:
        raise ExperimentError(
            f"unknown experiments {unknown}; choose from "
            f"{all_experiment_ids()}"
        )
    store = resolve_cache(cache)

    results: list[ExperimentResult | None] = [None] * len(ids)
    pending: list[int] = []
    if store is not None:
        from repro.runner.cache import MISS

        for index, eid in enumerate(ids):
            payload = store.get(experiment_cache_spec(eid, quick))
            if payload is MISS:
                pending.append(index)
            else:
                results[index] = decode_experiment_result(payload)
    else:
        pending = list(range(len(ids)))

    if len(pending) > 1 and jobs > 1:
        encoded = sweep(
            _run_encoded,
            [(ids[index], quick) for index in pending],
            jobs=jobs,
            label="runner.experiments",
        )
        for index, payload in zip(pending, encoded):
            results[index] = decode_experiment_result(payload)
            if store is not None:
                store.put(experiment_cache_spec(ids[index], quick), payload)
    else:
        for index in pending:
            # The pre-check above already established these are misses;
            # run uncached and store parent-side (like the parallel
            # path) so each miss is counted and fetched exactly once.
            result = run_experiment(
                ids[index], quick=quick, jobs=jobs, cache=False
            )
            results[index] = result
            if store is not None:
                store.put(
                    experiment_cache_spec(ids[index], quick),
                    encode_experiment_result(result),
                )
    return [result for result in results if result is not None]


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: run and print experiments."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sweeps for a fast smoke run",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes: across experiments when several are "
        "requested, inside the experiment otherwise (default 1 = serial)",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const=".repro-cache",
        default=None,
        metavar="DIR",
        help="content-addressed result cache directory (default off; "
        "bare --cache uses %(const)s, REPRO_CACHE_DIR also enables it)",
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        help="also export series CSVs, summary JSONs, and rendered tables",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    ids = args.experiments or all_experiment_ids()
    results = run_all(ids, quick=args.quick, jobs=args.jobs, cache=args.cache)
    for result in results:
        print(result.render())
        if result.perf:
            wall = result.perf.get("wall_time_s", 0.0)
            counters = result.perf.get("counters", {})
            interesting = {
                name: value
                for name, value in counters.items()
                if name.startswith(("solver.", "dcsim.", "runner."))
            }
            print(f"\n[perf] wall {wall:.3f}s  " + "  ".join(
                f"{name}={value}" for name, value in sorted(interesting.items())
            ))
        print()
        if args.output_dir:
            from repro.experiments.export import export_result

            for path in export_result(result, args.output_dir):
                print(f"wrote {path}")
    registry = get_registry()
    if registry.enabled:
        counters = registry.snapshot().counters
        cache_lines = "  ".join(
            f"{name}={value}"
            for name, value in sorted(counters.items())
            if name.startswith("runner.cache.")
        )
        if cache_lines:
            print(f"[cache] {cache_lines}")
    return 0
