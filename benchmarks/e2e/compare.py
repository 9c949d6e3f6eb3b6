"""Sample statistics, verdicts between two artifacts, and set agreement.

The verdict rule is the one in the choosing-metrics guide (section 8):

* **improved** — over at least ten pairs, the change wins at least nine
  tenths of the pairs (ties count for neither side) and the medians
  differ, in the change's favour, by more than the parent's
  interquartile range;
* **regressed** — the change's median is worse than the parent's by
  more than the metric's bound, and either the same rule holds in the
  parent's favour or the run-to-run spread is within the bound;
* **unresolved** — the spread (interquartile range over the median, the
  wider of the two sides) is wider than the bound, unless every run of
  the change reads better than every run of the parent;
* **unchanged** — otherwise.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

from benchmarks.e2e.workloads import METRICS_BY_NAME, Metric

MIN_PAIRS = 10
WIN_SHARE = 0.9


def describe(samples: Sequence[float]) -> dict:
    """Median, quartiles, max and count of a sample list."""
    values = list(samples)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "samples": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "max": max(values),
        "n": len(values),
    }


def spread(metric: Metric, samples: Sequence[float]) -> float:
    """Interquartile range, as a share of the median unless the bound is
    absolute (then in the metric's unit)."""
    stats = describe(samples)
    width = stats["q3"] - stats["q1"]
    if metric.absolute:
        return width
    return width / abs(stats["median"]) if stats["median"] else 0.0


def _better(metric: Metric, a: float, b: float) -> bool:
    return a < b if metric.better == "lower" else a > b


def _significant(metric: Metric, base: Sequence[float], other: Sequence[float]) -> bool:
    """Whether ``other`` beats ``base`` by the section 8 rule."""
    pairs = list(zip(base, other))
    if len(pairs) < MIN_PAIRS:
        return False
    wins = sum(_better(metric, o, b) for b, o in pairs)
    stats = describe(base)
    gap = abs(statistics.median(other) - stats["median"])
    return (
        wins >= WIN_SHARE * len(pairs)
        and gap > stats["q3"] - stats["q1"]
        and _better(metric, statistics.median(other), stats["median"])
    )


def verdict(metric: Metric, parent: Sequence[float], change: Sequence[float]) -> str:
    """improved, regressed, unresolved or unchanged (see module docstring)."""
    if _significant(metric, parent, change):
        return "improved"
    noisy = max(spread(metric, parent), spread(metric, change)) > metric.bound
    worse = metric.worse_by(statistics.median(parent), statistics.median(change))
    if worse > metric.bound and (_significant(metric, change, parent) or not noisy):
        return "regressed"
    if noisy and not (
        all(_better(metric, c, p) for c in change for p in parent)
    ):
        return "unresolved"
    return "unchanged"


def pooled(artifact: dict) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> samples, pooled over every set in an artifact."""
    out: dict[str, dict[str, list[float]]] = {}
    for run_set in artifact["sets"]:
        for workload, result in run_set.items():
            for name, stats in result["metrics"].items():
                out.setdefault(workload, {}).setdefault(name, []).extend(
                    stats["samples"]
                )
    return out


def compare_rows(parent: dict, change: dict) -> list[dict]:
    """One row per (metric, workload) present in both artifacts."""
    before, after = pooled(parent), pooled(change)
    rows = []
    for name, metric in METRICS_BY_NAME.items():
        for workload in before:
            p = before[workload].get(name)
            c = after.get(workload, {}).get(name)
            if not p or not c:
                continue
            p_med, c_med = statistics.median(p), statistics.median(c)
            rows.append(
                {
                    "metric": name,
                    "workload": workload,
                    "unit": metric.unit,
                    "parent": describe(p),
                    "change": describe(c),
                    "delta": c_med - p_med,
                    "delta_pct": 100.0 * (c_med - p_med) / p_med if p_med else 0.0,
                    "pairs": min(len(p), len(c)),
                    "change_wins": sum(_better(metric, b, a) for a, b in zip(p, c)),
                    "verdict": verdict(metric, p, c),
                }
            )
    return rows


def layer_rows(parent: dict, change: dict) -> list[dict]:
    """Per-layer values of the two artifacts' last traced runs."""
    rows = []
    for workload, result in parent["sets"][-1].items():
        p = (result.get("trace") or {}).get("layers")
        c = (change["sets"][-1].get(workload, {}).get("trace") or {}).get("layers")
        if not p or not c:
            continue
        for name in p:
            if name in c and (p[name] or c[name]):
                rows.append(
                    {
                        "workload": workload,
                        "layer": name,
                        "parent": p[name],
                        "change": c[name],
                    }
                )
    return rows


def format_compare(rows: Iterable[dict], layers: Iterable[dict]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<36} {'parent median [q1, q3]':<30} "
        f"{'change median [q1, q3]':<30} {'delta':>8} {'wins':>6}  verdict"
    ]
    for row in rows:
        p, c = row["parent"], row["change"]
        lines.append(
            f"{row['workload']:<18} {row['metric'] + ' (' + row['unit'] + ')':<36} "
            f"{_fmt(p):<30} {_fmt(c):<30} {row['delta_pct']:>+7.2f}% "
            f"{row['change_wins']:>2}/{row['pairs']:<3}  {row['verdict']}"
        )
    layers = list(layers)
    if layers:
        lines += ["", f"{'workload':<18} {'layer':<44} {'parent':>14} {'change':>14}"]
        for row in layers:
            lines.append(
                f"{row['workload']:<18} {row['layer']:<44} "
                f"{row['parent']:>14.6g} {row['change']:>14.6g}"
            )
    return "\n".join(lines)


def _fmt(stats: dict) -> str:
    return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"


def set_disagreements(artifact: dict) -> list[str]:
    """Metrics whose median in a later set moved, in either direction, by
    more than its bound from the first set's median."""
    problems = []
    first = artifact["sets"][0]
    for later in artifact["sets"][1:]:
        for workload, result in first.items():
            for name, stats in result["metrics"].items():
                metric = METRICS_BY_NAME[name]
                a = stats["median"]
                b = later[workload]["metrics"][name]["median"]
                moved = abs(b - a) if metric.absolute else abs(b - a) / abs(a)
                if moved > metric.bound:
                    problems.append(
                        f"{workload} {name}: medians {a:.6g} and {b:.6g} differ "
                        f"by more than the bound {metric.bound:g}"
                    )
    return problems
