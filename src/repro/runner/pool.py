"""The parallel sweep engine: fan independent evaluations over processes.

:func:`sweep` is the one entry point. It takes a *top-level* function
and a list of items, evaluates ``func(item)`` for each, and returns the
results **in item order** regardless of completion order — callers can
zip results back onto their inputs and downstream reductions (argmin
over a melting-point grid, table rows in paper order) are identical to
a serial run.

Execution strategy, in order of preference:

* ``jobs == 1`` (the default) or a single item — run serially
  in-process. No pickling requirement, no worker processes, byte-
  identical behaviour to the pre-runner code.
* ``jobs > 1`` — fan out over a ``ProcessPoolExecutor``. A task that
  raises fails the sweep with a :class:`RunnerError` naming the item
  index.
* **graceful degradation** — if the function cannot be pickled (a
  lambda, a closure) or the pool dies mid-sweep
  (``BrokenProcessPool``), the remaining items run serially in-process
  instead of failing the sweep. The fallback is counted under
  ``runner.pool_fallbacks`` so it is visible, not silent.

Workers run in separate processes, so observability counters they
increment stay in the worker — the sweep itself reports scheduling
counters (``runner.sweeps``, ``runner.tasks``,
``runner.parallel_tasks``) in the parent process.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro.errors import RunnerError
from repro.obs import get_registry


def _abandon(executor: ProcessPoolExecutor) -> None:
    """Discard an executor on the error path. Its workers may still be
    running tasks the failed sweep no longer needs, and
    ``shutdown(wait=False)`` alone leaves each such worker alive until
    its call returns on its own; kill the workers outright instead.
    ``_processes`` is private executor state, hence the defensive
    ``getattr``: if a future interpreter renames it, we degrade to the
    leak-until-done behaviour, not a crash. The snapshot happens
    *before* shutdown, which drops the executor's own reference to the
    process table."""
    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.kill()
        except Exception:  # noqa: BLE001 - already-reaped process etc.
            pass


def _failure(func: Callable, index: int, error: BaseException) -> RunnerError:
    return RunnerError(
        f"sweep task {index} ({getattr(func, '__qualname__', func)!r}) "
        f"failed: {error!r}"
    )


def _run_serial(func: Callable, item: Any, index: int) -> Any:
    try:
        return func(item)
    except Exception as error:  # noqa: BLE001 - reported via RunnerError
        raise _failure(func, index, error) from error


def sweep(
    func: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    jobs: int = 1,
    label: str = "runner.sweep",
) -> list[Any]:
    """Evaluate ``func`` over ``items``; results in item order.

    Parameters
    ----------
    func:
        A single-argument callable. For ``jobs > 1`` it must be a
        module-level function (picklable); otherwise the sweep falls
        back to serial execution.
    jobs:
        Worker processes. ``1`` runs serially in-process.
    label:
        Name of the timer that spans the sweep.
    """
    if jobs < 1:
        raise RunnerError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    obs = get_registry()
    obs.count("runner.sweeps")
    obs.count("runner.tasks", len(items))
    with obs.timer(label):
        return _execute(func, items, jobs)


def _execute(func: Callable[[Any], Any], items: list[Any], jobs: int) -> list[Any]:
    """Run every task; returns values aligned with ``items``."""
    obs = get_registry()
    if jobs == 1 or len(items) <= 1:
        return [_run_serial(func, item, index) for index, item in enumerate(items)]

    try:
        pickle.dumps(func)
    except Exception:  # noqa: BLE001 - any pickling failure means "can't ship"
        obs.count("runner.pool_fallbacks")
        return [_run_serial(func, item, index) for index, item in enumerate(items)]

    results: list[Any] = [None] * len(items)
    obs.count("runner.parallel_tasks", len(items))
    executor = ProcessPoolExecutor(max_workers=min(jobs, len(items)))
    clean_exit = False
    try:
        futures = [executor.submit(func, item) for item in items]
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                # The pool died (OOM-killed worker, interpreter crash):
                # finish everything not yet collected in-process rather
                # than losing the sweep.
                obs.count("runner.pool_fallbacks")
                for tail in range(index, len(items)):
                    results[tail] = _run_serial(func, items[tail], tail)
                return results
            except Exception as error:  # noqa: BLE001
                raise _failure(func, index, error) from error
        clean_exit = True
        return results
    finally:
        if clean_exit:
            executor.shutdown(wait=True)
        else:
            # Error path: the other workers may still be running tasks
            # the failed sweep no longer needs; kill them rather than
            # leaking processes.
            _abandon(executor)
