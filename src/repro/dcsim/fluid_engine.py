"""Chunked vectorized time-stepper for fluid-mode simulation.

Two interchangeable engines implement the fluid-mode semantics of
:class:`repro.dcsim.simulator.DatacenterSimulator`, selected by the
``SimulationConfig(engine=...)`` knob that already switches the event
engines:

``reference``
    The verbatim per-tick scalar loop — one trace lookup, one
    :class:`~repro.dcsim.simulator._Plant` decide and one plant step per
    tick. Kept as the plain-to-audit oracle the batched engine must match
    bit for bit.

``batched`` (default)
    A stretch-advancing engine: it precomputes the demand series for the
    full horizon, then detects maximal runs of ticks where nothing can
    change the plan and advances each run in one pass, falling back to
    the *same* scalar tick body at every boundary. Those scalar ticks
    take their element of the series instead of looking the trace up per
    tick.

A stretch of ticks is eligible only when every per-tick hook is provably
inert for its whole span:

* the policy has no ``begin_tick`` clock hook and its **certificate**
  (``conditional_decision(state)``; see
  :meth:`repro.dcsim.throttling.RoomTemperaturePolicy.conditional_decision`)
  returns ``(decision, room, limit)``, asked again at every stretch
  start because scalar ticks move the state it depends on. ``decide``
  returns exactly ``decision``, makes no preview and changes no policy
  state on every tick whose room reads below ``limit``; the stretch
  ends before the first tick whose reading is not below it, and that
  tick runs scalar. A certificate with a limit is used only when its
  ``room`` is the plant's own. ``limit`` ``None`` holds at any room
  temperature (:class:`repro.dcsim.throttling.NoThermalLimit`);
* the fault injector is **dormant** (no active effects, no restoration
  pending) and its next fault boundary lies beyond the stretch
  (:meth:`repro.faults.injector.FaultInjector.next_boundary`) — so
  ``advance_to``/``apply_state``/``observe``/``constrain`` are no-ops
  apart from bookkeeping that :meth:`~repro.faults.injector.FaultInjector.fast_forward`
  replays at the stretch end;
* the thermal state is **uniform across servers** with unit fault
  scales (:meth:`repro.dcsim.simulator._Plant.column`). The plant
  tracks uniformity rather than scanning for it: a batched run without
  inlet offsets starts uniform, and the first per-server step (an
  offline-server tick) clears the flag, so the engine stops stretching
  for the rest of the run once one occurs.

Within a stretch the per-server physics collapses to a scalar recursion
(every server carries identical values), executed in Python floats that
perform exactly the arithmetic the elementwise NumPy step would — while
demand, utilization, throughput, shed work, and the characterization
lookups are computed for the whole stretch as arrays. Recorded totals
(``power``/``release``/``wax`` sums and the ``melt`` mean) come from the
totals plan (:func:`repro.dcsim.thermal_coupling.uniform_totals`), so
each tick's reduction is the same pairwise ``np.sum``/``np.mean`` the
reference loop performs on its per-server rows; room-coupled runs total
the release inside the loop (the room temperature feeds back into the
next tick's inlet).

Bit-identity to the reference loop is the acceptance bar, exactly as
PR 5 held for event mode: both engines must produce byte-identical
``SimulationResult`` payloads for every workload, fault schedule, and
policy. Ticks that do not qualify (stateful policies, active faults,
per-server heterogeneity) execute the reference tick body one by one
through the same code object, so they cannot drift. Its plant step
still computes a uniform cluster as one server column with the stretch
advancer and commits it back after every tick; only per-server
heterogeneity and live fault scales step the arrays.

Observability (when the registry is enabled): ``dcsim.fluid.stretch_ticks``
counts ticks advanced inside stretches, ``dcsim.fluid.scalar_ticks`` the
ticks that took the scalar fallback, and ``dcsim.column_ticks`` (counted
by the plant) the fallback ticks stepped as one column.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.dcsim.simulator import _Plant
from repro.dcsim.thermal_coupling import uniform_total, uniform_totals
from repro.obs import get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dcsim.simulator import DatacenterSimulator, SimulationResult

__all__ = ["run_fluid_mode"]

#: Eligible runs shorter than this execute scalar anyway: below a few
#: ticks the stretch setup (array slicing, series lookups, injector
#: fast-forward) costs more than it saves.
_MIN_STRETCH = 4


def run_fluid_mode(sim: "DatacenterSimulator") -> "SimulationResult":
    """Run ``sim`` in fluid mode with the engine its config selects."""
    loop = _FluidLoop(sim)
    if sim.config.engine == "reference":
        loop.run_reference()
    else:
        loop.run_batched()
    initial_u = float(np.clip(sim.trace.value_at(0.0), 0.0, 1.0))
    return loop.finish(loop.n_servers * sim.power_model.wall_power_w(initial_u))


class _FluidLoop(_Plant):
    """Fluid-mode run state for both engines, built on the shared plant.

    The scalar tick body lives in exactly one place —
    :meth:`scalar_tick` — and is executed by the reference engine for
    every tick and by the batched engine at every stretch boundary, so
    the fallback path cannot drift from the oracle.
    """

    # -- engines -------------------------------------------------------------

    def run_reference(self) -> None:
        for i, t in enumerate(self.ticks):
            self.scalar_tick(i, t, self.demand_at(t))

    def run_batched(self) -> None:
        n_ticks = len(self.ticks)
        stretch_ticks = 0
        scalar_ticks = 0
        certificate = self._certificate()
        # Full-horizon demand series, bit-identical to the reference
        # loop's per-tick lookups; scalar ticks take their element.
        demand_all = self.demand_series()
        demand_l = demand_all.tolist()
        i = 0
        while i < n_ticks:
            # Scalar ticks move the state a certificate may depend on (a
            # room latch), so it is asked again at every possible stretch
            # start. Without one, every tick runs the scalar body.
            certified = self._certified(certificate) if certificate else None
            end = i if certified is None else self._stretch_end(i)
            advancer = self.column() if end - i >= _MIN_STRETCH else None
            if advancer is not None:
                done = self._run_stretch(i, end, *certified, demand_all, advancer)
                stretch_ticks += done
                i += done
                if i == end:
                    continue
                # The room reached the certificate's limit: this tick
                # runs the scalar body, which consults the policy.
            self.scalar_tick(i, self.ticks[i], demand_l[i])
            scalar_ticks += 1
            i += 1
        obs = get_registry()
        if obs.enabled:
            obs.count("dcsim.fluid.stretch_ticks", stretch_ticks)
            obs.count("dcsim.fluid.scalar_ticks", scalar_ticks)

    # -- scalar oracle -------------------------------------------------------

    def scalar_tick(self, i: int, t: float, demand: float) -> None:
        """The verbatim per-tick body both engines share, at the offered
        load ``demand`` of the tick ending at ``t``."""
        injector = self.injector
        n_servers = self.n_servers
        if injector is not None:
            injector.advance_to(t, room=self.room)
        # Policies see the offered work rate in nominal capacity units.
        decision = self.decide(t, np.full(n_servers, demand))
        tf = self.sim.power_model.throughput_factor(decision.frequency_ghz)
        offline = (
            injector.offline_count(n_servers) if injector is not None else 0
        )
        if offline > 0:
            # Surviving servers absorb the whole offered load; the
            # failed (lowest-indexed) servers sit idle. Per-server state
            # diverges here: the per-server step clears the plant's
            # uniform flag, so stretches and column ticks stop for good.
            alive = n_servers - offline
            concentrated = demand * n_servers / alive
            utilization = min(
                concentrated / tf, 1.0, decision.utilization_cap
            )
            busy = np.zeros(n_servers)
            busy[offline:] = utilization
            served = utilization * tf * alive / n_servers
            mean_utilization = utilization * alive / n_servers
        else:
            utilization = np.minimum(demand / tf, 1.0)
            utilization = np.minimum(utilization, decision.utilization_cap)
            # Every server runs this one busy fraction, so the plant can
            # step it as one column while the state is uniform.
            busy = utilization
            served = utilization * tf
            mean_utilization = utilization
        shed = max(demand - served, 0.0)
        self.step(
            i,
            t,
            busy,
            decision.frequency_ghz,
            demand=demand,
            utilization=mean_utilization,
            throughput=served,
            queue_length=0.0,
            shed_work=shed * n_servers,
        )

    # -- stretch machinery ---------------------------------------------------

    def _certificate(self):
        """The policy's ``conditional_decision`` certificate, or ``None``.

        A policy with a ``begin_tick`` clock hook is never stretched:
        the hook itself is per-tick state the stretch would skip.
        """
        if self.begin_tick is not None:
            return None
        return getattr(self.policy, "conditional_decision", None)

    def _certified(self, certificate):
        """``(decision, limit)`` from ``certificate`` right now, or
        ``None``.

        The certificate holds while the plant's room reads below
        ``limit``, so one with a limit is used only when the room it
        names is the plant's room, the one the stretch steps and reads.
        One without a limit (``None``) holds at any room temperature.
        """
        certified = certificate(self.state)
        if certified is None:
            return None
        decision, room, limit = certified
        if limit is not None and (room is None or room is not self.room):
            return None
        return decision, limit

    def _stretch_end(self, i: int) -> int:
        """End (exclusive tick index) of the eligible run starting at ``i``.

        Returns ``i`` itself when tick ``i`` must run scalar. Eligibility
        here covers the *schedule* and the plant's uniform flag; the fault
        scales are :meth:`column`'s job, and the policy certificate the
        caller's.
        """
        if not self.uniform:
            return i
        injector = self.injector
        if injector is None:
            return len(self.ticks)
        if not injector.is_dormant:
            return i
        # Faults activate at the first tick with start_s <= t, so every
        # tick strictly before the next boundary after the previously
        # processed tick is quiet. The first tick has no predecessor, so
        # a fault starting at t = 0 still bounds the stretch.
        after = float(self.ticks[i - 1]) if i > 0 else -math.inf
        boundary = injector.next_boundary(after)
        if math.isinf(boundary):
            return len(self.ticks)
        end = int(np.searchsorted(self.ticks, boundary, side="left"))
        return max(end, i)

    def _run_stretch(
        self,
        i0: int,
        i1: int,
        decision,
        limit: float | None,
        demand_all: np.ndarray,
        advancer,
    ) -> int:
        """Advance ticks ``[i0, i1)`` in one pass under ``decision``;
        returns how many ticks it advanced.

        With a certificate's ``limit``, the stretch ends before the
        first tick whose room temperature is not below it; only the
        ticks before that one are recorded and committed.
        """
        sim = self.sim
        n_servers = self.n_servers
        dt = self.dt
        span = i1 - i0

        demand = demand_all[i0:i1]
        tf = sim.power_model.throughput_factor(decision.frequency_ghz)
        # The uniform branch of the scalar tick, vectorised across the
        # stretch; each element matches the per-tick scalars bit for bit.
        utilization = np.minimum(demand / tf, 1.0)
        utilization = np.minimum(utilization, decision.utilization_cap)
        served = utilization * tf
        shed = np.maximum(demand - served, 0.0)
        u_eff = utilization * sim.power_model.frequency_factor(
            decision.frequency_ghz
        )
        zone_delta, ua = advancer.interp_series(u_eff)

        u_eff_l = u_eff.tolist()
        zone_delta_l = zone_delta.tolist()
        ua_l = ua.tolist()
        power_l = [0.0] * span
        release_l = [0.0] * span
        wax_l = [0.0] * span
        melt_l = [0.0] * span

        room = self.room
        done = span
        if room is None:
            # Without a room the plant leaves the inlet alone; the inlet
            # the state carries (the configured base — the injector is
            # dormant, so any past excursion has been restored) holds for
            # the whole stretch.
            inlet = self.state.inlet_temperature_c
            for k in range(span):
                p, r, w, m = advancer.tick(
                    inlet, u_eff_l[k], zone_delta_l[k], ua_l[k]
                )
                power_l[k] = p
                release_l[k] = r
                wax_l[k] = w
                melt_l[k] = m
            release_total = self._reduce(np.array(release_l), "sum")
            room_series: np.ndarray | float = sim.config.inlet_temperature_c
        else:
            # Room-coupled: each tick's release total feeds the room
            # model, whose temperature is the next tick's inlet — so the
            # release is totalled in the loop, as the reference's np.sum
            # totals its per-server row.
            total = uniform_total(n_servers)
            room_l = [0.0] * span
            release_total_l = [0.0] * span
            last_inlet = 0.0
            for k in range(span):
                inlet = room.temperature_c
                if limit is not None and not inlet < limit:
                    done = k
                    break
                last_inlet = inlet
                p, r, w, m = advancer.tick(
                    inlet, u_eff_l[k], zone_delta_l[k], ua_l[k]
                )
                release_w = total(r)
                room.step(dt, max(release_w, 0.0))
                room_l[k] = room.temperature_c
                release_total_l[k] = release_w
                power_l[k] = p
                release_l[k] = r
                wax_l[k] = w
                melt_l[k] = m
            if done == 0:
                return 0
            # The reference loop's last write to the state inlet was the
            # plant's decide of the final tick advanced.
            self.state.inlet_temperature_c = last_inlet
            release_total = np.array(release_total_l[:done])
            room_series = np.array(room_l[:done])

        advancer.commit()

        result = self.result
        sl = slice(i0, i0 + done)
        result.times_s[sl] = self.ticks[sl]
        result.demand[sl] = demand[:done]
        result.utilization[sl] = utilization[:done]
        result.frequency_ghz[sl] = decision.frequency_ghz
        result.power_w[sl] = self._reduce(np.array(power_l[:done]), "sum")
        result.cooling_load_w[sl] = release_total
        result.wax_heat_w[sl] = self._reduce(np.array(wax_l[:done]), "sum")
        result.melt_fraction[sl] = self._reduce(np.array(melt_l[:done]), "mean")
        result.throughput[sl] = served[:done]
        result.queue_length[sl] = 0.0
        result.shed_work[sl] = shed[:done] * n_servers
        result.room_temperature_c[sl] = room_series
        if decision.limited:
            self.throttle_ticks += done

        if self.injector is not None:
            # Replay the dormant-tick bookkeeping the stretch skipped:
            # the clock, and the held sensor observation a future dropout
            # would freeze.
            self.injector.fast_forward(
                float(self.ticks[i0 + done - 1]),
                observed=np.full(n_servers, demand[done - 1]),
            )
        return done

    def _reduce(self, per_tick: np.ndarray, op: str) -> np.ndarray:
        """Per-tick ``np.sum``/``np.mean`` over virtual uniform rows.

        The reference loop reduces a contiguous ``(servers,)`` row every
        tick; :func:`uniform_totals` performs the identical pairwise
        reductions from one per-server value per tick.
        """
        totals = uniform_totals(per_tick, self.n_servers)
        return totals if op == "sum" else totals / self.n_servers
