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
    A stretch-advancing engine mirroring the ``_BatchedCore``
    regime-adaptivity pattern from :mod:`repro.dcsim.event_engine`: it
    precomputes the demand series for the full horizon, then detects
    maximal runs of ticks where nothing can change the plan and advances
    each run in one pass, falling back to the *same* scalar tick body at
    every boundary.

A stretch of ticks is eligible only when every per-tick hook is provably
inert for its whole span:

* the policy publishes a **constant-decision certificate**
  (``constant_decision``; see :class:`repro.dcsim.throttling.NoThermalLimit`)
  and has no ``begin_tick`` clock hook — so ``decide`` cannot depend on
  the observed work rate or mutate policy state;
* the fault injector is **dormant** (no active effects, no restoration
  pending) and its next fault boundary lies beyond the stretch
  (:meth:`repro.faults.injector.FaultInjector.next_boundary`) — so
  ``advance_to``/``apply_state``/``observe``/``constrain`` are no-ops
  apart from bookkeeping that :meth:`~repro.faults.injector.FaultInjector.fast_forward`
  replays at the stretch end;
* the thermal state is **uniform across servers**
  (:meth:`repro.dcsim.thermal_coupling.BatchedClusterThermalState.uniform_advancer`):
  single cluster, zero inlet offsets, unit fault scales, bitwise-equal
  zone/enthalpy columns. Offline-server ticks break uniformity, so the
  engine stops stretching for the rest of the run once one occurs.

Within a stretch the per-server physics collapses to a scalar recursion
(every server carries identical values), executed in Python floats that
perform exactly the arithmetic the elementwise NumPy step would — while
demand, utilization, throughput, shed work, and the characterization
lookups are computed for the whole stretch as arrays. Recorded totals
(``power``/``release``/``wax`` sums and the ``melt`` mean) are reduced
through a reused ``(chunk, servers)`` matrix so each tick's reduction is
the same pairwise ``np.sum``/``np.mean`` the reference loop performs on
its per-server rows; room-coupled runs reduce the release total inside
the loop (the room temperature feeds back into the next tick's inlet).

Bit-identity to the reference loop is the acceptance bar, exactly as
PR 5 held for event mode: both engines must produce byte-identical
``SimulationResult`` payloads for every workload, fault schedule, and
policy. Runs that never qualify (stateful policies, active faults,
per-server heterogeneity) simply execute the reference tick body tick by
tick through the same code object, so they cannot drift.

Observability (when the registry is enabled): ``dcsim.fluid.stretch_ticks``
counts ticks advanced inside stretches, ``dcsim.fluid.scalar_ticks`` the
ticks that took the scalar fallback.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.dcsim.simulator import _Plant
from repro.obs import get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dcsim.simulator import DatacenterSimulator, SimulationResult

__all__ = ["run_fluid_mode"]

#: Eligible runs shorter than this execute scalar anyway: below a few
#: ticks the stretch setup (advancer eligibility scan, array slicing,
#: injector fast-forward) costs more than it saves.
_MIN_STRETCH = 4

#: Tick rows materialised at a time by the chunked total/mean reduction
#: buffer. Bounds the scratch matrix at ``_CHUNK_TICKS * servers`` floats
#: regardless of stretch length.
_CHUNK_TICKS = 256


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

    def __init__(self, sim: "DatacenterSimulator") -> None:
        super().__init__(sim)
        # True while every server provably shares one (zone, enthalpy)
        # trajectory. Cleared the first time an offline-server tick
        # concentrates load on the survivors (or an advancer eligibility
        # scan fails), after which stretching is off for the run.
        self._uniform = True
        self._sum_buf: np.ndarray | None = None
        self._mat_buf: np.ndarray | None = None

    # -- engines -------------------------------------------------------------

    def run_reference(self) -> None:
        for i, t in enumerate(self.ticks):
            self.scalar_tick(i, t)

    def run_batched(self) -> None:
        n_ticks = len(self.ticks)
        stretch_ticks = 0
        scalar_ticks = 0
        decision = self._constant_decision()
        if decision is None:
            # No certificate: the whole run is boundary. Identical to the
            # reference engine by construction (same tick body).
            for i, t in enumerate(self.ticks):
                self.scalar_tick(i, t)
            scalar_ticks = n_ticks
        else:
            # Full-horizon demand series; elementwise np.interp + np.clip
            # match the reference loop's per-tick scalar lookups bit for
            # bit.
            demand_all = np.clip(
                self.sim.trace.value_at(self.ticks - 0.5 * self.dt), 0.0, 1.0
            )
            i = 0
            while i < n_ticks:
                end = self._stretch_end(i)
                advancer = None
                if end - i >= _MIN_STRETCH:
                    advancer = self.state.uniform_advancer(self.dt)
                    if advancer is None:
                        # Eligibility scan found per-server structure the
                        # cheap flags missed; stop re-scanning every tick.
                        self._uniform = False
                if advancer is not None:
                    self._run_stretch(i, end, decision, demand_all, advancer)
                    stretch_ticks += end - i
                    i = end
                else:
                    self.scalar_tick(i, self.ticks[i])
                    scalar_ticks += 1
                    i += 1
        obs = get_registry()
        if obs.enabled:
            obs.count("dcsim.fluid.stretch_ticks", stretch_ticks)
            obs.count("dcsim.fluid.scalar_ticks", scalar_ticks)

    # -- scalar oracle -------------------------------------------------------

    def scalar_tick(self, i: int, t: float) -> None:
        """The verbatim per-tick body both engines share."""
        injector = self.injector
        n_servers = self.n_servers
        demand = self.demand_at(t)
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
            # diverges here, so stretch advancing is off from now on.
            self._uniform = False
            alive = n_servers - offline
            concentrated = demand * n_servers / alive
            utilization = min(
                concentrated / tf, 1.0, decision.utilization_cap
            )
            utilization_vec = np.zeros(n_servers)
            utilization_vec[offline:] = utilization
            served = utilization * tf * alive / n_servers
            mean_utilization = utilization * alive / n_servers
        else:
            utilization = np.minimum(demand / tf, 1.0)
            utilization = np.minimum(utilization, decision.utilization_cap)
            utilization_vec = np.full(n_servers, utilization)
            served = utilization * tf
            mean_utilization = utilization
        shed = max(demand - served, 0.0)
        self.step(
            i,
            t,
            utilization_vec,
            decision.frequency_ghz,
            demand=demand,
            utilization=mean_utilization,
            throughput=served,
            queue=0.0,
            shed=shed * n_servers,
        )

    # -- stretch machinery ---------------------------------------------------

    def _constant_decision(self):
        """The policy's constant-decision certificate, or ``None``.

        A policy with a ``begin_tick`` clock hook is never stretched:
        the hook itself is per-tick state the stretch would skip.
        """
        if self.begin_tick is not None:
            return None
        certificate = getattr(self.policy, "constant_decision", None)
        if certificate is None:
            return None
        return certificate(self.state)

    def _stretch_end(self, i: int) -> int:
        """End (exclusive tick index) of the eligible run starting at ``i``.

        Returns ``i`` itself when tick ``i`` must run scalar. Eligibility
        here covers the *schedule*: state uniformity is the advancer's
        job, and the policy certificate was checked once up front.
        """
        if not self._uniform:
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
        demand_all: np.ndarray,
        advancer,
    ) -> None:
        """Advance ticks ``[i0, i1)`` in one pass (constant ``decision``)."""
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
            # release reduction happens in the loop, via the same
            # fill-and-pairwise-sum the reference's np.sum performs.
            if self._sum_buf is None:
                self._sum_buf = np.empty(n_servers)
            buf = self._sum_buf
            room_arr = np.empty(span)
            release_total = np.empty(span)
            inlet = 0.0
            for k in range(span):
                inlet = room.temperature_c
                p, r, w, m = advancer.tick(
                    inlet, u_eff_l[k], zone_delta_l[k], ua_l[k]
                )
                buf.fill(r)
                total = float(buf.sum())
                room.step(dt, max(total, 0.0))
                room_arr[k] = room.temperature_c
                release_total[k] = total
                power_l[k] = p
                release_l[k] = r
                wax_l[k] = w
                melt_l[k] = m
            # The reference loop's last write to the state inlet was the
            # plant's decide of the final stretch tick.
            self.state.inlet_temperature_c = inlet
            room_series = room_arr

        advancer.commit()

        records = self.records
        sl = slice(i0, i1)
        records.times[sl] = self.ticks[sl]
        records.demand[sl] = demand
        records.utilization[sl] = utilization
        records.frequency[sl] = decision.frequency_ghz
        records.power[sl] = self._reduce(np.array(power_l), "sum")
        records.release[sl] = release_total
        records.wax[sl] = self._reduce(np.array(wax_l), "sum")
        records.melt[sl] = self._reduce(np.array(melt_l), "mean")
        records.throughput[sl] = served
        records.queue[sl] = 0.0
        records.shed[sl] = shed * n_servers
        records.room[sl] = room_series
        if decision.limited:
            self.throttle_ticks += span

        if self.injector is not None:
            # Replay the dormant-tick bookkeeping the stretch skipped:
            # the clock, and the held sensor observation a future dropout
            # would freeze.
            self.injector.fast_forward(
                float(self.ticks[i1 - 1]),
                observed=np.full(n_servers, demand[-1]),
            )

    def _reduce(self, per_tick: np.ndarray, op: str) -> np.ndarray:
        """Per-tick ``np.sum``/``np.mean`` over virtual uniform rows.

        The reference loop reduces a contiguous ``(servers,)`` row every
        tick; broadcasting each per-server scalar across a reused
        ``(chunk, servers)`` matrix and reducing along axis 1 performs
        the identical pairwise reductions, chunked so scratch stays
        bounded.
        """
        if self._mat_buf is None:
            self._mat_buf = np.empty((_CHUNK_TICKS, self.n_servers))
        buf = self._mat_buf
        out = np.empty(len(per_tick))
        reduce = np.sum if op == "sum" else np.mean
        for c0 in range(0, len(per_tick), _CHUNK_TICKS):
            c1 = min(c0 + _CHUNK_TICKS, len(per_tick))
            view = buf[: c1 - c0]
            view[:] = per_tick[c0:c1, None]
            out[c0:c1] = reduce(view, axis=1)
        return out
