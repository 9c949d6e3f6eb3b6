"""Extension studies the paper motivates but does not evaluate.

1. **Energy-cost shifting** (Figure 1's "off-peak time: power is
   cheaper" / "nighttime ... more natural cooling"): price the cooling
   electricity of the Section 5.1 arms under the paper's $0.13/$0.08
   tariff and an ambient-dependent chiller COP.
2. **Chilled water vs PCM** (the Section 6 comparison against TE-Shave):
   shave the same cluster cooling-load trace with a chilled-water tank of
   equal thermal capacity, and account for its pumping power, standing
   losses, floor space, and capital.
3. **Cycling stability and lifetime** (Section 2.1's Table 1 stability
   column as a lifetime model): which material classes survive a 4-year
   server deployment of daily melt/freeze cycles?
4. **Trace-shape sensitivity** ("the best melting temperature is
   determined on the shape and length of the load trace"): re-run the
   melting-point optimization against diurnal, double-peak, and bursty
   workloads.
"""

from __future__ import annotations

import numpy as np

from repro.cooling.chilled_water import shave_with_tank, tank_matching_pcm_capacity
from repro.core.melting_point import optimize_melting_point
from repro.core.scenarios import CoolingLoadStudy, cached_characterization
from repro.dcsim.cluster import ClusterTopology
from repro.experiments.registry import ExperimentResult
from repro.materials.degradation import assess_lifetime
from repro.materials.library import (
    MATERIAL_CLASSES,
    commercial_paraffin_with_melting_point,
)
from repro.server.configs import one_u_commodity
from repro.tco.energy import compare_energy_shift
from repro.workload.google import synthesize_google_trace
from repro.workload.synthetic import SCENARIOS


def run(quick: bool = False) -> ExperimentResult:
    """Run all four extension studies on the 1U platform."""
    spec = one_u_commodity()
    characterization = cached_characterization(spec)
    trace = synthesize_google_trace().total
    topology = ClusterTopology(server_count=1008)

    result = ExperimentResult(
        experiment_id="extensions",
        title="Extension studies: energy arbitrage, chilled-water baseline, "
        "lifetime, trace shapes",
    )

    # ------------------------------------------------------------------
    # 1. Energy-cost shifting.
    # ------------------------------------------------------------------
    study = CoolingLoadStudy(
        spec,
        trace,
        topology=topology,
        melting_step_c=2.0 if quick else 1.0,
    )
    outcome = study.run()
    energy = compare_energy_shift(outcome.baseline, outcome.with_pcm)
    result.tables["cooling electricity under the paper's tariff"] = (
        ["arm", "energy (kWh)", "off-peak share", "cost"],
        [
            [
                "no PCM",
                f"{energy.baseline.cooling_energy_kwh:.0f}",
                f"{energy.baseline.offpeak_share:.1%}",
                f"${energy.baseline.total_usd:.2f}",
            ],
            [
                "with PCM",
                f"{energy.with_pcm.cooling_energy_kwh:.0f}",
                f"{energy.with_pcm.offpeak_share:.1%}",
                f"${energy.with_pcm.total_usd:.2f}",
            ],
        ],
    )
    result.summary["energy_cost_savings_fraction"] = (
        energy.cost_savings_fraction
    )
    result.summary["offpeak_share_shift"] = energy.offpeak_shift

    # ------------------------------------------------------------------
    # 2. Chilled water tank vs PCM on the same trace.
    # ------------------------------------------------------------------
    loadout = spec.wax_loadout
    tank = tank_matching_pcm_capacity(
        loadout.latent_capacity_j,
        topology.server_count,
        discharge_ua_w_per_k=4_000.0,
        pump_power_w=1_500.0,
        floor_area_m2=12.0,
    )
    pcm_peak = outcome.with_pcm.peak_cooling_load_w
    shave = shave_with_tank(
        outcome.baseline.times_s,
        outcome.baseline.cooling_load_w,
        tank,
        plant_capacity_w=pcm_peak,
    )
    wax_capital = (
        loadout.total_mass_kg
        * (loadout.material.cost_usd_per_tonne or 0.0)
        / 1000.0
        + 2.0 * loadout.total_volume_m3 * 1000.0
    ) * topology.server_count
    result.tables["chilled-water tank vs in-server PCM (same joules)"] = (
        ["technology", "peak reduction", "capital", "pump energy", "standing loss", "floor space"],
        [
            [
                "in-server PCM",
                f"{outcome.peak_reduction_fraction:.1%}",
                f"${wax_capital / 1e3:.1f}k",
                "0 kWh (passive)",
                "0 (sealed, indoors)",
                "0 m^2",
            ],
            [
                "chilled water tank",
                f"{shave.peak_reduction_fraction:.1%}",
                f"${tank.capital_cost_usd / 1e3:.1f}k",
                f"{shave.pump_energy_j / 3.6e6:.0f} kWh",
                f"{shave.standing_loss_j / 3.6e6:.0f} kWh(th)",
                f"{tank.floor_area_m2:.0f} m^2",
            ],
        ],
    )
    result.summary["tank_peak_reduction"] = shave.peak_reduction_fraction
    result.summary["pcm_peak_reduction"] = outcome.peak_reduction_fraction
    result.summary["tank_capital_over_pcm"] = (
        tank.capital_cost_usd / wax_capital
    )
    result.summary["tank_standing_loss_kwh_per_two_days"] = (
        shave.standing_loss_j / 3.6e6
    )

    # ------------------------------------------------------------------
    # 3. Cycling stability -> deployment lifetime.
    # ------------------------------------------------------------------
    lifetime_rows = []
    survivors = 0
    for cls in MATERIAL_CLASSES:
        assessment = assess_lifetime(cls.stability)
        survivors += int(assessment.survives_server_lifetime)
        lifetime_rows.append(
            [
                cls.name,
                cls.stability.name.title(),
                f"{assessment.remaining_capacity_fraction:.0%}",
                "yes" if assessment.survives_server_lifetime else "NO",
            ]
        )
    result.tables["capacity left after a 4-year daily-cycle deployment"] = (
        ["class", "stability", "capacity remaining", "survives?"],
        lifetime_rows,
    )
    result.summary["classes_surviving_4_years"] = float(survivors)
    paraffin = assess_lifetime(MATERIAL_CLASSES[-1].stability)  # commercial
    result.summary["commercial_paraffin_capacity_after_4y"] = (
        paraffin.remaining_capacity_fraction
    )

    # ------------------------------------------------------------------
    # 4. Trace-shape sensitivity of the melting-point choice.
    # ------------------------------------------------------------------
    shape_rows = []
    best_by_shape = {}
    step = 2.0 if quick else 1.0
    for name, generator in SCENARIOS.items():
        scenario_trace = generator()
        search = optimize_melting_point(
            characterization,
            spec.power_model,
            scenario_trace,
            topology=topology,
            window_c=(40.0, 50.0),
            step_c=step,
        )
        best_by_shape[name] = search.best_melting_point_c
        shape_rows.append(
            [
                name,
                f"{search.best_melting_point_c:.0f} C",
                f"{search.best_reduction_fraction:.1%}",
            ]
        )
    result.tables["best melting point per workload shape"] = (
        ["workload shape", "best melt", "peak reduction"],
        shape_rows,
    )
    result.summary["melting_point_spread_across_shapes_c"] = float(
        max(best_by_shape.values()) - min(best_by_shape.values())
    )

    # ------------------------------------------------------------------
    # 5. Computational sprinting: the other end of the PCM time scale.
    # ------------------------------------------------------------------
    from repro.sprinting import SprintChip, run_sprint, run_sprint_batch

    chip = SprintChip()
    bare = run_sprint(chip, sprint_power_w=16.0, horizon_s=1800.0)
    # The PCM power sweep: each sprint level runs to its own junction
    # limit, exactly as a run_sprint of that power would.
    sprint_powers = [12.0, 16.0, 20.0]
    sprint_sweep = run_sprint_batch(
        chip, sprint_powers, pcm_grams=10.0, horizon_s=1800.0
    )
    sprint_pcm = sprint_sweep[sprint_powers.index(16.0)]
    result.tables["sprint duration vs power (10 g eicosane)"] = (
        ["sprint power", "duration", "hit junction limit", "final melt"],
        [
            [
                f"{outcome.sprint_power_w:.0f} W",
                f"{outcome.duration_s:.0f} s",
                "yes" if outcome.hit_limit else "no",
                f"{outcome.final_melt_fraction:.0%}",
            ]
            for outcome in sprint_sweep
        ],
    )
    datacenter_shift_s = 6.0 * 3600.0  # hours-scale melt window (Fig 11)
    result.tables["PCM time scales: sprinting vs thermal time shifting"] = (
        ["regime", "PCM quantity", "buffer duration", "what is reshaped"],
        [
            [
                "computational sprinting (chip)",
                "10 g eicosane",
                f"{sprint_pcm.duration_s:.0f} s sprint "
                f"(vs {bare.duration_s:.0f} s bare)",
                "the load, not the thermals",
            ],
            [
                "thermal time shifting (server)",
                "1.2-4 L commercial paraffin",
                f"~{datacenter_shift_s / 3600:.0f} h melt window",
                "the thermals, not the load",
            ],
        ],
    )
    result.summary["sprint_extension_ratio"] = (
        sprint_pcm.duration_s / bare.duration_s
    )
    result.summary["timescale_separation"] = (
        datacenter_shift_s / sprint_pcm.duration_s
    )

    # ------------------------------------------------------------------
    # 6. Geographic relocation (the paper's other thermal escape valve).
    # ------------------------------------------------------------------
    from repro.dcsim.geo import GeoPair, GeoSite
    from repro.dcsim.room import RoomModel
    from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig

    geo_topology = ClusterTopology(server_count=128 if quick else 256)
    geo_material = commercial_paraffin_with_melting_point(45.0)
    ideal = DatacenterSimulator(
        characterization,
        spec.power_model,
        geo_material,
        trace,
        topology=geo_topology,
        config=SimulationConfig(wax_enabled=False),
    ).run()
    geo_capacity = 0.836 * ideal.peak_cooling_load_w

    def geo_site(name: str, shift_s: float, wax: bool) -> GeoSite:
        return GeoSite(
            name=name,
            characterization=characterization,
            power_model=spec.power_model,
            material=geo_material,
            trace=trace.shifted(shift_s),
            room=RoomModel.sized_for_cluster(
                geo_capacity, geo_topology.server_count
            ),
            topology=geo_topology,
            wax_enabled=wax,
        )

    geo_rows = []
    geo_served = {}
    for label, shift_s, wax in (
        ("single site (no PCM)", 0.0, False),
        ("8h-offset pair, relocation only", 8 * 3600.0, False),
        ("8h-offset pair, relocation + PCM", 8 * 3600.0, True),
    ):
        if label.startswith("single"):
            from repro.dcsim.throttling import RoomTemperaturePolicy

            room = RoomModel.sized_for_cluster(
                geo_capacity, geo_topology.server_count
            )
            solo = DatacenterSimulator(
                characterization,
                spec.power_model,
                geo_material,
                trace,
                topology=geo_topology,
                room=room,
                policy=RoomTemperaturePolicy(room),
                config=SimulationConfig(wax_enabled=False),
            ).run()
            served = float(np.sum(solo.throughput) / np.sum(solo.demand))
            relocated = 0.0
        else:
            outcome_geo = GeoPair(
                geo_site("west", 0.0, wax), geo_site("east", shift_s, wax)
            ).run()
            served = outcome_geo.served_fraction
            relocated = outcome_geo.relocated_fraction
        geo_served[label] = served
        geo_rows.append([label, f"{served:.1%}", f"{relocated:.1%}"])
    result.tables["thermally constrained sites: relocation and PCM"] = (
        ["configuration", "demand served", "work relocated"],
        geo_rows,
    )
    result.summary["solo_served_fraction"] = geo_served[
        "single site (no PCM)"
    ]
    result.summary["geo_served_fraction"] = geo_served[
        "8h-offset pair, relocation only"
    ]
    result.summary["geo_pcm_served_fraction"] = geo_served[
        "8h-offset pair, relocation + PCM"
    ]

    # ------------------------------------------------------------------
    # 7. Rolling retrofit: mixed wax / legacy fleets.
    # ------------------------------------------------------------------
    from repro.dcsim.mixed import rollout_curve

    fractions = (0.0, 0.5, 1.0) if quick else (0.0, 0.25, 0.5, 0.75, 1.0)
    curve = rollout_curve(
        characterization,
        spec.power_model,
        commercial_paraffin_with_melting_point(43.0),
        trace,
        total_servers=topology.server_count,
        fractions=fractions,
    )
    result.tables["rolling retrofit: peak reduction vs wax rollout"] = (
        ["fleet equipped", "peak cooling reduction"],
        [[f"{f:.0%}", f"{r:.1%}"] for f, r in curve.items()],
    )
    result.summary["rollout_half_fleet_reduction"] = curve[0.5]
    result.summary["rollout_full_fleet_reduction"] = curve[1.0]

    result.paper = {
        # Qualitative expectations from the paper's text.
        "classes_surviving_4_years": 2.0,  # the two paraffin rows
        "pcm_peak_reduction": 0.089,
    }
    return result
