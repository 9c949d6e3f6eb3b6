"""Tests for the experiment registry and the paper shape of each experiment.

Each experiment's class asserts the *shape* of its result against the
paper — who wins, by roughly what factor, where the crossovers fall —
on a full run, or on a quick one where the class name says so. Absolute
agreement with the paper's testbed is not expected and not asserted.
Classes whose experiment takes more than a second are marked ``slow``.
"""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.registry import (
    ExperimentResult,
    all_experiment_ids,
    run_experiment,
)


class TestRegistry:
    def test_all_ids_in_paper_order(self):
        ids = all_experiment_ids()
        assert ids == [
            "table1", "table2", "fig1", "fig4", "fig7", "fig9", "fig10",
            "fig11", "fig11_faults", "fig12", "ablations", "extensions",
            "control_tournament",
        ]

    def test_unknown_id_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99")

    def test_render_contains_summary(self):
        result = ExperimentResult(experiment_id="x", title="t")
        result.summary = {"metric": 1.0}
        result.paper = {"metric": 2.0}
        text = result.render()
        assert "metric" in text and "measured" in text


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("table1")

    def test_five_material_rows(self, result):
        headers, rows = result.tables["Table 1"]
        assert len(rows) == 5

    def test_selection_confirmed(self, result):
        assert result.summary["selected_is_commercial_paraffin"] == 1.0

    def test_cost_ratio(self, result):
        assert result.summary["eicosane_cost_ratio"] == pytest.approx(50.0)

    def test_eicosane_bill_over_a_million(self, result):
        assert result.summary["eicosane_datacenter_wax_usd"] > 1e6

    def test_energy_penalty_and_commercial_bill(self, result):
        # "50x cheaper for 20% lower energy per gram."
        assert result.summary["energy_per_gram_penalty_fraction"] == pytest.approx(
            0.20, abs=0.03
        )
        # "over a million dollars in wax costs alone" vs a modest commercial
        # bill for the same datacenter.
        assert result.summary["commercial_datacenter_wax_usd"] < 3e5
        # The wax-bill ratio dwarfs even the per-ton ratio's effect after
        # containers are included.
        assert (
            result.summary["eicosane_datacenter_wax_usd"]
            > 10 * result.summary["commercial_datacenter_wax_usd"]
        )


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("table2")

    def test_three_platform_rows(self, result):
        headers, rows = result.tables[
            "Table 2 (per-platform instantiation, $/month)"
        ]
        assert len(rows) == 3

    def test_wax_share_below_point_two_percent(self, result):
        for key, value in result.summary.items():
            assert value < 0.002, key

    def test_equation1_three_rows(self, result):
        headers, rows = result.tables[
            "Equation 1 monthly TCO of each 10 MW datacenter"
        ]
        assert len(rows) == 3


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig10")

    def test_normalization(self, result):
        assert result.summary["average_load"] == pytest.approx(0.5, abs=1e-6)
        assert result.summary["peak_load"] == pytest.approx(0.95, abs=1e-6)
        assert result.summary["duration_hours"] == pytest.approx(48.0)

    def test_components_sum(self, result):
        assert result.summary["components_sum_to_total"] == 1.0

    def test_series_available_for_plotting(self, result):
        for name in ("hours", "search", "orkut", "mapreduce", "total"):
            assert name in result.series
            assert len(result.series[name]) > 100

    def test_daily_peaks_and_search_dominance(self, result):
        # Diurnal structure: both daily peaks land midday-to-evening.
        hours = result.series["hours"]
        total = result.series["total"]
        for day in (0, 1):
            mask = (hours >= day * 24) & (hours < (day + 1) * 24)
            peak_hour = hours[mask][np.argmax(total[mask])] % 24
            assert 10.0 <= peak_hour <= 20.0

        # Search is the dominant class, as in the paper's legend ordering.
        assert np.mean(result.series["search"]) > np.mean(result.series["orkut"])
        assert np.mean(result.series["search"]) > np.mean(
            result.series["mapreduce"]
        )


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig1")

    def test_peak_flattened(self, result):
        assert result.summary["peak_flattening_fraction"] > 0.02

    def test_night_release(self, result):
        assert result.summary["night_release_present"] == 1.0

    def test_daily_cycle_closes(self, result):
        assert result.summary["wax_completes_daily_cycle"] == 1.0

    def test_pcm_series_never_negative(self, result):
        assert np.all(result.series["thermal_output_with_pcm_w"] >= 0.0)

    def test_pcm_below_baseline_while_melting(self, result):
        # The PCM curve sits below the baseline exactly while melting.
        melting = np.diff(result.series["melt_fraction"], prepend=0.0) > 1e-6
        below = (
            result.series["thermal_output_with_pcm_w"]
            < result.series["thermal_output_w"] - 1e-9
        )
        assert np.all(below[melting])


@pytest.mark.slow
class TestFig4:
    def test_paper_shape(self, plant_invariants):
        result = run_experiment("fig4")
        plant_invariants.verify(simulates=False)
        # Paper: 0.22 degC mean steady-state difference between the real
        # server and the model; we require the same sub-degree agreement
        # against our independent reference model.
        assert result.summary["steady_mean_abs_difference_c"] < 0.5
        # "a strong correlation between the real measurements and Icepak
        # simulation measurements for the trace".
        assert result.summary["heating_correlation"] > 0.99
        assert result.summary["cooling_correlation"] > 0.99
        # "the wax reduces temperatures for two hours while the wax melts ...
        # and afterwards increases temperatures for two hours".
        assert 1.0 <= result.summary["wax_melt_effect_hours"] <= 5.0
        assert 1.0 <= result.summary["wax_freeze_effect_hours"] <= 5.0


class TestFig7:
    def test_paper_shape(self):
        result = run_experiment("fig7")
        # 1U: outlet rises ~14 degC at 90% blockage; CPUs rise < 2 degC
        # below 50%.
        assert result.summary["1u_outlet_rise_at_90pct_c"] == pytest.approx(
            14.0, abs=1.5
        )
        assert result.summary["1u_cpu_rise_at_50pct_c"] < 2.5

        # 2U: negligible below 50%, < 6 degC at the deployed 69%, steep above.
        assert result.summary["2u_outlet_rise_at_50pct_c"] < 3.0
        assert result.summary["2u_outlet_rise_at_69pct_c"] < 6.5
        assert result.summary["2u_outlet_rise_at_90pct_c"] > (
            3 * result.summary["2u_outlet_rise_at_69pct_c"]
        )

        # OCP: hot at zero blockage and hypersensitive to any obstruction.
        assert result.summary["ocp_outlet_at_0pct_c"] > 55.0
        assert result.summary["ocp_outlet_rise_at_30pct_c"] > 15.0

        # All three curves are superlinear: the last 20% of blockage costs
        # more than the first 50%.
        for platform in ("1u", "2u", "ocp"):
            blockage = result.series[f"{platform}_blockage"]
            outlet = result.series[f"{platform}_outlet_c"]
            half = outlet[np.argmin(np.abs(blockage - 0.5))] - outlet[0]
            tail = outlet[-1] - outlet[np.argmin(np.abs(blockage - 0.7))]
            assert tail > half


class TestFig7Quick:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig7", quick=True)

    def test_three_platforms_swept(self, result):
        for platform in ("1u", "2u", "ocp"):
            assert f"{platform}_outlet_c" in result.series

    def test_temperatures_monotone_in_blockage(self, result):
        for platform in ("1u", "2u", "ocp"):
            outlet = result.series[f"{platform}_outlet_c"]
            assert np.all(np.diff(outlet) > -0.05)

    def test_1u_cpu_tame_below_50pct(self, result):
        assert result.summary["1u_cpu_rise_at_50pct_c"] < 3.0

    def test_ocp_hypersensitive(self, result):
        # The OCP rises faster at 30% blockage than the 2U does at 50%.
        assert result.summary["ocp_outlet_rise_at_30pct_c"] > (
            result.summary["2u_outlet_rise_at_50pct_c"]
        )


@pytest.mark.slow
class TestFig9Quick:
    def test_paper_shape(self, plant_invariants):
        result = run_experiment("fig9", quick=True)
        plant_invariants.verify()
        # The reconfigured blade carries 3x the insert-swap wax...
        assert result.summary["reconfigured_capacity_ratio"] == pytest.approx(3.0)
        # ...and buys a strictly larger peak reduction with it.
        assert result.summary["reconfigured_reduction"] > (
            result.summary["insert_swap_reduction"]
        )
        # The reconfigured layout lands in the paper's band (8.3%).
        assert result.summary["reconfigured_reduction"] == pytest.approx(
            0.083, abs=0.035
        )
        # Neither layout adds airflow blockage versus the production blade.
        assert result.summary["no_added_blockage"] == 1.0


@pytest.mark.slow
class TestFig11:
    def test_paper_shape(self, plant_invariants):
        result = run_experiment("fig11")
        plant_invariants.verify()
        reductions = {
            p: result.summary[f"{p}_peak_reduction"] for p in ("1u", "2u", "ocp")
        }
        # Shape: every platform sees a real reduction, in the paper's band.
        for platform, value in reductions.items():
            assert 0.04 <= value <= 0.16, platform
        # Ordering: the 2U (most wax, 4 L) wins, as in the paper.
        assert reductions["2u"] == max(reductions.values())
        # Magnitudes near the paper's: within ~2.5 points per platform.
        assert reductions["1u"] == pytest.approx(0.089, abs=0.03)
        assert reductions["2u"] == pytest.approx(0.12, abs=0.03)
        assert reductions["ocp"] == pytest.approx(0.083, abs=0.03)

        # Repayment completes within the daily cycle.
        for platform in ("1u", "2u", "ocp"):
            assert result.summary[f"{platform}_repayment_hours"] < 20.0

        # Fleet growth follows the reciprocal rule (paper: up to +14.6%).
        assert result.summary["2u_fleet_growth"] == pytest.approx(0.146, abs=0.04)

        # Dollar figures in the paper's band.
        assert result.summary["2u_cooling_savings_usd"] == pytest.approx(
            254_000.0, rel=0.3
        )
        for platform in ("1u", "2u", "ocp"):
            assert result.summary[f"{platform}_retrofit_savings_usd"] == (
                pytest.approx(3.1e6, rel=0.15)
            )

        # The with-PCM curve clips the peak but matches the baseline off-peak
        # (series check on the 1U cluster).
        baseline = result.series["1u_cooling_load_w"]
        pcm = result.series["1u_load_with_pcm_w"]
        assert np.max(pcm) < np.max(baseline)
        # Total heat removed over two days is conserved within 2%: the wax
        # only time-shifts it.
        assert np.sum(pcm) == pytest.approx(np.sum(baseline), rel=0.02)


@pytest.mark.slow
class TestFig12:
    def test_paper_shape(self, plant_invariants):
        result = run_experiment("fig12")
        plant_invariants.verify()
        gains = {
            p: result.summary[f"{p}_peak_throughput_gain"]
            for p in ("1u", "2u", "ocp")
        }
        # Shape: the 2U (deepest oversubscription) gains the most, by far.
        assert gains["2u"] == max(gains.values())
        assert gains["2u"] > 1.5 * gains["1u"]
        # Magnitudes near the paper's.
        assert gains["1u"] == pytest.approx(0.33, abs=0.07)
        assert gains["2u"] == pytest.approx(0.69, abs=0.10)
        assert gains["ocp"] == pytest.approx(0.34, abs=0.07)

        # Elevated-operation windows of several hours (paper: 3.1-5.1 h).
        for platform in ("1u", "2u", "ocp"):
            assert 2.0 <= result.summary[f"{platform}_elevated_hours"] <= 8.0
        assert result.summary["1u_elevated_hours"] == pytest.approx(5.1, abs=1.5)

        # TCO efficiency improvements track the gains (paper: 23/39/24%).
        assert result.summary["1u_tco_efficiency_improvement"] == pytest.approx(
            0.23, abs=0.05
        )
        assert result.summary["2u_tco_efficiency_improvement"] == pytest.approx(
            0.39, abs=0.05
        )
        assert result.summary["ocp_tco_efficiency_improvement"] == pytest.approx(
            0.24, abs=0.05
        )

        # Curve shapes: the with-wax arm tracks the ideal through the peak
        # while the no-wax arm is pinned at (normalized) 1.0.
        for platform in ("1u", "2u", "ocp"):
            with_wax = result.series[f"{platform}_with_wax"]
            ideal = result.series[f"{platform}_ideal"]
            no_wax = result.series[f"{platform}_no_wax"]
            assert np.max(with_wax) == pytest.approx(np.max(ideal), rel=0.03)
            assert np.max(no_wax) == pytest.approx(1.0, rel=1e-6)


@pytest.mark.slow
class TestAblationsQuick:
    def test_paper_shape(self, plant_invariants):
        result = run_experiment("ablations", quick=True)
        plant_invariants.verify()
        # More wax helps up to the deployed volume (the paper's observation);
        # the deployed 1.2 L sits at or near the knee of the curve.
        assert result.summary["reduction_monotonic_up_to_deployed"] == 1.0
        assert result.summary["deployed_volume_near_knee"] == 1.0

        # The melting point matters: the optimum clips several percent while
        # badly-chosen blends clip almost nothing.
        assert result.summary["best_reduction"] > 0.05
        assert 41.0 <= result.summary["best_melting_point_c"] <= 46.0

        # Eicosane's +23.5% heat of fusion buys only a small extra reduction
        # — the paper's economic argument for commercial paraffin.
        assert 0.0 <= result.summary["premium_wax_extra_reduction"] <= 0.03

        # Round-robin vs least-loaded is thermally indistinguishable on a
        # homogeneous cluster.
        assert result.summary["lb_policy_peak_difference"] < 0.02


@pytest.mark.slow
class TestExtensionsQuick:
    def test_paper_shape(self, plant_invariants):
        result = run_experiment("extensions", quick=True)
        plant_invariants.verify()
        # Energy arbitrage is *negligible*: PCM's value is capacity (peak kW),
        # not energy (kWh) — the wax banks ~2% of a day's heat. This is why
        # the paper quantifies the cooling-plant savings and only mentions
        # the electricity-rate benefit qualitatively.
        assert abs(result.summary["energy_cost_savings_fraction"]) < 0.02

        # A chilled-water tank with the same joules shaves a comparable peak
        # but pays for it: pumping energy, standing losses, floor space, and
        # higher capital — the paper's Section 6 argument, quantified.
        assert result.summary["tank_peak_reduction"] > 0.0
        assert result.summary["tank_capital_over_pcm"] > 1.0
        assert result.summary["tank_standing_loss_kwh_per_two_days"] > 0.0

        # Only the two paraffin classes survive a 4-year daily-cycle
        # deployment (Table 1's stability column as a lifetime model).
        assert result.summary["classes_surviving_4_years"] == 2.0
        assert result.summary["commercial_paraffin_capacity_after_4y"] > 0.9

        # The optimal melting point moves with the trace shape, but stays
        # within the commercial paraffin window for every shape tested.
        assert result.summary["melting_point_spread_across_shapes_c"] <= 8.0

        # Chip-scale sprinting vs server-scale time shifting: the same
        # substrate spans four orders of magnitude in buffering duration.
        assert result.summary["sprint_extension_ratio"] > 3.0
        assert result.summary["timescale_separation"] > 10.0

        # Geographic relocation: an 8h-offset partner rescues most of the
        # demand a solo constrained site sheds, and PCM composes with it.
        assert result.summary["geo_served_fraction"] > (
            result.summary["solo_served_fraction"] + 0.02
        )
        assert result.summary["geo_pcm_served_fraction"] >= (
            result.summary["geo_served_fraction"] - 1e-6
        )
