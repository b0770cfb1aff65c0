"""Scaled-down smoke runs of every figure experiment.

Each test runs the figure's ``run()`` with laptop-instant parameters and
asserts the structural properties the paper's figure demonstrates -- who
wins, what grows, what stays flat.  The full-scale series live in
``benchmarks/`` and EXPERIMENTS.md.
"""

import pytest

from repro.experiments import (
    fig04_analysis,
    fig06_sq_vs_rq,
    fig13_impact_k,
    fig14_impact_n,
    fig15_impact_m,
    fig16_pq_n,
    fig17_pq_domain,
    fig18_mixed_n,
    fig19_mixed_attrs,
    fig20_anytime_range,
    fig21_anytime_pq,
    fig22_bluenile,
    fig23_gflights,
    fig24_yautos,
)


class TestFig04:
    def test_average_orders_of_magnitude_below_worst(self):
        rows = fig04_analysis.run(ms=(4,), max_s=9)
        for row in rows:
            if row["S"] > 3:
                assert row["worst_case"] > 10 * row["average_cost"]

    def test_covers_both_dimensionalities(self):
        rows = fig04_analysis.run()
        assert {row["m"] for row in rows} == {4, 8}


class TestFig06:
    def test_rq_beats_sq_for_large_skylines(self):
        rows = fig06_sq_vs_rq.run(ms=(4,), n=500,
                                  rhos=(0.5, -0.5, -0.9), k=1)
        worst = rows[-1]
        assert worst["S"] > rows[0]["S"]
        assert worst["sq_cost"] >= worst["rq_cost"]

    def test_sq_budget_cutoff_is_reported(self):
        rows = fig06_sq_vs_rq.run(ms=(4,), n=500, rhos=(-0.9,), k=1,
                                  sq_budget=10)
        assert isinstance(rows[0]["sq_cost"], str)
        assert rows[0]["sq_cost"].startswith(">10")


class TestFig13:
    def test_rq_beats_baseline_at_every_k(self):
        rows = fig13_impact_k.run(n=2000, m=3, ks=(1, 10))
        for row in rows:
            assert row["baseline_cost"] > row["rq_cost"]
            # The headline bound of the full-size run.
            assert row["baseline_cost"] > 3 * row["rq_cost"]

    def test_cost_decreases_with_k(self):
        rows = fig13_impact_k.run(n=2000, m=3, ks=(1, 25),
                                  include_baseline=False)
        assert rows[0]["rq_cost"] >= rows[-1]["rq_cost"]


class TestFig14:
    def test_cost_tracks_skyline_not_n(self):
        rows = fig14_impact_n.run(ns=(1000, 4000), m=3, k=10)
        assert rows[-1]["rq_cost"] < 40 * rows[0]["rq_cost"]
        for row in rows:
            assert row["rq_cost"] <= row["sq_cost"]
        # The headline bound of the full-size run: cost per skyline tuple
        # stays flat while n grows.
        per_tuple_first = rows[0]["rq_cost"] / max(rows[0]["S"], 1)
        per_tuple_last = rows[-1]["rq_cost"] / max(rows[-1]["S"], 1)
        assert per_tuple_last < 4 * per_tuple_first


class TestFig15:
    def test_cost_grows_with_m(self):
        rows = fig15_impact_m.run(ms=(2, 4), n=3000, k=10)
        assert rows[-1]["rq_cost"] >= rows[0]["rq_cost"]
        assert rows[-1]["S"] >= rows[0]["S"]


class TestFig16:
    def test_cost_grows_with_dimensions(self):
        rows = fig16_pq_n.run(ns=(3000,), ms=(3, 4), k=10)
        assert rows[0]["cost_4d"] >= rows[0]["cost_3d"]


class TestFig17:
    def test_cost_grows_slower_than_space(self):
        rows = fig17_pq_domain.run(domains=(5, 9), n=20_000, m=3,
                                   sample=10_000, k=10)
        cost_ratio = (rows[-1]["cost"] + 1) / (rows[0]["cost"] + 1)
        space_ratio = rows[-1]["space"] / rows[0]["space"]
        assert cost_ratio < space_ratio


class TestFig18:
    def test_cost_roughly_flat_in_n(self):
        rows = fig18_mixed_n.run(ns=(2000, 8000), k=10)
        assert rows[-1]["cost"] < 40 * rows[0]["cost"]
        # The headline bound of the full-size run: cost per skyline tuple
        # stays within 6x across n.
        per_tuple = [row["cost"] / max(row["S"], 1) for row in rows]
        assert max(per_tuple) < 6 * min(per_tuple)


class TestFig19:
    def test_point_attributes_cost_more_than_range(self):
        rows = fig19_mixed_attrs.run(totals=(4,), n=3000, k=10)
        assert rows[0]["cost_varying_point"] > rows[0]["cost_varying_range"]


class TestFig20:
    def test_sq_trails_rq_by_the_end(self):
        rows = fig20_anytime_range.run(n=10_000, m=4, k=10)
        assert rows, "expected at least one discovery"
        costs_monotone = [row["rq_cost"] for row in rows]
        assert costs_monotone == sorted(costs_monotone)
        assert rows[-1]["rq_cost"] <= rows[-1]["sq_cost"]


class TestFig21:
    def test_trace_is_monotone(self):
        rows = fig21_anytime_pq.run(n=10_000, m=3, k=10)
        costs = [row["cost"] for row in rows]
        assert costs == sorted(costs)


class TestFig22:
    def test_mq_discovers_everything_baseline_cut_off(self):
        rows = fig22_bluenile.run(n=4000, k=50, baseline_cutoff=300)
        total = rows[-1]
        assert isinstance(total["mq_cost"], int)
        assert "found" in str(total["baseline_cost"])
        # The headline bound of the full-size run.
        assert total["mq_cost"] / total["tuples"] < 10


class TestFig23:
    def test_all_instances_within_quota(self):
        rows = fig23_gflights.run(instances=5, k=1)
        summary = rows[-1]
        assert "0 instances over" in str(summary["avg_cost"])

    def test_average_costs_monotone(self):
        rows = fig23_gflights.run(instances=5, k=1)
        costs = [row["avg_cost"] for row in rows[:-1]]
        assert costs == sorted(costs)


class TestFig24:
    def test_mq_cost_per_tuple_is_small(self):
        rows = fig24_yautos.run(n=4000, k=50, baseline_cutoff=2000)
        total = rows[-1]
        per_tuple = total["mq_cost"] / total["tuples"]
        # The headline bound of the full-size run.
        assert per_tuple < 6


class TestRunner:
    def test_main_rejects_unknown_figure(self):
        from repro.experiments.__main__ import main

        assert main(["nonsense"]) == 2

    def test_every_figure_module_has_entry_points(self):
        from repro.experiments import ALL_FIGURES

        assert len(ALL_FIGURES) == 14
        for module in ALL_FIGURES.values():
            assert hasattr(module, "run")
            assert hasattr(module, "main")
