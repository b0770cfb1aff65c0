"""Figure 22: live-style skyline discovery over the Blue Nile catalogue.

MQ-DB-SKY (here: all five diamond attributes are two-ended ranges, so the
algorithm reduces to RQ-DB-SKY) against BASELINE, under the site's
price-ascending default ranking with k = 50.  The paper discovered all
2,149 skyline diamonds at ~3.5 queries per tuple, while BASELINE was cut
off at 10,000 queries with barely half the skyline retrieved.

The output is the discovery curve: cumulative query cost when each fraction
of the skyline has been retrieved, for both methods.  BASELINE runs under
the same 10,000-query budget the paper imposed.
"""

from __future__ import annotations

from ..datagen.diamonds import PRICE_ATTRIBUTE, diamonds_table
from ..hiddendb.ranking import LinearRanker
from .common import (
    engine_summary,
    ground_truth_values,
    make_interface,
    run_discovery,
)
from .reporting import print_experiment

BASELINE_CUTOFF = 10_000


def run(
    n: int = 209_666,
    k: int = 50,
    seed: int = 0,
    checkpoints: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    baseline_cutoff: int = BASELINE_CUTOFF,
) -> list[dict]:
    """Discovery-progress rows: query cost per skyline fraction, per method."""
    table = diamonds_table(n, seed=seed)
    ranker = LinearRanker.single_attribute(PRICE_ATTRIBUTE, table.schema.m)
    expected = ground_truth_values(table)

    mq = run_discovery(make_interface(table, k=k, ranker=ranker))
    if mq.skyline_values != expected:
        raise AssertionError("discovery incomplete on the diamond catalogue")

    budgeted = make_interface(table, k=k, ranker=ranker, budget=baseline_cutoff)
    base = run_discovery(budgeted, "baseline")
    base_found = len(base.skyline_values & expected)

    size = len(expected)
    rows = []
    for fraction in checkpoints:
        target = max(1, round(size * fraction))
        rows.append(
            {
                "skyline_fraction": fraction,
                "tuples": target,
                "mq_cost": mq.cost_of_discovery(min(target, len(mq.trace))),
                "baseline_cost": (
                    base.total_cost if base_found >= target else
                    f">{baseline_cutoff} (cut off at {base_found})"
                ),
            }
        )
    rows.append(
        {
            "skyline_fraction": "total",
            "tuples": size,
            "mq_cost": mq.total_cost,
            "baseline_cost": f"{base.total_cost} ({base_found}/{size} found)",
            "engine": engine_summary(mq),
        }
    )
    return rows


def main() -> None:
    print_experiment("Figure 22: Blue Nile diamonds (MQ vs BASELINE)", run())


if __name__ == "__main__":
    main()
