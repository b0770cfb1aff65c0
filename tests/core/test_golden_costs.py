"""The golden cost table: every cell recomputed and compared for equality.

The parity grids compare a concurrent run with a serial run of the same
code, so a change that moves both the same way passes them.  This table
pins the serial run itself: billed count, distinct skyline size and the
query sequence of every algorithm on every CLI dataset and kind mix, and
the merge order of five algorithms at two concurrent window shapes (see
``golden_costs.py`` for the cells and how to regenerate the file).
"""

import json

import pytest

from . import golden_costs

GOLDEN = json.loads(golden_costs.GOLDEN_PATH.read_text())


def _mismatch(label: str, expected: dict, actual: dict) -> str:
    changed = sorted(
        field
        for field in expected.keys() | actual.keys()
        if expected.get(field) != actual.get(field)
    )
    return (
        f"golden cell {label} changed in {', '.join(changed)}\n"
        f"  golden:   {expected}\n"
        f"  measured: {actual}"
    )


def test_table_covers_exactly_the_cell_grid():
    assert sorted(GOLDEN["cells"]) == sorted(golden_costs.cells())
    assert sorted(GOLDEN["dispatch"]) == sorted(
        golden_costs.dispatch_instances()
    )
    assert sorted(GOLDEN["concurrent"]) == sorted(
        golden_costs.concurrent_cells()
    )


@pytest.mark.parametrize("key", sorted(GOLDEN["cells"]))
def test_cell_matches_golden_table(key):
    verb, name, instance = golden_costs.cells()[key]
    expected = GOLDEN["cells"][key]
    actual = golden_costs.measure(verb, name, instance)
    assert actual == expected, _mismatch(key, expected, actual)


@pytest.mark.parametrize("key", sorted(GOLDEN["dispatch"]))
def test_auto_dispatch_matches_golden_table(key):
    """``Discoverer.run`` with no name picks the recorded algorithm, and the
    run equals that algorithm's named cell."""
    actual = golden_costs.measure_dispatch(
        golden_costs.dispatch_instances()[key]
    )
    picked = GOLDEN["dispatch"][key]
    expected = GOLDEN["cells"][f"{key}/{picked}"]
    assert actual == expected, _mismatch(f"{key} (auto)", expected, actual)


@pytest.mark.parametrize("key", sorted(GOLDEN["concurrent"]))
def test_concurrent_cell_matches_golden_table(key):
    """A window of a fixed shape pops, bills and merges in a fixed order."""
    expected = GOLDEN["concurrent"][key]
    actual = golden_costs.measure_concurrent(
        *golden_costs.concurrent_cells()[key]
    )
    assert actual == expected, _mismatch(key, expected, actual)
