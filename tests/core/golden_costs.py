"""The golden query-cost table: the paper's cost measure, pinned cell by cell.

The paper measures a discovery algorithm by the number of top-k queries it
issues.  Every cell of ``golden_costs.json`` runs one registered algorithm
serially through :meth:`repro.Discoverer.run` (skyband cells through
:meth:`repro.Discoverer.skyband`) and records what the run paid:

* ``name`` -- the registry name the cell ran;
* ``display`` -- ``result.algorithm``;
* ``billed`` -- ``result.total_cost``;
* ``skyline`` -- distinct skyline (skyband) value vectors;
* ``queries_sha256`` -- sha256 of the canonical query keys of
  ``result.query_log`` in dispatch order, so a change of expansion order
  shows even when the cost and the skyline stay the same.

The instances:

* every CLI dataset (``repro.cli.DATASETS``) x every applicable algorithm at
  n=1000, k=10, seed 0 -- except SQ-DB-SKY on the all-RQ ``autos`` and
  ``diamonds`` data, which costs tens of seconds at n=1000 and runs at
  n=100;
* seven interface-kind mixes (uniform random tables, rng 7, n=200,
  domain 12, k=5) x every applicable algorithm; ``pure-pq-2d`` is the one
  instance that ``pq2d`` supports;
* skyband cells at band 2 and n=300: every skyband extension on every
  dataset whose schema it supports;
* the anti-diagonal table (two point-query attributes, domain 400, k=5;
  ``tests.conftest.anti_diagonal_pq_table``), whose 200 skyline tuples
  make PQ-2D-SKY's line-query chains run: ``pq2d``, ``pq`` and ``mq``.
  BASELINE bills 63,201 queries there and has cells elsewhere.

``dispatch`` records, for every dataset, kind-mix and anti-diagonal
instance, the algorithm ``Discoverer.run`` picks when given no name.

``concurrent`` pins the same fields for five algorithms run on the
in-process thread pool at ``workers`` x ``batch_size`` of 4 x 1 and
4 x 16.  ``result.query_log`` is in merge order, which is dispatch order,
so its digest pins the order a window of that shape pops in.

``tests/core/test_golden_costs.py`` recomputes the table and only reads
the file.  Rewrite the file by running this module from the repository
root::

    PYTHONPATH=src python -m tests.core.golden_costs

A change that moves a cell names the cell in CHANGES.md and says why.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Callable

import numpy as np

from repro import Discoverer, TopKInterface
from repro.cli import DATASETS
from repro.core import all_algorithms, applicable_algorithms
from repro.hiddendb import InterfaceKind, Table

from ..conftest import anti_diagonal_pq_table, random_table

GOLDEN_PATH = Path(__file__).with_name("golden_costs.json")

SEED = 0
K = 10
N = 1000
#: SQ-DB-SKY's overlapping tree on these all-RQ datasets bills ~295k
#: queries at n=1000 (37-42 s on a 2-core Xeon); at n=100, a tenth of a
#: second.
SMALL_SQ_N = {"autos": 100, "diamonds": 100}

SKYBAND_N = 300
SKYBAND_BAND = 2

MIX_SEED = 7
MIX_N = 200
MIX_DOMAIN = 12
MIX_K = 5

SQ = InterfaceKind.SQ
RQ = InterfaceKind.RQ
PQ = InterfaceKind.PQ

ANTI_DIAGONAL = "anti-diagonal/d400"
ANTI_DIAGONAL_K = 5
ANTI_DIAGONAL_ALGORITHMS = ("mq", "pq", "pq2d")

#: ``(workers, batch_size)`` of the concurrent cells.
CONCURRENT_SHAPES = ((4, 1), (4, 16))
#: Algorithm -> the instance its concurrent cells run on.
CONCURRENT_INSTANCES = {
    "baseline": "dataset/diamonds/n1000",
    "mq": "dataset/flights-mixed/n1000",
    "pq2d": ANTI_DIAGONAL,
    "rq": "dataset/diamonds/n1000",
    "sq": "dataset/flights-range/n300",
}

KIND_MIXES: dict[str, tuple[InterfaceKind, ...]] = {
    "pure-sq": (SQ, SQ, SQ),
    "pure-rq": (RQ, RQ, RQ),
    "mixed-ranges": (SQ, RQ, SQ),
    "pure-pq": (PQ, PQ, PQ),
    "pure-pq-2d": (PQ, PQ),
    "mixed-all": (SQ, RQ, PQ),
    "rq+pq": (RQ, RQ, PQ),
}


# The table caches below hold one table per instance of the fixed grid, so
# enumerating the grid and running its cells builds each table once.
@functools.cache
def dataset_table(dataset: str, n: int) -> Table:
    """The CLI's ``--dataset`` table at size ``n``, seed 0."""
    return DATASETS[dataset](n, SEED)


@functools.cache
def mix_table(mix: str) -> Table:
    """A uniform random table over one kind mix (fresh rng per mix)."""
    rng = np.random.default_rng(MIX_SEED)
    return random_table(rng, KIND_MIXES[mix], MIX_N, MIX_DOMAIN)


@functools.cache
def anti_diagonal_table() -> Table:
    """The anti-diagonal point-query table (built once)."""
    return anti_diagonal_pq_table(400)


#: Instance key -> (table factory, interface k).
Instance = tuple[Callable[[], Table], int]


def dispatch_instances() -> dict[str, Instance]:
    """The instances whose auto-dispatch target the table records."""
    instances: dict[str, Instance] = {}
    for dataset in sorted(DATASETS):
        instances[f"dataset/{dataset}/n{N}"] = (
            functools.partial(dataset_table, dataset, N), K
        )
    for mix in KIND_MIXES:
        instances[f"mix/{mix}"] = (functools.partial(mix_table, mix), MIX_K)
    instances[ANTI_DIAGONAL] = (anti_diagonal_table, ANTI_DIAGONAL_K)
    return instances


def cells() -> dict[str, tuple[str, str, Instance]]:
    """Cell key -> (verb, registry name, instance); verb is ``run`` or
    ``skyband``."""
    grid: dict[str, tuple[str, str, Instance]] = {}
    for dataset in sorted(DATASETS):
        for spec in applicable_algorithms(dataset_table(dataset, N).schema):
            n = SMALL_SQ_N.get(dataset, N) if spec.name == "sq" else N
            instance = (functools.partial(dataset_table, dataset, n), K)
            grid[f"dataset/{dataset}/n{n}/{spec.name}"] = (
                "run", spec.name, instance
            )
    for mix in KIND_MIXES:
        for spec in applicable_algorithms(mix_table(mix).schema):
            instance = (functools.partial(mix_table, mix), MIX_K)
            grid[f"mix/{mix}/{spec.name}"] = ("run", spec.name, instance)
    for dataset in sorted(DATASETS):
        schema = dataset_table(dataset, SKYBAND_N).schema
        for spec in all_algorithms():
            if spec.supports_skyband(schema):
                instance = (
                    functools.partial(dataset_table, dataset, SKYBAND_N), K
                )
                grid[f"skyband/{dataset}/n{SKYBAND_N}/{spec.name}"] = (
                    "skyband", spec.name, instance
                )
    for name in ANTI_DIAGONAL_ALGORITHMS:
        grid[f"{ANTI_DIAGONAL}/{name}"] = (
            "run", name, (anti_diagonal_table, ANTI_DIAGONAL_K)
        )
    return grid


def concurrent_cells() -> dict[str, tuple[str, Instance, tuple[int, int]]]:
    """Cell key -> (registry name, instance, ``(workers, batch_size)``)."""
    grid: dict[str, tuple[str, Instance, tuple[int, int]]] = {}
    for name, key in sorted(CONCURRENT_INSTANCES.items()):
        if key == ANTI_DIAGONAL:
            instance: Instance = (anti_diagonal_table, ANTI_DIAGONAL_K)
        else:
            _, dataset, size = key.split("/")
            instance = (
                functools.partial(dataset_table, dataset, int(size[1:])), K
            )
        for workers, batch_size in CONCURRENT_SHAPES:
            grid[f"{key}/{name}/w{workers}b{batch_size}"] = (
                name, instance, (workers, batch_size)
            )
    return grid


def queries_sha256(query_log) -> str:
    """sha256 of the logged queries' canonical keys, one per line."""
    keys = "\n".join(result.query.canonical_key() for result in query_log)
    return hashlib.sha256(keys.encode("utf-8")).hexdigest()


def summarize(name: str, result, skyline: int) -> dict:
    """The golden fields of one finished run."""
    return {
        "name": name,
        "display": result.algorithm,
        "billed": result.total_cost,
        "skyline": skyline,
        "queries_sha256": queries_sha256(result.query_log),
    }


def measure(verb: str, name: str, instance: Instance) -> dict:
    """Run one cell serially on a fresh interface and summarize it."""
    make_table, k = instance
    interface = TopKInterface(make_table(), k=k)
    if verb == "skyband":
        band = Discoverer().skyband(
            interface, SKYBAND_BAND, name, record_log=True
        )
        return summarize(name, band, len(band.skyband_values))
    result = Discoverer().run(interface, name, record_log=True)
    return summarize(name, result, result.skyline_size)


def measure_concurrent(
    name: str, instance: Instance, shape: tuple[int, int]
) -> dict:
    """Run one cell on the thread pool at ``shape`` and summarize it."""
    make_table, k = instance
    workers, batch_size = shape
    result = Discoverer().run(
        TopKInterface(make_table(), k=k), name, record_log=True,
        strategy="async", workers=workers, batch_size=batch_size,
    )
    return summarize(name, result, result.skyline_size)


def measure_dispatch(instance: Instance) -> dict:
    """Run ``Discoverer.run`` with no algorithm name and summarize it."""
    make_table, k = instance
    result = Discoverer().run(TopKInterface(make_table(), k=k), record_log=True)
    return summarize(result.info.name, result, result.skyline_size)


def generate() -> dict:
    """The whole table, freshly computed."""
    return {
        "cells": {
            key: measure(verb, name, instance)
            for key, (verb, name, instance) in sorted(cells().items())
        },
        "dispatch": {
            key: measure_dispatch(instance)["name"]
            for key, instance in sorted(dispatch_instances().items())
        },
        "concurrent": {
            key: measure_concurrent(*cell)
            for key, cell in sorted(concurrent_cells().items())
        },
    }


def main() -> None:
    table = generate()
    GOLDEN_PATH.write_text(json.dumps(table, indent=1) + "\n")
    print(
        f"wrote {len(table['cells'])} cells, {len(table['dispatch'])} "
        f"dispatch entries and {len(table['concurrent'])} concurrent cells "
        f"to {GOLDEN_PATH.name}"
    )


if __name__ == "__main__":
    main()
