"""Command-line interface: ``repro`` (or ``python -m repro.cli``).

Eleven subcommands, all running against the bundled generators so the
paper's system can be exercised without writing any code:

* ``discover``   -- run skyline discovery over a generated dataset;
* ``crawl``      -- durable discovery against a :mod:`repro.store` crawl
  store: every billed answer is ledgered, progress is checkpointed,
  ``--resume`` picks a killed crawl back up with zero double billing, and
  ``--delta`` incrementally repairs a previous crawl of a mutated
  endpoint instead of re-billing it from scratch;
* ``skyband``    -- run top-K skyband discovery;
* ``stats``      -- query-log statistics of a discovery run;
* ``algorithms`` -- list the registered discovery algorithms;
* ``figures``    -- list or run the figure-reproduction experiments;
* ``serve``      -- stand a generated dataset up as a networked top-k
  search service (:mod:`repro.service`), or an on-disk one via
  ``--table-db`` (millions of tuples, instant start, survives restarts);
* ``datagen``    -- build workload artifacts: ``datagen build-db``
  persists a generated dataset plus its rank index as a SQLite table;
* ``coordinate`` -- run the sharded multi-tenant crawl coordinator
  (:mod:`repro.coordinator`): accept discovery jobs over JSON and fan
  each one out across several backends sharing one crawl-store ledger;
* ``store``      -- inspect and maintain a crawl store
  (``ls`` / ``show`` / ``gc``, with ``gc --dry-run`` previewing what a
  pass would prune);
* ``mutate``     -- apply an insert/delete/update batch (or a drawn churn
  fraction) to a live service, bumping its data version.

Everything routes through the :class:`repro.Discoverer` facade, so the
``--algorithm`` flag accepts any name in the registry (including algorithms
registered by third-party plugins imported before the CLI runs).  The
``discover`` / ``skyband`` / ``stats`` commands accept ``--url`` to crawl a
remote service through :class:`repro.service.RemoteTopKInterface` instead
of building an in-process interface, and expose the execution engine:
``--workers N`` keeps N independent frontier queries in flight (batched
into ``--batch-size`` sized ``/api/batch`` round trips against the
service), ``--dedup`` memoizes repeated identical queries within the run,
and ``discover --verbose`` prints the resulting engine counters.  There
is one concurrent strategy, and for ``--url`` runs the ``--strategy``
name also picks the client it drives: ``async`` builds the asyncio
client, whose event loop carries the window, and anything else builds
the blocking client, called from a ``--workers``-wide thread pool.

Examples::

    repro discover --dataset diamonds --n 20000 --k 50
    repro discover --dataset flights-mixed --n 50000 --budget 500
    repro discover --dataset uniform --algorithm baseline
    repro skyband --dataset autos --n 5000 --band 3
    repro algorithms
    repro figures --list

    # reproduce a paper figure over the wire (ephemeral servers) with a
    # 4-wide concurrent engine, or durably against a reusable ledger
    repro figures fig13 --remote --workers 4
    repro figures fig13 --store figs.db --resume

    # terminal 1: serve a hidden database (flaky, rate-limited)
    repro serve --dataset diamonds --n 20000 --k 10 --port 8080 \
        --key-budget 5000 --fault-rate 0.1

    # million-tuple serving: build the SQLite table once, then serve it
    # straight off its persisted rank index (instant start, ~no RAM)
    repro datagen build-db --dataset uniform --n 1000000 --out data.sqlite
    repro serve --table-db data.sqlite --k 10 --port 8080

    # terminal 2: crawl it over the wire -- 8 worker threads, 16
    # queries per round trip, run-scoped dedup, engine telemetry
    repro discover --url http://127.0.0.1:8080 --workers 8 --batch-size 16 \
        --dedup --verbose

    # same crawl on the asyncio data plane: one event loop, 32 queries
    # in flight on non-blocking sockets (no thread per worker)
    repro discover --url http://127.0.0.1:8080 --strategy async \
        --workers 32 --verbose

    # durable crawl: kill -9 it mid-run, rerun with --resume, and the
    # ledger replays every answer already paid for
    repro crawl --url http://127.0.0.1:8080 --store crawl.db --workers 8
    repro crawl --url http://127.0.0.1:8080 --store crawl.db --resume
    repro store ls --store crawl.db

    # the database changed under you: churn 10% of it, then repair the
    # crawl incrementally -- unchanged answers replay free, only the
    # moved parts of the data are re-billed
    repro mutate --url http://127.0.0.1:8080 --churn 0.10
    repro crawl --url http://127.0.0.1:8080 --store crawl.db --delta
    repro store gc --store crawl.db --dry-run

    # discovery-jobs-as-a-service: shard crawls over two mirrors of the
    # same database (each with its own API key), one shared ledger
    repro coordinate --store jobs.db --port 8090 \
        --backend http://db-a:8080=key1 --backend http://db-b:8080=key2
    # submit: POST {"tenant": "alice", "budget": 500} to /api/jobs, poll
    # GET /api/jobs/<id>; a killed coordinator restarts with --resume
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import Callable

from .core import (
    STRATEGY_NAMES,
    AlgorithmNotFoundError,
    Discoverer,
    DiscoveryConfig,
    all_algorithms,
    summarize_log,
)
from .datagen import (
    autos_table,
    diamonds_table,
    flight_instance,
    flights_mixed_table,
    flights_pq_table,
    flights_range_table,
    independent,
)
from .experiments import ALL_FIGURES
from .experiments.reporting import format_engine_stats, format_table
from .hiddendb import LinearRanker, Table, TopKInterface
from .service.client import RemoteServiceError
from .service import ServiceStartupError
from .store import CrawlStore, StoreError

#: ``--strategy`` choices: the registered names plus the ``pipelined``
#: alias of ``async`` that older scripts pass.
STRATEGY_CHOICES = [*STRATEGY_NAMES, "pipelined"]

DATASETS: dict[str, Callable[[int, int], Table]] = {
    "diamonds": lambda n, seed: diamonds_table(n, seed=seed),
    "autos": lambda n, seed: autos_table(n, seed=seed),
    "gflights": lambda n, seed: flight_instance(seed=seed, n=n),
    "flights-range": lambda n, seed: flights_range_table(n, 5, seed=seed),
    "flights-pq": lambda n, seed: flights_pq_table(n, 4, seed=seed),
    "flights-mixed": lambda n, seed: flights_mixed_table(n, 3, 2, seed=seed),
    "uniform": lambda n, seed: independent(n, 4, domain=50, seed=seed),
}


def _build_table(args) -> Table:
    if not args.dataset:
        raise ValueError("--dataset is required (or pass --url for a remote run)")
    return DATASETS[args.dataset](args.n, args.seed)


def _build_ranker(args, table: Table) -> LinearRanker | None:
    if args.price_ranking:
        return LinearRanker.single_attribute(0, table.schema.m)
    return None


def _dataset_label(args) -> str:
    """Endpoint identity of a locally generated dataset.

    Feeds the crawl store's fingerprint, so it must pin everything that
    determines the answers: dataset, size, seed and ranking choice (the
    schema and ``k`` are fingerprinted separately).
    """
    label = f"{args.dataset}-n{args.n}-s{args.seed}"
    if args.price_ranking:
        label += "-price"
    return label


def _open_interface(args):
    """The endpoint a discovery command crawls, to hold in a ``with`` block.

    A ``--url`` run gets the non-blocking
    :class:`~repro.service.aclient.AsyncRemoteTopKInterface` under
    ``--strategy async`` and the blocking client otherwise; the block
    closes its sockets (and the asyncio client's event loop).  An
    in-process ``TopKInterface`` holds nothing to close.
    """
    if getattr(args, "url", None):
        if getattr(args, "strategy", None) == "async":
            from .service import AsyncRemoteTopKInterface as client
        else:
            from .service import RemoteTopKInterface as client
        return client(
            args.url,
            api_key=args.api_key,
            cache_size=args.cache or None,
        )
    table = _build_table(args)
    return nullcontext(TopKInterface(
        table,
        ranker=_build_ranker(args, table),
        k=args.k,
        name=_dataset_label(args),
    ))


def _source_label(args, interface) -> str:
    if getattr(args, "url", None):
        return f"{args.url} (remote, k={interface.k})"
    return f"{args.dataset} (n={args.n}, k={args.k})"


def _print_remote_telemetry(args, interface) -> None:
    """Remote-client counters (both flavours share ``QueryClientCore``).

    ``getattr`` defaults keep this safe for interfaces that expose only a
    subset (e.g. an :class:`~repro.coordinator.endpoints.EndpointSet` has
    no budget figure).
    """
    if not getattr(args, "url", None):
        return
    issued = getattr(interface, "queries_issued", 0)
    hits = getattr(interface, "cache_hits", 0)
    retries = getattr(interface, "retries", 0)
    print(f"billable   : {issued} "
          f"(cache hits {hits}, retries {retries})")
    if getattr(args, "verbose", False):
        flavour = type(interface).__name__
        remaining = getattr(interface, "budget_remaining", None)
        headroom = "unlimited" if remaining is None else str(remaining)
        print(f"client     : {flavour} (budget remaining {headroom})")


def _print_result_header(args, interface, result, queries_suffix="") -> None:
    """The summary block shared by ``discover`` and ``crawl``."""
    print(f"dataset    : {_source_label(args, interface)}")
    print(f"algorithm  : {result.algorithm}")
    print(f"queries    : {result.total_cost}{queries_suffix}")
    print(f"skyline    : {result.skyline_size} tuples")
    print(f"complete   : {result.complete}")


def _print_result_details(args, interface, result) -> None:
    """Telemetry/engine/tuple output shared by the discovery commands."""
    _print_remote_telemetry(args, interface)
    if args.verbose:
        print(format_engine_stats(result.stats))
    if args.show_tuples:
        rows = getattr(result, "skyline", None)
        if rows is None:
            rows = result.skyband
        for row in rows[: args.show_tuples]:
            print(f"  {row.values}")


def _workers_arg(value: str) -> "int | str":
    """argparse type for ``--workers``: a positive int or ``auto``."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive int or 'auto', got {value!r}"
        ) from None


def _discoverer(args, **config_kwargs) -> Discoverer:
    trace = getattr(args, "trace", None)
    if trace is not None:
        # --trace PATH holds this invocation's spans only.  The writers
        # append (a skyband's subspace sessions and a delta crawl's rounds
        # share the file), so the file starts empty here, once.
        open(trace, "w", encoding="utf-8").close()
    return Discoverer(
        DiscoveryConfig(
            budget=args.budget,
            strategy=getattr(args, "strategy", None),
            workers=getattr(args, "workers", 1),
            batch_size=getattr(args, "batch_size", 16),
            min_workers=getattr(args, "min_workers", None),
            max_workers=getattr(args, "max_workers", None),
            dedup=True if getattr(args, "dedup", False) else None,
            trace=getattr(args, "trace", None),
            **config_kwargs,
        )
    )


def _algorithm_arg(args) -> str | None:
    name = getattr(args, "algorithm", None)
    return None if name in (None, "auto") else name


def _cmd_discover(args) -> int:
    with _open_interface(args) as interface:
        result = _discoverer(args).run(interface, _algorithm_arg(args))
        _print_result_header(args, interface, result)
        if result.skyline_size:
            print(f"cost/tuple : "
                  f"{result.total_cost / result.skyline_size:.2f}")
        _print_result_details(args, interface, result)
    if args.curve:
        print("\nanytime curve (cost, discovered):")
        for cost, count in result.discovery_curve():
            print(f"  {cost:6d}  {count}")
    return 0


def _cmd_crawl(args) -> int:
    with CrawlStore(args.store) as store, _open_interface(args) as interface:
        return _run_crawl(args, store, interface)


def _run_crawl(args, store: CrawlStore, interface) -> int:
    extra = {}
    if args.delta or args.delta_strict:
        extra["mode"] = "delta"
        if args.delta_strict:
            extra["options"] = {"delta_strict": True}
    result = _discoverer(
        args,
        store=store,
        resume=args.resume,
        checkpoint_every=args.checkpoint_every,
        **extra,
    ).run(interface, _algorithm_arg(args))
    # Report the session THIS run billed under (result.store_session),
    # re-read for its final billed counter -- another crawl sharing the
    # store may have finished in between.
    record = result.store_session
    session = store.session(record.session_id) or record
    endpoint = next(
        e for e in store.endpoints() if e.fingerprint == record.fingerprint
    )
    freshness = getattr(result, "freshness", None)
    prior = session.billed - (result.stats.issued if result.stats else 0)
    _print_result_header(
        args, interface, result,
        # Delta repairs span several engine rounds, so the single-run
        # issued counter cannot split prior from new billing; the
        # freshness block below carries the repair accounting instead.
        queries_suffix=(f" ({prior} billed before resume)"
                        if prior > 0 and freshness is None else ""),
    )
    print(f"store      : {store.path}")
    print(f"session    : {session.session_id} "
          f"({'resumed' if record.resumed else 'new'}, "
          f"billed={session.billed})")
    print(f"ledger     : {endpoint.ledger_entries} answers owned for "
          f"endpoint {endpoint.name or '<unnamed>'} "
          f"[{endpoint.fingerprint[:8]}]")
    if freshness is not None:
        print(f"freshness  : repaired to epoch {freshness.epoch} in "
              f"{freshness.rounds} round(s): {freshness.stale_entries} "
              f"stale entries, {freshness.probes} probes, "
              f"{freshness.served_stale} served stale, "
              f"{freshness.revalidated} revalidated")
        if freshness.skyline_changed:
            print(f"changed    : skyline +{len(freshness.skyline_added)} "
                  f"-{len(freshness.skyline_removed)} vs the previous crawl")
        else:
            print("changed    : skyline unchanged vs the previous crawl")
    _print_result_details(args, interface, result)
    return 0


def _cmd_skyband(args) -> int:
    with _open_interface(args) as interface:
        result = _discoverer(args).skyband(
            interface, args.band, _algorithm_arg(args)
        )
        print(f"dataset  : {_source_label(args, interface)}")
        print(f"algorithm: {result.algorithm} (K={args.band})")
        print(f"queries  : {result.total_cost}")
        print(f"band     : {len(result.skyband)} tuples")
        print(f"complete : {result.complete}")
        _print_result_details(args, interface, result)
    return 0


def _cmd_stats(args) -> int:
    with _open_interface(args) as interface:
        result = _discoverer(args, record_log=True).run(
            interface, _algorithm_arg(args)
        )
    summary = summarize_log(result.query_log)
    print(f"algorithm: {result.algorithm}")
    print(format_table(summary.as_rows()))
    return 0


def _cmd_algorithms(args) -> int:
    print(f"{'name':10s} {'algorithm':12s} {'interfaces':10s} "
          f"{'capabilities':28s} summary")
    for spec in all_algorithms():
        print(
            f"{spec.name:10s} {spec.display_name:12s} "
            f"{'+'.join(spec.taxonomy):10s} "
            f"{','.join(sorted(spec.capabilities)) or '-':28s} "
            f"{spec.summary}"
        )
    return 0


def _route_listing(daemon) -> str:
    """``METHOD /path`` of every route a daemon answers, in table order."""
    return "  ".join(f"{method} {path}" for method, path in daemon.routes)


def _cmd_serve(args) -> int:
    from .service import FaultConfig, HiddenDBServer

    engine = "auto"
    if args.table_db:
        from pathlib import Path

        from .hiddendb import SQLTable, ranker_from_label

        sql = SQLTable(args.table_db)
        name = sql.name or Path(args.table_db).stem
        # The persisted rank index pins the ranking; serving under any
        # other would answer in a different order than the index provides.
        ranker = ranker_from_label(sql.ranking_label)
        if args.engine == "memory":
            table = sql.as_memory()  # rank-ordered in-memory fast path
        else:
            table = sql  # SQL-native: tuples never loaded into memory
            engine = "sqlite"
        dataset = name
    else:
        if args.engine == "sqlite":
            print("error: --engine sqlite needs --table-db", file=sys.stderr)
            return 2
        if not args.dataset:
            print("error: --dataset or --table-db is required", file=sys.stderr)
            return 2
        table = _build_table(args)
        ranker = _build_ranker(args, table)
        name = _dataset_label(args)
        dataset = args.dataset
    faults = None
    if args.fault_rate > 0 or max(args.latency_ms) > 0:
        faults = FaultConfig(
            error_rate=args.fault_rate,
            error_codes=tuple(args.fault_codes),
            latency=(args.latency_ms[0] / 1000.0, args.latency_ms[1] / 1000.0),
            seed=args.fault_seed,
        )
    server = HiddenDBServer(
        table,
        ranker,
        k=args.k,
        host=args.host,
        port=args.port,
        key_budget=args.key_budget,
        faults=faults,
        rate_limit=args.rate_limit,
        burst=args.burst,
        max_inflight=args.max_inflight,
        # The name is the served dataset's identity: crawl stores fold it
        # into their endpoint fingerprint, so serving different data under
        # the same name would wrongly share a ledger.
        name=name,
        engine=engine,
    )
    server.start()
    # flush=True throughout: the URL line must reach a redirected/piped log
    # immediately, or anything polling the log for the bound port hangs.
    print(f"serving    : {dataset} (n={table.n}, k={args.k}, "
          f"engine={server.engine}) at {server.url}",
          flush=True)
    # The actual bound port on its own line: '--port 0' callers (tests,
    # CI scripts) parse this instead of regexing the URL.
    print(f"port       : {server.port}", flush=True)
    print(f"key budget : {args.key_budget if args.key_budget is not None else 'unlimited'}")
    if faults is not None:
        print(f"faults     : rate={faults.error_rate} codes={faults.error_codes} "
              f"latency={args.latency_ms[0]}-{args.latency_ms[1]}ms")
    if args.rate_limit is not None or args.max_inflight is not None:
        shaping = []
        if args.rate_limit is not None:
            burst = args.burst if args.burst is not None \
                else max(1, round(args.rate_limit))
            shaping.append(f"rate={args.rate_limit:g}qps burst={burst}")
        if args.max_inflight is not None:
            shaping.append(f"max-inflight={args.max_inflight}")
        print("shaping    : " + " ".join(shaping))
    print("endpoints  : " + _route_listing(server))
    print("crawl with : repro discover --url " + server.url, flush=True)
    try:
        server.wait(args.duration)
    except KeyboardInterrupt:
        pass
    finally:
        stats = server.stats()
        server.stop()
        print(f"served     : {stats.queries_total} queries "
              f"({stats.faults_injected} faults injected)")
    return 0


def _cmd_build_db(args) -> int:
    import time
    from pathlib import Path

    from .datagen import table_to_sqlite

    generated = time.perf_counter()
    table = _build_table(args)
    generated = time.perf_counter() - generated
    ranker = _build_ranker(args, table)
    built = time.perf_counter()
    path = table_to_sqlite(args.out, table, ranker, name=_dataset_label(args))
    built = time.perf_counter() - built
    size_mb = Path(path).stat().st_size / 1e6
    ranking = ranker.describe() if ranker is not None else "LinearRanker"
    print(f"built      : {path} ({table.n} tuples, {size_mb:.1f} MB)")
    print(f"dataset    : {_dataset_label(args)}")
    print(f"ranking    : {ranking} (persisted as the rank index)")
    print(f"timing     : generate {generated:.1f}s, build {built:.1f}s")
    print(f"serve with : repro serve --table-db {path} --k {args.k}",
          flush=True)
    return 0


def _cmd_coordinate(args) -> int:
    from .coordinator import CrawlCoordinator, EndpointSetError

    coordinator = CrawlCoordinator(
        args.backend,
        args.store,
        host=args.host,
        port=args.port,
        workers_per_backend=args.workers,
        max_parallel_jobs=args.max_jobs,
        resume=args.resume,
    )
    try:
        coordinator.start()
    except EndpointSetError as exc:
        # e.g. two --backend mirrors serving different datasets
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # flush=True: CI scripts poll the log for the bound port.
        print(f"coordinator: {len(coordinator.backends)} backend(s) "
              f"[{coordinator.fingerprint[:8]}] at {coordinator.url}",
              flush=True)
        print(f"port       : {coordinator.port}", flush=True)
        print(f"store      : {args.store}")
        print("endpoints  : " + _route_listing(coordinator), flush=True)
        coordinator.wait(args.duration)
    except KeyboardInterrupt:
        pass
    finally:
        coordinator.stop()
    return 0


def _cmd_store_ls(args) -> int:
    with CrawlStore(args.store) as store:
        endpoints = store.endpoints()
        print(f"store      : {store.path}")
        if not endpoints:
            print("(empty store)")
            return 0
        print(format_table([
            {
                "endpoint": e.name or "<unnamed>",
                "schema": e.fingerprint[:8],
                "k": e.k,
                "ledger": e.ledger_entries,
            }
            for e in endpoints
        ]))
        sessions = store.sessions()
        if sessions:
            print()
            print(format_table([
                {
                    "session": s.session_id,
                    "algorithm": s.algorithm or "-",
                    "status": s.status,
                    "billed": s.billed,
                    "cost": (s.result or {}).get("total_cost", ""),
                    "skyline": (s.result or s.checkpoint or {}).get(
                        "skyline_size", ""
                    ),
                }
                for s in sessions
            ]))
        jobs = store.jobs()
        if jobs:
            print()
            print(format_table([
                {
                    "job": j.job_id,
                    "tenant": j.tenant,
                    "algorithm": j.algorithm or "-",
                    "status": j.status,
                    "backends": j.backends,
                    "billed": j.progress.get("billed", ""),
                    "shards": "/".join(
                        str(s.get("issued", 0))
                        for s in j.progress.get("shards", [])
                    ) or "-",
                    "session": j.session_id,
                }
                for j in jobs
            ]))
    return 0


def _cmd_store_show(args) -> int:
    import json as _json

    with CrawlStore(args.store) as store:
        session = store.session(args.session)
        if session is None:
            print(f"error: no session {args.session!r} in {store.path}",
                  file=sys.stderr)
            return 2
        print(f"session    : {session.session_id}")
        print(f"endpoint   : {session.fingerprint}")
        print(f"algorithm  : {session.algorithm or '-'}")
        print(f"status     : {session.status}")
        print(f"billed     : {session.billed}")
        epoch = store.endpoint_data_version(session.fingerprint)
        histogram = store.ledger_epoch_histogram(session.fingerprint)
        if histogram or epoch:
            spread = "  ".join(
                f"v{version}:{count}"
                for version, count in sorted(histogram.items())
            ) or "-"
            stale = store.ledger_stale_count(session.fingerprint)
            print(f"data epoch : {epoch}")
            print(f"epochs     : {spread}")
            print(f"stale      : {stale} ledger entries billed at an "
                  f"older epoch or past their TTL")
        if session.checkpoint:
            print("checkpoint :",
                  _json.dumps(dict(session.checkpoint), indent=2))
        if session.result is not None:
            print("result     :",
                  _json.dumps(dict(session.result), indent=2))
    return 0


def _cmd_store_gc(args) -> int:
    with CrawlStore(args.store) as store:
        report = store.gc(dry_run=args.dry_run)
        verb = "would prune" if report.dry_run else "pruned"
        print(f"store      : {store.path}")
        print(f"{verb:<11}: {report.endpoints_pruned} endpoints, "
              f"{report.ledger_pruned} orphaned + {report.stale_pruned} "
              f"stale-epoch + {report.expired_pruned} expired ledger "
              f"entries, {report.sessions_pruned} sessions, "
              f"{report.jobs_pruned} jobs")
        if not report.total:
            print("(nothing stale)")
    return 0


def _cmd_mutate(args) -> int:
    from .service import RemoteTopKInterface

    if (args.churn is None) == (args.ops is None):
        print("error: exactly one of --churn or --ops is required",
              file=sys.stderr)
        return 2
    if args.ops is not None:
        import json as _json

        try:
            ops = _json.loads(args.ops)
        except ValueError as exc:
            print(f"error: --ops is not valid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(ops, list):
            print("error: --ops must be a JSON array of operations",
                  file=sys.stderr)
            return 2
    with RemoteTopKInterface(args.url, api_key=args.api_key) as client:
        before = client.data_version
        if args.churn is not None:
            payload = client.mutate(
                churn={"frac": args.churn, "seed": args.churn_seed}
            )
        else:
            payload = client.mutate(ops)
        print(f"endpoint   : {args.url}")
        print(f"applied    : {payload['applied']} mutation(s)")
        print(f"data epoch : {before} -> {payload['data_version']}")
        print("refresh    : repro crawl --delta --url "
              f"{args.url} --store <PATH>")
    return 0


def _cmd_figures(args) -> int:
    if args.list or not args.figures:
        for name, module in ALL_FIGURES.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:7s} {doc}")
        return 0
    for name in args.figures:
        if name not in ALL_FIGURES:
            print(f"unknown figure {name!r}; try --list", file=sys.stderr)
            return 2
    from .experiments.common import configure_experiments, reset_experiments

    configure_experiments(
        remote=args.remote,
        store=args.store,
        resume=args.resume,
        strategy=args.strategy,
        workers=args.workers,
        batch_size=args.batch_size,
        dedup=args.dedup or None,
    )
    try:
        for name in args.figures:
            ALL_FIGURES[name].main()
    finally:
        reset_experiments()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Skyline discovery over top-k hidden web databases "
        "(Asudeh et al., VLDB 2016).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    algorithm_choices = ["auto"] + [spec.name for spec in all_algorithms()]

    def add_dataset(sub: argparse.ArgumentParser, required: bool) -> None:
        sub.add_argument("--dataset", choices=sorted(DATASETS),
                         required=required)
        sub.add_argument("--n", type=int, default=10_000,
                         help="dataset size (default 10000)")
        sub.add_argument("--k", type=int, default=10,
                         help="top-k of the interface (default 10)")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--price-ranking", action="store_true",
                         help="rank by the first attribute only "
                         "(the live sites' default)")

    def add_common(sub: argparse.ArgumentParser) -> None:
        add_dataset(sub, required=False)
        sub.add_argument("--budget", type=int, default=None,
                         help="query rate limit (anytime mode)")
        sub.add_argument("--algorithm", choices=algorithm_choices,
                         default="auto",
                         help="registered algorithm to run "
                         "(default: auto-dispatch on the schema taxonomy)")
        sub.add_argument("--url", default=None, metavar="URL",
                         help="crawl a remote hidden-DB service instead of "
                         "building one in-process (see 'repro serve'); "
                         "--dataset/--n/--k/--seed are ignored")
        sub.add_argument("--api-key", default="anonymous",
                         help="billing identity for --url runs")
        sub.add_argument("--cache", type=int, default=0, metavar="SIZE",
                         help="client-side LRU query cache for --url runs "
                         "(cache hits are not billed; default off)")
        sub.add_argument("--strategy", choices=STRATEGY_CHOICES,
                         default=None,
                         help="execution strategy draining the query "
                         "frontier: 'serial' (one query at a time, the "
                         "parity reference) or 'async' (--workers queries "
                         "in flight; 'pipelined' is an alias).  The "
                         "endpoint picks the transport: --url runs under "
                         "'async' get the asyncio client and keep the "
                         "window on its event loop, every other run calls "
                         "a blocking endpoint from a --workers-wide thread "
                         "pool.  Default: async when --workers > 1, serial "
                         "otherwise.  All strategies produce the same "
                         "skyline and billed cost")
        sub.add_argument("--workers", type=_workers_arg, default=1,
                         metavar="N|auto",
                         help="dispatch-window width: how many independent "
                         "frontier queries are kept in flight (default 1 = "
                         "serial; skyline and query cost are unchanged). "
                         "'auto' enables AIMD adaptive control: the window "
                         "grows on clean completions and shrinks to 3/4 on "
                         "429/503/timeout pressure, honoring server "
                         "Retry-After hints, within [--min-workers, "
                         "--max-workers]")
        sub.add_argument("--min-workers", type=int, default=None, metavar="N",
                         help="adaptive window floor (needs --workers auto; "
                         "default 1)")
        sub.add_argument("--max-workers", type=int, default=None, metavar="N",
                         help="adaptive window ceiling (needs --workers "
                         "auto; default 32)")
        sub.add_argument("--batch-size", type=int, default=16, metavar="N",
                         help="queries packed per batch round trip when the "
                         "endpoint supports batching (default 16; needs "
                         "--workers > 1)")
        sub.add_argument("--dedup", action="store_true",
                         help="memoize repeated identical queries within "
                         "the run (hits are never billed)")
        sub.add_argument("--trace", default=None, metavar="PATH",
                         help="write query-lifecycle spans (classification, "
                         "billing, transport, merge) to PATH as JSON Lines; "
                         "tracing never changes the skyline or billed cost")

    def add_output_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--show-tuples", type=int, default=0, metavar="N",
                         help="print the first N skyline tuples")
        sub.add_argument("--verbose", action="store_true",
                         help="print execution-engine counters (dispatch "
                         "strategy, dedup/ledger savings, batching)")

    sub = subparsers.add_parser("discover", help="discover the skyline")
    add_common(sub)
    add_output_flags(sub)
    sub.add_argument("--curve", action="store_true",
                     help="print the anytime discovery curve")
    sub.set_defaults(handler=_cmd_discover)

    sub = subparsers.add_parser(
        "crawl",
        help="durable skyline discovery against a crawl store "
        "(resumable; never re-bills an owned answer)",
    )
    add_common(sub)
    sub.add_argument("--store", required=True, metavar="PATH",
                     help="SQLite crawl store holding the query ledger, "
                     "session checkpoints and result catalog")
    sub.add_argument("--resume", action="store_true",
                     help="pick up the most recent unfinished crawl of "
                     "this endpoint+algorithm instead of starting fresh")
    sub.add_argument("--checkpoint-every", type=int, default=32, metavar="N",
                     help="answers between progress checkpoints "
                     "(default 32).  Billed answers are ledgered in the "
                     "checkpoint's transaction, so a SIGKILL leaves at "
                     "most min(N, 64) merged answers unledgered; the "
                     "billed counter always equals the ledger")
    sub.add_argument("--delta", action="store_true",
                     help="incremental repair: probe the previous crawl's "
                     "skyline, serve unchanged ledger answers free and "
                     "re-bill only where the endpoint's data moved "
                     "(needs a prior crawl of this endpoint in --store)")
    sub.add_argument("--delta-strict", action="store_true",
                     help="with --delta: also re-verify every emptiness "
                     "certificate not provably still covered -- catches "
                     "inserts hiding in regions the old crawl proved "
                     "empty, at a higher repair cost (implies --delta)")
    add_output_flags(sub)
    sub.set_defaults(handler=_cmd_crawl)

    sub = subparsers.add_parser("skyband", help="discover the top-K skyband")
    add_common(sub)
    sub.add_argument("--band", type=int, default=2, help="K (default 2)")
    add_output_flags(sub)
    sub.set_defaults(handler=_cmd_skyband)

    sub = subparsers.add_parser("stats", help="query-log statistics of a run")
    add_common(sub)
    sub.set_defaults(handler=_cmd_stats)

    sub = subparsers.add_parser(
        "algorithms", help="list the registered discovery algorithms"
    )
    sub.set_defaults(handler=_cmd_algorithms)

    sub = subparsers.add_parser(
        "serve", help="serve a dataset as a networked top-k search service"
    )
    add_dataset(sub, required=False)
    sub.add_argument("--table-db", default=None, metavar="PATH",
                     help="serve a SQLite table built by 'repro datagen "
                     "build-db' instead of generating one in memory: "
                     "starts instantly at any size and survives restarts "
                     "(--dataset/--n/--seed are then ignored)")
    sub.add_argument("--engine", choices=["auto", "memory", "sqlite"],
                     default="auto",
                     help="serving engine for --table-db: 'sqlite' answers "
                     "straight off the persisted rank index (default for "
                     "--table-db), 'memory' loads the table and uses the "
                     "rank-ordered in-memory fast path; both are "
                     "bit-identical (default auto)")
    sub.add_argument("--host", default="127.0.0.1")
    sub.add_argument("--port", type=int, default=8080,
                     help="bind port; 0 picks an ephemeral one (default 8080)")
    sub.add_argument("--key-budget", type=int, default=None,
                     help="per-API-key query budget (default unlimited)")
    sub.add_argument("--fault-rate", type=float, default=0.0,
                     help="probability of an injected retriable error "
                     "per query (default 0)")
    sub.add_argument("--fault-codes", type=int, nargs="+",
                     default=[429, 503],
                     help="HTTP codes injected faults draw from")
    sub.add_argument("--latency-ms", type=float, nargs=2, default=[0.0, 0.0],
                     metavar=("LO", "HI"),
                     help="uniform latency jitter bounds in milliseconds")
    sub.add_argument("--fault-seed", type=int, default=0)
    sub.add_argument("--rate-limit", type=float, default=None, metavar="QPS",
                     help="per-API-key sustained query rate, token-bucket "
                     "enforced; over-rate requests get a 429 with an "
                     "honest Retry-After (default unlimited)")
    sub.add_argument("--burst", type=int, default=None, metavar="N",
                     help="token-bucket burst capacity for --rate-limit "
                     "(default: round(QPS))")
    sub.add_argument("--max-inflight", type=int, default=None, metavar="N",
                     help="server-wide concurrency cap; excess queries are "
                     "shed with a retriable 503 (default unbounded)")
    sub.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                     help="stop after this many seconds "
                     "(default: run until interrupted)")
    sub.set_defaults(handler=_cmd_serve)

    sub = subparsers.add_parser(
        "datagen",
        help="build workload artifacts (SQLite tables for 'serve --table-db')",
    )
    datagen_actions = sub.add_subparsers(dest="datagen_action", required=True)
    action = datagen_actions.add_parser(
        "build-db",
        help="generate a dataset and persist it (with its rank index) "
        "as a SQLite table",
    )
    add_dataset(action, required=True)
    action.add_argument("--out", required=True, metavar="PATH",
                        help="output SQLite file (overwritten if present)")
    action.set_defaults(handler=_cmd_build_db)

    sub = subparsers.add_parser(
        "coordinate",
        help="serve discovery jobs over a sharded pool of hidden-DB "
        "backends sharing one crawl-store ledger",
    )
    sub.add_argument("--store", required=True, metavar="PATH",
                     help="shared crawl store (ledger, sessions, job catalog)")
    sub.add_argument("--backend", action="append", required=True,
                     metavar="URL[=APIKEY]",
                     help="a hidden-DB service to fan queries out to; "
                     "repeat for each mirror (all must serve the same "
                     "endpoint fingerprint)")
    sub.add_argument("--host", default="127.0.0.1")
    sub.add_argument("--port", type=int, default=8090,
                     help="bind port; 0 picks an ephemeral one (default 8090)")
    sub.add_argument("--workers", type=int, default=4, metavar="N",
                     help="default in-flight window per backend per job "
                     "(a job's 'workers' field overrides it; default 4)")
    sub.add_argument("--max-jobs", type=int, default=4, metavar="N",
                     help="jobs crawled concurrently (default 4)")
    sub.add_argument("--resume", action="store_true",
                     help="re-enqueue every catalog job still queued or "
                     "running (recover from a killed coordinator)")
    sub.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                     help="stop after this many seconds "
                     "(default: run until interrupted)")
    sub.set_defaults(handler=_cmd_coordinate)

    sub = subparsers.add_parser(
        "store", help="inspect and maintain a crawl store"
    )
    actions = sub.add_subparsers(dest="action", required=True)

    def add_store_path(action: argparse.ArgumentParser) -> None:
        action.add_argument("--store", required=True, metavar="PATH",
                            help="crawl store database file")

    action = actions.add_parser(
        "ls", help="list registered endpoints and crawl sessions"
    )
    add_store_path(action)
    action.set_defaults(handler=_cmd_store_ls)

    action = actions.add_parser(
        "show", help="show one crawl session (checkpoint and result)"
    )
    action.add_argument("session", help="session id (see 'repro store ls')")
    add_store_path(action)
    action.set_defaults(handler=_cmd_store_show)

    action = actions.add_parser(
        "gc", help="prune stale endpoints, ledger entries and sessions"
    )
    add_store_path(action)
    action.add_argument("--dry-run", action="store_true",
                        help="report what a gc pass would remove (stale "
                        "epochs, lapsed TTLs, orphans) without deleting "
                        "anything")
    action.set_defaults(handler=_cmd_store_gc)

    sub = subparsers.add_parser(
        "mutate",
        help="apply a mutation batch to a live hidden-DB service "
        "(POST /api/mutate; bumps its data version)",
    )
    sub.add_argument("--url", required=True, metavar="URL",
                     help="the service to mutate (see 'repro serve')")
    sub.add_argument("--api-key", default="anonymous",
                     help="client identity (mutations are never billed)")
    sub.add_argument("--churn", type=float, default=None, metavar="FRAC",
                     help="draw a deterministic server-side churn batch "
                     "touching ~FRAC of the tuples")
    sub.add_argument("--churn-seed", type=int, default=0,
                     help="seed of the server-side churn draw (default 0)")
    sub.add_argument("--ops", default=None, metavar="JSON",
                     help="explicit operation batch as a JSON array, e.g. "
                     '\'[{"op": "delete", "rid": 3}, '
                     '{"op": "insert", "values": [1, 2]}]\'')
    sub.set_defaults(handler=_cmd_mutate)

    sub = subparsers.add_parser("figures", help="figure experiments")
    sub.add_argument("figures", nargs="*", help="figure ids (e.g. fig13)")
    sub.add_argument("--list", action="store_true", help="list figures")
    sub.add_argument("--remote", action="store_true",
                     help="serve each experiment table from an ephemeral "
                     "HiddenDBServer and reproduce the figure over HTTP "
                     "(numbers are unchanged by construction)")
    sub.add_argument("--store", metavar="PATH", default=None,
                     help="ledger every billed answer in a crawl store so "
                     "re-running a figure replays it free")
    sub.add_argument("--resume", action="store_true",
                     help="resume checkpointed figure runs from --store")
    sub.add_argument("--strategy", choices=STRATEGY_CHOICES, default=None,
                     help="execution strategy for the figure crawls "
                     "(default: async when --workers > 1, else serial)")
    sub.add_argument("--workers", type=int, default=1, metavar="N",
                     help="in-flight window per crawl (default 1 = serial)")
    sub.add_argument("--batch-size", type=int, default=16, metavar="N",
                     help="queries per batch round trip (default 16)")
    sub.add_argument("--dedup", action="store_true",
                     help="memoize repeated identical queries within a run")
    sub.set_defaults(handler=_cmd_figures)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (AlgorithmNotFoundError, StoreError, ValueError) as exc:
        # e.g. --algorithm rq on a point-predicate dataset, --strategy
        # serial with --workers 8, or --store pointing at a ledger built
        # against a different dataset/k
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ServiceStartupError as exc:
        # e.g. 'repro serve --port 8080' while another server holds 8080:
        # one actionable line instead of an OSError traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RemoteServiceError as exc:
        # e.g. 'repro coordinate --backend URL' against a dead backend
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
