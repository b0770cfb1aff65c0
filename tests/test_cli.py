"""Tests for the command-line interface."""

import gc
import json
import warnings

import pytest

from repro.cli import DATASETS, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_discover_defaults(self):
        args = build_parser().parse_args(
            ["discover", "--dataset", "autos"]
        )
        assert args.n == 10_000
        assert args.k == 10
        assert args.budget is None

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["discover", "--dataset", "nope"])


class TestDiscoverCommand:
    def test_small_run(self, capsys):
        code = main(
            ["discover", "--dataset", "uniform", "--n", "500", "--k", "5",
             "--show-tuples", "3", "--curve"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm" in out
        assert "anytime curve" in out

    def test_budgeted_run_reports_incomplete(self, capsys):
        code = main(
            ["discover", "--dataset", "diamonds", "--n", "3000",
             "--k", "5", "--budget", "3", "--price-ranking"]
        )
        assert code == 0
        assert "complete   : False" in capsys.readouterr().out

    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    def test_every_dataset_runs(self, dataset, capsys):
        code = main(
            ["discover", "--dataset", dataset, "--n", "400", "--k", "10"]
        )
        assert code == 0
        assert "skyline" in capsys.readouterr().out

    def test_verbose_prints_engine_counters(self, capsys):
        code = main(
            ["discover", "--dataset", "uniform", "--n", "400", "--k", "5",
             "--workers", "4", "--batch-size", "8", "--verbose"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine" in out
        assert "async" in out
        assert "issued=" in out

    def test_workers_do_not_change_reported_cost(self, capsys):
        args = ["discover", "--dataset", "diamonds", "--n", "500", "--k",
                "10", "--algorithm", "baseline"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "4"]) == 0
        piped_out = capsys.readouterr().out
        pick = lambda out, field: [
            line for line in out.splitlines() if line.startswith(field)
        ]
        assert pick(serial_out, "queries") == pick(piped_out, "queries")
        assert pick(serial_out, "skyline") == pick(piped_out, "skyline")

    def test_dedup_flag_reports_savings(self, capsys):
        code = main(
            ["discover", "--dataset", "diamonds", "--n", "200", "--k", "10",
             "--algorithm", "sq", "--dedup", "--verbose"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "deduped=" in out
        assert "deduped=0 " not in out

    @pytest.mark.parametrize("strategy", ["serial", "pipelined", "async"])
    def test_strategy_flag_reports_same_cost(self, strategy, capsys):
        base = ["discover", "--dataset", "diamonds", "--n", "500", "--k",
                "10", "--algorithm", "baseline"]
        assert main(base) == 0
        reference = capsys.readouterr().out
        args = base + ["--strategy", strategy, "--verbose"]
        if strategy != "serial":
            args += ["--workers", "4"]
        assert main(args) == 0
        out = capsys.readouterr().out
        pick = lambda text, field: [
            line for line in text.splitlines() if line.startswith(field)
        ]
        assert pick(reference, "queries") == pick(out, "queries")
        assert pick(reference, "skyline") == pick(out, "skyline")
        # --verbose names the strategy ("pipelined" is an alias of async)
        assert ("async" if strategy == "pipelined" else strategy) in out
        assert "wall=" in out  # ... and the wall-time/throughput counters

    def test_serial_strategy_with_workers_is_rejected(self, capsys):
        code = main(
            ["discover", "--dataset", "uniform", "--n", "200",
             "--strategy", "serial", "--workers", "4"]
        )
        assert code == 2
        assert "single-worker" in capsys.readouterr().err

    def test_unknown_strategy_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["discover", "--dataset", "uniform", "--strategy", "warp"]
            )

    def test_trace_file_holds_one_run(self, tmp_path, capsys):
        # --trace PATH starts a fresh file on every invocation: two runs
        # into one path leave one run's billed spans, not both runs'.
        trace = tmp_path / "t.jsonl"
        args = ["discover", "--dataset", "uniform", "--n", "500", "--k",
                "10", "--trace", str(trace)]
        assert main(args) == 0
        assert main(args) == 0
        lines = trace.read_text(encoding="utf-8").splitlines()
        billed = sum(json.loads(line)["phase"] == "billed" for line in lines)
        assert billed > 0
        assert f"queries    : {billed}\n" in capsys.readouterr().out


class TestSkybandCommand:
    def test_small_run(self, capsys):
        code = main(
            ["skyband", "--dataset", "autos", "--n", "500", "--k", "20",
             "--band", "2"]
        )
        assert code == 0
        assert "band" in capsys.readouterr().out

    def test_verbose_prints_engine_counters(self, capsys):
        # Satellite: --verbose stats rendering extends to skyband (the
        # runners dedup their overlapping subspace trees by default).
        code = main(
            ["skyband", "--dataset", "diamonds", "--n", "300", "--k", "10",
             "--band", "2", "--verbose"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine" in out
        assert "issued=" in out


class TestCrawlCommand:
    def test_cold_then_warm_crawl(self, tmp_path, capsys):
        args = ["crawl", "--dataset", "diamonds", "--n", "400", "--k", "10",
                "--store", str(tmp_path / "crawl.db"), "--verbose"]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "store" in cold and "session" in cold and "ledger" in cold
        # Warm re-run over the unchanged endpoint: zero billed queries.
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "queries    : 0" in warm
        assert "ledger=" in warm

    def test_store_refuses_different_dataset(self, tmp_path, capsys):
        db = str(tmp_path / "crawl.db")
        base = ["--n", "300", "--k", "10", "--store", db]
        assert main(["crawl", "--dataset", "diamonds"] + base) == 0
        capsys.readouterr()
        # Same store, different dataset/k: clear refusal, exit 2.
        assert main(["crawl", "--dataset", "uniform"] + base) == 2
        err = capsys.readouterr().err
        assert "does not match" in err
        assert main(["crawl", "--dataset", "diamonds", "--n", "300",
                     "--k", "7", "--store", db]) == 2

    def test_resume_flag_runs(self, tmp_path, capsys):
        db = str(tmp_path / "crawl.db")
        args = ["crawl", "--dataset", "uniform", "--n", "300", "--k", "5",
                "--store", db]
        assert main(args) == 0
        capsys.readouterr()
        # Nothing crashed, so --resume simply starts fresh and rides the
        # warm ledger.
        assert main(args + ["--resume"]) == 0
        assert "queries    : 0" in capsys.readouterr().out


class TestStoreCommands:
    @pytest.fixture
    def populated(self, tmp_path, capsys):
        db = str(tmp_path / "crawl.db")
        assert main(["crawl", "--dataset", "uniform", "--n", "300",
                     "--k", "5", "--store", db]) == 0
        capsys.readouterr()
        return db

    def test_ls(self, populated, capsys):
        assert main(["store", "ls", "--store", populated]) == 0
        out = capsys.readouterr().out
        assert "uniform-n300-s0" in out
        assert "finished" in out

    def test_show(self, populated, capsys):
        from repro.store import CrawlStore

        with CrawlStore(populated) as store:
            session_id = store.sessions()[0].session_id
        assert main(["store", "show", session_id, "--store", populated]) == 0
        out = capsys.readouterr().out
        assert session_id in out
        assert "total_cost" in out

    def test_show_unknown_session(self, populated, capsys):
        assert main(["store", "show", "nope", "--store", populated]) == 2
        assert "no session" in capsys.readouterr().err

    def test_gc_empty_then_prunes(self, populated, capsys):
        assert main(["store", "gc", "--store", populated]) == 0
        assert "nothing stale" in capsys.readouterr().out


class TestStatsCommand:
    def test_small_run(self, capsys):
        code = main(
            ["stats", "--dataset", "flights-mixed", "--n", "1000", "--k", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total queries" in out
        assert "redundancy" in out


class TestFiguresCommand:
    def test_list(self, capsys):
        code = main(["figures", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig13" in out and "fig22" in out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "not-a-figure"]) == 2

    def test_run_analysis_figure(self, capsys):
        assert main(["figures", "fig04"]) == 0
        assert "Figure 4" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_runs_for_duration(self, capsys):
        code = main(
            ["serve", "--dataset", "uniform", "--n", "300", "--k", "5",
             "--port", "0", "--duration", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving" in out
        assert "http://127.0.0.1:" in out
        assert "served" in out
        # The endpoint line lists the server's whole route table.
        for route in ("GET /api/schema", "POST /api/query", "POST /api/batch",
                      "GET /api/stats", "GET /metrics", "POST /api/mutate",
                      "POST /api/reset", "GET /healthz"):
            assert route in out

    def test_serve_requires_dataset_or_table_db(self, capsys):
        # --dataset became optional when --table-db arrived, so the
        # requirement is enforced at runtime, not by argparse.
        assert main(["serve"]) == 2
        assert "--dataset or --table-db" in capsys.readouterr().err

    def test_serve_sqlite_engine_requires_table_db(self, capsys):
        assert main(["serve", "--dataset", "uniform", "--n", "100",
                     "--engine", "sqlite"]) == 2
        assert "--table-db" in capsys.readouterr().err

    def test_port_collision_reports_clear_error(self, capsys):
        # Satellite: EADDRINUSE surfaces as one actionable line, not a
        # raw OSError traceback.
        from repro.datagen import independent
        from repro.service import HiddenDBServer

        with HiddenDBServer(independent(100, 3, domain=10, seed=0), k=2) as srv:
            code = main(
                ["serve", "--dataset", "uniform", "--n", "100",
                 "--port", str(srv.port), "--duration", "1"]
            )
        assert code == 2
        err = capsys.readouterr().err
        assert "already in use" in err
        assert f"port {srv.port}" in err


class TestRemoteCommands:
    @pytest.fixture
    def server(self):
        from repro.datagen import independent
        from repro.service import HiddenDBServer

        with HiddenDBServer(independent(400, 3, domain=20, seed=0), k=5) as srv:
            yield srv

    def test_discover_url(self, server, capsys):
        code = main(["discover", "--url", server.url, "--cache", "256"])
        assert code == 0
        out = capsys.readouterr().out
        assert "remote, k=5" in out

    def test_discover_url_async_strategy(self, server, capsys):
        # --strategy async on a --url run routes through the asyncio
        # client (non-blocking sockets) and must report the same summary
        # shape, plus the engine counters naming the strategy.
        code = main(
            ["discover", "--url", server.url, "--strategy", "async",
             "--workers", "8", "--verbose"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "remote, k=5" in out
        assert "async" in out
        assert "billable" in out
        assert "billable" in out
        assert server.stats().queries_total > 0

    def test_skyband_url(self, server, capsys):
        code = main(["skyband", "--url", server.url, "--band", "2"])
        assert code == 0
        assert "band" in capsys.readouterr().out

    def test_stats_url(self, server, capsys):
        code = main(["stats", "--url", server.url])
        assert code == 0
        assert "total queries" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [
            ["discover"],
            ["discover", "--strategy", "async", "--workers", "4"],
            ["crawl", "--store", "{tmp}/crawl.db"],
            ["skyband", "--band", "2"],
            ["stats"],
        ],
        ids=["discover", "discover-async", "crawl", "skyband", "stats"],
    )
    def test_remote_command_closes_its_client(self, server, command, tmp_path):
        # The client a --url command builds is closed when the command
        # ends: no socket, transport or event loop is left for the
        # collector to find.
        argv = [arg.format(tmp=tmp_path) for arg in command]
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main([*argv, "--url", server.url]) == 0
            gc.collect()
        leaks = [
            str(warning.message) for warning in caught
            if issubclass(warning.category, ResourceWarning)
        ]
        assert leaks == []

    def test_dataset_or_url_required(self, capsys):
        assert main(["discover"]) == 2
        assert "error" in capsys.readouterr().err
