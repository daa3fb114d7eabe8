"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_wavelet_defaults(self):
        args = build_parser().parse_args(["wavelet"])
        assert args.size == 512 and args.filter_length == 8 and args.levels == 1

    def test_invalid_filter_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["wavelet", "--filter", "6"])

    def test_invalid_machine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nbody", "--machine", "cray1"])


class TestCommands:
    def test_wavelet_runs(self, capsys):
        assert main(["wavelet", "--size", "64", "--procs", "4", "--levels", "1"]) == 0
        out = capsys.readouterr().out
        assert "virtual time" in out and "performance budget" in out

    def test_wavelet_maspar(self, capsys):
        assert main(["wavelet", "--size", "64", "--machine", "maspar"]) == 0
        assert "images/second" in capsys.readouterr().out

    def test_wavelet_timeline(self, capsys):
        assert main(
            ["wavelet", "--size", "64", "--procs", "4", "--timeline"]
        ) == 0
        out = capsys.readouterr().out
        assert "legend" in out and "r0" in out

    @pytest.mark.parametrize("spec", ["fused", "fused:16"])
    def test_removed_fused_kernel_is_a_one_line_error(self, spec, capsys):
        argv = ["wavelet", "--size", "64", "--procs", "4", "--kernel", spec]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro wavelet: error: unknown kernel")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_nbody_runs(self, capsys):
        assert main(
            ["nbody", "--bodies", "128", "--procs", "2", "--steps", "1"]
        ) == 0
        assert "interactions/step" in capsys.readouterr().out

    def test_pic_runs(self, capsys):
        assert main(
            [
                "pic", "--particles", "512", "--grid", "8",
                "--procs", "2", "--steps", "1",
            ]
        ) == 0
        assert "adaptive dt" in capsys.readouterr().out

    def test_pic_gssum(self, capsys):
        assert main(
            [
                "pic", "--particles", "256", "--grid", "8",
                "--procs", "2", "--steps", "1", "--global-sum", "gssum",
            ]
        ) == 0

    def test_workload_runs(self, capsys):
        assert main(["workload", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "smooth" in out and "similarity" in out

    def test_nbody_t3d(self, capsys):
        assert main(
            ["nbody", "--bodies", "128", "--procs", "2", "--steps", "1",
             "--machine", "t3d"]
        ) == 0


class TestScheduleCommand:
    def test_default_two_jobs(self, capsys):
        assert main(["schedule"]) == 0
        out = capsys.readouterr().out
        assert "space-shared" in out and "makespan" in out

    def test_seeded_arrival_staggering(self, capsys):
        assert main(
            [
                "schedule", "--job", "workload:8", "--arrival", "poisson:2.0",
                "--seed", "7", "--count", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "staggering 4 submission(s)" in out
        assert "poisson(rate=2/s, seed=7)" in out
        assert "workload#3" in out

    def test_arrival_replay_is_deterministic(self, capsys):
        argv = [
            "schedule", "--job", "workload:8", "--arrival", "poisson:3.0",
            "--seed", "5", "--count", "3",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_fair_policy_accepted(self, capsys):
        assert main(
            ["schedule", "--job", "workload:8", "--job", "workload:8",
             "--policy", "fair"]
        ) == 0
        assert "space-shared" in capsys.readouterr().out

    def test_bad_arrival_spec_rejected(self, capsys):
        assert main(["schedule", "--arrival", "weibull:2.0"]) == 2
        assert capsys.readouterr().err.startswith("repro schedule: error: ")


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.mix == "default" and args.policy == "fair"
        assert args.load == 0.7 and not args.sweep

    def test_single_run_human(self, capsys):
        assert main(
            ["serve", "--horizon", "5", "--seed", "1", "--load", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "service on" in out
        assert "latency (virtual seconds)" in out
        assert "per-tenant" in out and "utilization" in out

    def test_single_run_json_is_schema_valid(self, capsys):
        import json

        from repro.service import validate_snapshot

        assert main(
            ["serve", "--horizon", "5", "--seed", "1", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_snapshot(doc)
        assert doc["config"]["seed"] == 1

    def test_admission_flags_shed(self, capsys):
        assert main(
            [
                "serve", "--horizon", "5", "--seed", "1", "--load", "2.0",
                "--queue-limit", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "queue-full" in out

    def test_sweep_writes_valid_report(self, tmp_path, capsys):
        import json

        from repro.service import validate_loadsweep

        out_path = tmp_path / "sweep.json"
        assert main(
            [
                "serve", "--sweep", "--horizon", "5", "--seed", "2",
                "--sweep-loads", "0.25,0.5,1.0,1.5,2.0",
                "--out", str(out_path),
            ]
        ) == 0
        text = capsys.readouterr().out
        assert "offered-load sweep" in text
        assert "knee" in text or "no saturation knee" in text
        doc = json.loads(out_path.read_text())
        validate_loadsweep(doc)
        assert len(doc["points"]) == 5

    def test_fifo_policy_accepted(self, capsys):
        assert main(
            ["serve", "--horizon", "5", "--policy", "fifo"]
        ) == 0
        assert "policy=fifo" in capsys.readouterr().out


class TestBenchRatchetFlag:
    def test_ratchet_pass_and_fail(self, tmp_path, capsys):
        import json

        from repro.perf.bench import BenchCase, run_bench

        doc = run_bench([BenchCase(32, 2, 1)], warmup=0, repeats=2, trim=0, seed=0)
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(doc))
        from repro.cli import _bench_ratchet

        class Args:
            ratchet = str(baseline)
            ratchet_tolerance = 0.25

        assert _bench_ratchet(Args, doc) == 0
        assert "ratchet passed" in capsys.readouterr().out

        inflated = json.loads(json.dumps(doc))
        for row in inflated["results"]:
            if row["kernel"] != "conv":
                row["speedup_vs_conv"] *= 10.0
        baseline.write_text(json.dumps(inflated))
        assert _bench_ratchet(Args, doc) == 1
        assert "REGRESSED" in capsys.readouterr().out


# Every subcommand's parsed defaults, pinned to the values the CLI has
# always had.  bench's --out is left out: its default resolves per mode
# (see TestBenchOut).
PARSER_DEFAULTS = {
    "wavelet": {
        "size": 512, "filter_length": 8, "levels": 1, "procs": 32,
        "machine": "paragon", "placement": "snake", "kernel": "conv",
        "timeline": False,
    },
    "nbody": {
        "bodies": 4096, "steps": 2, "procs": 16, "machine": "paragon",
        "theta": 0.6, "model": "manager_worker",
    },
    "pic": {
        "particles": 65536, "grid_m": 32, "steps": 2, "procs": 16,
        "machine": "paragon", "global_sum": "prefix",
    },
    "workload": {"scale": 1.0},
    "table1": {},
    "trace": {
        "program": "wavelet", "size": 512, "filter_length": 8, "levels": 1,
        "bodies": 1024, "particles": 4096, "grid_m": 16, "steps": 1,
        "procs": 16, "machine": "paragon", "placement": "snake", "out": None,
    },
    "faults": {
        "program": "wavelet", "size": 128, "filter_length": 4, "levels": 2,
        "bodies": 256, "particles": 1024, "grid_m": 8, "steps": 3, "procs": 8,
        "machine": "paragon", "seed": 0, "rates": "0.0,0.05,0.1,0.2,0.4",
        "checkpoint_interval": 1, "max_restarts": 8,
    },
    "schedule": {
        "machine": "paragon", "jobs": None, "size": 256, "filter_length": 4,
        "levels": 2, "bodies": 256, "particles": 1024, "grid_m": 8,
        "steps": 2, "seed": 0, "arrival": None, "count": 0, "policy": "fifo",
        "collective": "rdouble",
    },
    "bench": {
        "virtual": False, "procs": 8, "quick": False, "warmup": 1,
        "repeats": 5, "trim": 1, "seed": 2024, "ratchet": None,
        "ratchet_tolerance": 0.25, "history_pr": None, "engine": False,
        "ranks": None, "rounds": 2,
    },
    "serve": {
        "machine": "paragon", "mix": "default", "arrival": "poisson",
        "load": 0.7, "horizon_s": 60.0, "seed": 0, "policy": "fair",
        "queue_limit": 0, "tenant_backlog": 0, "sweep": False,
        "sweep_loads": None, "collective": "rdouble", "fmt": "human",
        "out": None,
    },
    "attack": {
        "scenario": None, "app": None, "seed": 0, "placement": None,
        "list": False, "fuzz": False, "seeds": None, "placements": None,
        "corpus": None, "replay": None, "knee": False, "machine": "paragon",
        "mix": "default", "horizon_s": 40.0, "fmt": "human", "out": None,
    },
    "lint": {
        "paths": [], "fmt": "human", "protocol": False, "baseline": None,
        "write_baseline": None, "comm_summary": False, "verbose": False,
    },
}

# The --machine values each subcommand accepts.
MACHINE_CHOICES = {
    "wavelet": {"paragon", "t3d", "workstation", "maspar"},
    "nbody": {"paragon", "t3d"},
    "pic": {"paragon", "t3d"},
    "trace": {"paragon", "t3d"},
    "faults": {"paragon", "t3d"},
    "schedule": {"paragon", "t3d", "workstation"},
    "serve": {"paragon", "t3d", "workstation"},
}


class TestParserParity:
    @pytest.mark.parametrize("command", sorted(PARSER_DEFAULTS))
    def test_defaults(self, command):
        parsed = vars(build_parser().parse_args([command]))
        if command == "bench":
            parsed.pop("out")
        assert parsed == {"command": command, **PARSER_DEFAULTS[command]}

    @pytest.mark.parametrize("command", sorted(MACHINE_CHOICES))
    def test_machine_choices(self, command):
        accepted = set()
        for machine in ("paragon", "t3d", "workstation", "maspar"):
            try:
                build_parser().parse_args([command, "--machine", machine])
            except SystemExit:
                continue
            accepted.add(machine)
        assert accepted == MACHINE_CHOICES[command]


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            ["wavelet", "--procs", "3", "--size", "64"],
            ["nbody", "--bodies", "0"],
            ["pic", "--particles", "0", "--grid", "8", "--procs", "2"],
            ["trace", "--size", "100"],
            ["faults", "--size", "100"],
            ["schedule", "--job", "foo:4"],
            ["bench", "--engine", "--ranks", "64", "--rounds", "0"],
            ["serve", "--horizon", "0"],
            ["attack", "no-such-scenario"],
        ],
    )
    def test_user_error_is_one_line_exit_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_other_exceptions_propagate(self, monkeypatch):
        import repro.cli as cli

        def crash(args):
            raise RuntimeError("bug")

        monkeypatch.setitem(cli._COMMANDS, "table1", crash)
        with pytest.raises(RuntimeError, match="bug"):
            main(["table1"])


class TestBenchOut:
    ENGINE = ["bench", "--engine", "--ranks", "64", "--rounds", "1"]
    KERNEL = ["bench", "--quick", "--warmup", "0", "--repeats", "1", "--trim", "0"]

    @pytest.mark.parametrize(
        "argv, default",
        [(ENGINE, "BENCH_engine.json"), (KERNEL, "BENCH_wavelet.json")],
    )
    def test_default_out_per_mode(self, argv, default, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert [p.name for p in tmp_path.iterdir()] == [default]

    @pytest.mark.parametrize(
        "argv, other",
        [(ENGINE, "BENCH_wavelet.json"), (KERNEL, "BENCH_engine.json")],
    )
    def test_explicit_out_is_honoured(self, argv, other, tmp_path, monkeypatch, capsys):
        # Naming the other mode's default file is the case that used to be
        # redirected.
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", other]) == 0
        assert [p.name for p in tmp_path.iterdir()] == [other]
        assert f"results to {other}" in capsys.readouterr().out


class TestMalformedDocuments:
    """A document loader given a bad file reports one line and exits 2."""

    ROOT = Path(__file__).resolve().parent.parent

    def assert_user_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("text", ["not json", None], ids=["non-json", "missing"])
    def test_attack_replay_bad_corpus(self, text, tmp_path, capsys):
        corpus = tmp_path / "corpus.json"
        if text is not None:
            corpus.write_text(text)
        self.assert_user_error(
            ["attack", "--replay", "all", "--corpus", str(corpus)], capsys
        )

    def test_attack_fuzz_starts_a_missing_corpus(self, tmp_path, capsys):
        from repro.scenarios import load_corpus

        corpus = tmp_path / "new.json"
        argv = ["attack", "withhold-silence", "--app", "wavelet", "--fuzz",
                "--seeds", "0", "--placements", "1", "--corpus", str(corpus)]
        assert main(argv) == 0
        assert len(load_corpus(str(corpus))["findings"]) == 1

    @pytest.mark.parametrize(
        "text",
        [
            '{"schema": "repro.lint.baseline/v1", "entries": [{"module": "m"}]}',
            '{"schema": "something/else"}',
            "not json",
        ],
        ids=["entry-without-rule", "wrong-schema", "non-json"],
    )
    def test_lint_bad_baseline(self, text, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(text)
        path = str(self.ROOT / "src" / "repro" / "errors.py")
        self.assert_user_error(["lint", path, "--baseline", str(baseline)], capsys)

    def test_bench_ratchet_bad_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"schema": "repro.bench.engine/v1", "results": [{"nranks": 64}]}')
        self.assert_user_error(
            ["bench", "--engine", "--ranks", "64", "--rounds", "1",
             "--out", str(tmp_path / "engine.json"), "--ratchet", str(baseline)],
            capsys,
        )
