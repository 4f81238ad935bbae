"""Command-line driver: flags, config precedence, outputs, exit codes."""

import json

import pytest
from click.testing import CliRunner

from isingdyn.cli import _check_failed, main, parse_graph

runner = CliRunner()


class TestParseGraph:
    def test_generator_expression(self):
        assert parse_graph("cycle(8)").n == 8
        assert parse_graph(" grid(3,2) ").n == 6

    def test_file_path(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n1 2\n")
        assert parse_graph(str(p)).n == 3

    def test_garbage(self):
        from isingdyn.graph import GraphError
        with pytest.raises(GraphError):
            parse_graph("nope-such-thing")


class TestSample:
    def test_steps_zero_echoes_once(self):
        res = runner.invoke(main, ["sample", "--graph", "cycle(4)",
                                   "--beta", "0.5",
                                   "--dynamics", '{"kind": "iv"}',
                                   "--seed", "1", "--steps", "0"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and set(lines[0]) <= {"+", "-"}
        assert len(lines[0]) == 4

    def test_steps_emit_per_step(self):
        res = runner.invoke(main, ["sample", "--graph", "path(3)",
                                   "--beta", "0.3",
                                   "--dynamics", '{"kind": "sw"}',
                                   "--seed", "2", "--steps", "5",
                                   "--burnin", "10"])
        assert res.exit_code == 0
        assert len(res.output.strip().splitlines()) == 5

    def test_deterministic(self):
        args = ["sample", "--graph", "cycle(6)", "--beta", "0.4",
                "--dynamics", '{"kind": "glauber"}', "--seed", "7",
                "--steps", "20"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_env_seed_default(self, tmp_path):
        args = ["sample", "--graph", "cycle(6)", "--beta", "0.4",
                "--dynamics", '{"kind": "iv"}', "--steps", "10"]
        a = runner.invoke(main, args, env={"ISINGDYN_SEED": "123"})
        b = runner.invoke(main, args + ["--seed", "123"])
        c = runner.invoke(main, args, env={"ISINGDYN_SEED": "124"})
        assert a.output == b.output
        assert a.output != c.output

    def test_out_file(self, tmp_path):
        out = tmp_path / "samples.txt"
        res = runner.invoke(main, ["sample", "--graph", "cycle(4)",
                                   "--beta", "0.5",
                                   "--dynamics", '{"kind": "iv"}',
                                   "--seed", "1", "--steps", "3",
                                   "--out", str(out)])
        assert res.exit_code == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_invalid_graph_exit2(self):
        res = runner.invoke(main, ["sample", "--graph", "noexist(3)",
                                   "--beta", "0.5",
                                   "--dynamics", '{"kind": "iv"}'])
        assert res.exit_code == 2

    def test_bad_dynamics_exit2(self):
        res = runner.invoke(main, ["sample", "--graph", "cycle(4)",
                                   "--beta", "0.5",
                                   "--dynamics", '{"kind": "wolff"}'])
        assert res.exit_code == 2


IV = ["--dynamics", '{"kind": "iv"}']


class TestInvalidInput:
    """Bad input exits 2 with one "error:" line and no traceback."""

    @pytest.mark.parametrize("argv,env", [
        (["sample", "--graph", "cycle(4)", "--beta", "0.5", "--seed", "-1"] + IV, {}),
        (["couple", "--graph", "cycle(4)", "--beta", "0.5", "--seed", "-1"] + IV, {}),
        (["sample", "--graph", "cycle(4)", "--beta", "0.5"] + IV, {"ISINGDYN_SEED": "abc"}),
        (["gap", "--beta", "0.3", "--sizes", "11"], {}),
        (["sample", "--graph", "cycle(4)", "--beta", "nan"] + IV, {}),
        (["sample", "--graph", "cycle(4)", "--beta", "-1"] + IV, {}),
        (["couple", "--graph", "cycle(4)", "--beta", "0.5", "--t-max", "0"] + IV, {}),
        (["couple", "--graph", "cycle(4)", "--beta", "0.5", "--seeds", "0"] + IV, {}),
        (["verify", "--graph", "path(2)", "--beta", "0.5", "--eps", "0"] + IV, {}),
        (["sample", "--graph", "cycle(4)", "--beta", "0.5", "--dynamics", "[1]"], {}),
        (["verify", "--graph", "path(3)", "--beta", "0.5", "--dynamics",
          '{"kind": "glauber", "censor": [0]}'], {}),
        (["sample", "--graph", "grid(3)", "--beta", "0.5"] + IV, {}),
        (["couple", "--graph", "random_regular(8,3)", "--beta", "0.5"] + IV, {}),
        (["assm", "--graph", "grid(3)", "--beta", "0.5"], {}),
    ], ids=["negative-seed", "negative-seed-couple", "env-seed-abc", "gap-size-11",
            "beta-nan", "beta-negative", "t-max-0", "seeds-0", "eps-0",
            "dynamics-not-object", "censored-glauber", "grid-one-arg",
            "random-regular-two-args", "assm-grid-one-arg"])
    def test_exit2_one_line(self, argv, env):
        res = runner.invoke(main, argv, env=env)
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("command", ["sample", "couple", "assm", "verify"])
    @pytest.mark.parametrize("text", ["", "# no edges here\n"])
    def test_edge_list_without_edges(self, tmp_path, command, text):
        g = tmp_path / "g.txt"
        g.write_text(text)
        args = [] if command == "assm" else IV
        res = runner.invoke(main, [command, "--graph", str(g), "--beta", "0.5"] + args)
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        lines = res.stderr.strip().splitlines()
        assert lines == [f"error: {g}: no edges"]

    def test_config_not_an_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        res = runner.invoke(main, ["sample", "--config", str(cfg)])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)

    def test_fractional_count_in_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": "cycle(4)", "beta": 0.5,
                                   "dynamics": {"kind": "iv"}, "t_max": 2.5}))
        res = runner.invoke(main, ["couple", "--config", str(cfg)])
        assert res.exit_code == 2 and "t_max" in res.stderr

    def test_format_option_removed(self):
        res = runner.invoke(main, ["sample", "--graph", "cycle(4)", "--beta", "0.5",
                                   "--format", "csv"] + IV)
        assert res.exit_code == 2 and "No such option" in res.output


class TestExplicitValues:
    def test_t_max_is_taken(self):
        # one step cannot coalesce the extremes on cycle(8) at beta 0.5 for
        # seed 0; the explicit cap is honoured and reported as a timeout
        res = runner.invoke(main, ["couple", "--graph", "cycle(8)", "--beta", "0.5",
                                   "--seed", "0", "--t-max", "1"] + IV)
        assert res.exit_code == 0
        assert res.output.strip().splitlines()[1].endswith(",1,1")


class TestConfig:
    def test_config_file_supplies_settings(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": "cycle(4)", "beta": 0.5,
                                   "dynamics": {"kind": "iv"},
                                   "seed": 3, "steps": 2}))
        res = runner.invoke(main, ["sample", "--config", str(cfg)])
        assert res.exit_code == 0
        assert len(res.output.strip().splitlines()) == 2

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": "cycle(4)", "beta": 0.5,
                                   "dynamics": {"kind": "iv"},
                                   "seed": 3, "steps": 2}))
        res = runner.invoke(main, ["sample", "--config", str(cfg),
                                   "--steps", "6"])
        assert len(res.output.strip().splitlines()) == 6


class TestCouple:
    def test_n1_all_ones(self):
        res = runner.invoke(main, ["couple", "--graph", "path(1)",
                                   "--beta", "0.5",
                                   "--dynamics", '{"kind": "glauber"}',
                                   "--seed", "0", "--seeds", "5"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "seed,n,beta,dynamics,coalescence_step,timeout_flag"
        assert len(lines) == 6
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert fields[0] == str(i)       # seed order
            assert fields[4] == "1" and fields[5] == "0"

    def test_sw_rejected(self):
        res = runner.invoke(main, ["couple", "--graph", "cycle(4)",
                                   "--beta", "0.5",
                                   "--dynamics", '{"kind": "sw"}'])
        assert res.exit_code == 2

    def test_jobs_parallel_matches_serial(self):
        args = ["couple", "--graph", "cycle(16)", "--beta", "0.3",
                "--dynamics", '{"kind": "iv"}', "--seed", "0",
                "--seeds", "4"]
        serial = runner.invoke(main, args)
        parallel = runner.invoke(main, args + ["--jobs", "2"])
        assert serial.output == parallel.output


class TestVerify:
    def test_single_edge_passes(self, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(main, ["verify", "--graph", "path(2)",
                                   "--beta", "0.5",
                                   "--dynamics", '{"kind": "iv"}',
                                   "--out", str(out)])
        assert res.exit_code == 0
        report = json.loads(out.read_text())
        assert report["failed"] == 0
        names = {c["check"] for c in report["checks"]}
        assert {"stationarity", "reversibility", "censoring_order"} <= names

    def test_path3_multiple_betas(self):
        for beta in ("0.2", "0.5", "1.0"):
            res = runner.invoke(main, ["verify", "--graph", "path(3)",
                                       "--beta", beta,
                                       "--dynamics", '{"kind": "msw"}'])
            assert res.exit_code == 0

    def test_large_graph_skips_not_fails(self):
        res = runner.invoke(main, ["verify", "--graph", "cycle(6)",
                                   "--beta", "0.3",
                                   "--dynamics", '{"kind": "iv"}'])
        assert res.exit_code == 0
        report = json.loads(res.output)
        skipped = [c for c in report["checks"] if "skipped" in c]
        assert any(c["check"] == "censoring_order" for c in skipped)

    def test_nothing_verified_exits_1(self):
        res = runner.invoke(main, ["verify", "--graph", "cycle(11)",
                                   "--beta", "0.3"] + IV)
        assert res.exit_code == 1
        report = json.loads(res.stdout)
        assert report["failed"] == 0
        assert all("skipped" in c for c in report["checks"])

    @pytest.mark.parametrize("eps,t_mix", [("0.25", 29), ("0.05", 63)])
    def test_tv_mixing_time_value(self, eps, t_mix):
        # 1024 states; the values the step-by-step loop gave
        res = runner.invoke(main, ["verify", "--graph", "cycle(10)",
                                   "--beta", "0.3",
                                   "--dynamics", '{"kind": "glauber"}',
                                   "--eps", eps])
        assert res.exit_code == 0
        checks = json.loads(res.output)["checks"]
        (c,) = [c for c in checks if c["check"] == "tv_mixing_time"]
        assert c["value"] == t_mix and not c["timeout"]

    def test_iv_solves_each_spectrum_once(self, monkeypatch):
        # the IV spectrum serves both spectral_gap and sw_iv_comparison
        from isingdyn import exact
        calls = []
        real = exact.spectral_report

        def counted(P, mu, *args, **kwargs):
            calls.append(P.shape[0])
            return real(P, mu, *args, **kwargs)

        monkeypatch.setattr(exact, "spectral_report", counted)
        res = runner.invoke(main, ["verify", "--graph", "cycle(5)",
                                   "--beta", "0.3"] + IV)
        assert res.exit_code == 0
        assert calls == [32, 32]
        (c,) = [c for c in json.loads(res.output)["checks"]
                if c["check"] == "sw_iv_comparison"]
        assert c["ok"] and c["gap_sw"] >= c["gap_iv"]

    def test_check_failed_logic(self):
        assert _check_failed({"check": "x", "residual": 1e-3, "tolerance": 1e-10})
        assert not _check_failed({"check": "x", "residual": 0.0, "tolerance": 1e-10})
        assert _check_failed({"check": "x", "ok": False})
        assert not _check_failed({"check": "x", "skipped": "too big"})
        assert _check_failed({"check": "x", "timeout": True})


class TestGap:
    def test_csv_output(self):
        res = runner.invoke(main, ["gap", "--beta", "0.3",
                                   "--family", "cycle", "--sizes", "4,5"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "n,gap_sw,gap_iv,relax_sw,relax_iv"
        assert len(lines) == 3
        for line in lines[1:]:
            n, g_sw, g_iv, *_ = line.split(",")
            assert float(g_sw) >= float(g_iv) - 1e-9

    def test_beta0_gap_one(self):
        res = runner.invoke(main, ["gap", "--beta", "0.0",
                                   "--family", "path", "--sizes", "3,4"])
        for line in res.output.strip().splitlines()[1:]:
            assert float(line.split(",")[2]) == pytest.approx(1.0, abs=1e-9)


class TestAssm:
    def test_beta0_radius0(self):
        res = runner.invoke(main, ["assm", "--graph", "cycle(8)",
                                   "--beta", "0.0", "--r-max", "3"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["radius"] == 0 and report["pass"]

    def test_honest_negative(self):
        res = runner.invoke(main, ["assm", "--graph", "cycle(6)",
                                   "--beta", "3.0", "--r-max", "0"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["radius"] is None and not report["pass"]
