"""Command-line driver: flags, config precedence, outputs, exit codes."""

import ast
import inspect
import json
import os
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

from isingdyn import cli
from isingdyn.cli import _check_failed, main, parse_graph
from isingdyn.dynamics import DynamicsSpec, run_chain
from isingdyn.graph import Graph, random_regular

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

    @pytest.mark.parametrize("steps, burnin", [(0, 0), (0, 6), (7, 0), (7, 6)])
    def test_lines_are_the_chain_states(self, steps, burnin):
        # the states after steps burnin+1..burnin+steps, or the one after the burn-in
        G, spec = parse_graph("cycle(5)"), DynamicsSpec("msw")
        final, collected = run_chain(G, 0.4, spec, burnin + steps, 3,
                                     collect_every=1, collect_after=burnin)
        want = "".join("".join("+" if x > 0 else "-" for x in st) + "\n"
                       for st in collected or [final])
        res = runner.invoke(main, ["sample", "--graph", "cycle(5)", "--beta", "0.4",
                                   "--dynamics", '{"kind": "msw"}', "--seed", "3",
                                   "--steps", str(steps), "--burnin", str(burnin)])
        assert res.exit_code == 0 and res.stdout == want

    def test_memory_flat_in_steps(self, tmp_path):
        # each line is written as the chain produces it, so the peak does
        # not grow with --steps
        code = ("import resource, sys; from isingdyn.cli import main\n"
                "try: main(sys.argv[1:])\n"
                "except SystemExit: pass\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        peak = {}
        for steps in (2 * 10**4, 2 * 10**5):
            res = subprocess.run(
                [sys.executable, "-c", code, "sample", "--graph", "cycle(4)", "--beta", "0.5",
                 "--dynamics", '{"kind": "glauber"}', "--seed", "1", "--steps", str(steps),
                 "--out", str(tmp_path / "s.txt")],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
                check=True)
            assert len((tmp_path / "s.txt").read_text().splitlines()) == steps
            peak[steps] = int(res.stdout)  # KiB on Linux
        assert peak[2 * 10**5] - peak[2 * 10**4] < 5 * 1024

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

    @pytest.mark.parametrize("v", [99, -1])
    def test_block_vertex_out_of_range_exit2(self, v):
        blocks = json.dumps({"kind": "block", "blocks": [list(range(8)), [v]]})
        res = runner.invoke(main, ["couple", "--graph", "cycle(8)", "--beta", "0.3",
                                   "--dynamics", blocks])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert res.stderr.splitlines() == [f"error: block vertex {v} out of range for n=8"]


IV = ["--dynamics", '{"kind": "iv"}']
UNWRITABLE = os.path.join(os.devnull, "out.csv")  # its parent is a file, not a directory
IV_CFG = {"dynamics": {"kind": "iv"}}
SRC = os.path.dirname(os.path.dirname(cli.__file__))  # the directory holding isingdyn


def test_import_loads_no_scipy():
    code = ("import sys, isingdyn, isingdyn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, check=True)
    assert res.stdout.strip() == "[]"


def test_cache_inventory():
    # each exact object is held once: a second per-graph table must show up here
    import importlib
    import pkgutil

    import isingdyn
    caches = {}
    for info in pkgutil.iter_modules(isingdyn.__path__):
        mod = importlib.import_module(f"isingdyn.{info.name}")
        for owner in [mod] + [c for c in vars(mod).values() if isinstance(c, type)]:
            for name, obj in vars(owner).items():
                if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__:
                    caches[f"{info.name}.{name}"] = obj.cache_parameters()["maxsize"]
    assert caches == {"dynamics._subset_roots": 64, "randomness._block_map": 16,
                      "ising._up_set_indicators": None}


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
        (["sample", "--graph", "cycle(4)", "--beta", "0.5", "--seed", "abc"] + IV, {}),
        (["gap", "--beta", "0.3", "--family", "grid", "--sizes", "4"], {}),
        (["sample", "--graph", "cycle(4)", "--beta", "0.5", "--format", "csv"] + IV, {}),
        (["sample", "--graph", "random_regular(1000,999,1)", "--beta", "0.5"] + IV, {}),
        (["sample", "--graph", "random_regular(2000,1999,1)", "--beta", "0.5"] + IV, {}),
        (["--bogus"], {}),
        (["sample", "--graph", "path(2)", "--beta", "0.3", "--dynamics",
          '{"kind": "block", "blocks": [[0.0], [1]]}'], {}),
        (["sample", "--graph", "path(2)", "--beta", "0.3", "--dynamics",
          '{"kind": "iv", "censor": [0.5]}'], {}),
        (["verify", "--graph", "cycle(4)", "--beta", "0.3", "--dynamics",
          '{"kind": "iv", "censor": [0.5]}'], {}),
        (["sample", "--graph", "path(2)", "--beta", "0.3", "--dynamics",
          '{"kind": "iv", "censor": [true]}'], {}),
        (["sample", "--graph", "path(2)", "--beta", "0.3", "--dynamics",
          '{"kind": "iv", "censor": "01"}'], {}),
        (["verify", "--graph", "path(3)", "--beta", "0.3", "--dynamics",
          '{"kind": "glauber", "censr": [0]}'], {}),
        (["couple", "--graph", "cycle(8)", "--beta", "0.3", "--out", UNWRITABLE] + IV, {}),
        (["sample", "--graph", "cycle(8)", "--beta", "0.3", "--steps", "1000000",
          "--out", UNWRITABLE] + IV, {}),
        (["verify", "--graph", "cycle(8)", "--beta", "0.3", "--out", UNWRITABLE] + IV, {}),
        (["gap", "--beta", "0.3", "--sizes", "10", "--out", UNWRITABLE], {}),
        (["assm", "--graph", "grid(5,5)", "--beta", "0.2", "--out", UNWRITABLE], {}),
    ], ids=["negative-seed", "negative-seed-couple", "env-seed-abc", "gap-size-11",
            "beta-nan", "beta-negative", "t-max-0", "seeds-0", "eps-0",
            "dynamics-not-object", "censored-glauber", "grid-one-arg",
            "random-regular-two-args", "assm-grid-one-arg", "seed-abc",
            "gap-family-grid", "format-csv", "random-regular-999", "random-regular-1999",
            "group-option", "float-block", "float-censor", "float-censor-verify",
            "bool-censor", "string-censor", "misspelt-key", "out-couple", "out-sample",
            "out-verify", "out-gap", "out-assm"])
    def test_exit2_one_line(self, argv, env):
        start = time.perf_counter()
        res = runner.invoke(main, argv, env=env)
        assert time.perf_counter() - start < 5
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("graph", ["complete_tree(3,40)",
                                       "cycle(99999999999999999999)", "file"],
                             ids=["complete-tree-3-40", "cycle-1e20", "edge-list-1e11"])
    def test_graph_past_vertex_limit(self, tmp_path, graph):
        if graph == "file":
            graph = tmp_path / "g.txt"
            graph.write_text("0 1\n0 99999999999\n")
        start = time.perf_counter()
        res = runner.invoke(main, ["sample", "--graph", str(graph), "--beta", "0.5"] + IV)
        assert time.perf_counter() - start < 5
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and "MAX_VERTICES" in lines[0], lines

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

    @pytest.mark.parametrize("command,cfg", [
        ("sample", {"graph": 5}), ("couple", {"graph": 5}), ("verify", {"graph": 5}),
        ("assm", {"graph": 5}), ("gap", {"family": ["cycle"]}), ("gap", {"sizes": True}),
        ("sample", {"out": ["x"]}), ("couple", {"seeds": True}),
        ("couple", {"t_max": True}), ("sample", {"beta": True}),
        ("sample", {"steps": "3"}), ("verify", {"eps": True}),
        ("sample", {"dynamics": 5}), ("sample", {"beta": 10**400}),
        ("verify", {"eps": 10**400}),
    ], ids=["graph-int-sample", "graph-int-couple", "graph-int-verify", "graph-int-assm",
            "family-list", "sizes-bool", "out-list", "seeds-bool", "t-max-bool",
            "beta-bool", "steps-string", "eps-bool", "dynamics-int", "beta-huge-int",
            "eps-huge-int"])
    def test_config_value_of_wrong_type(self, tmp_path, command, cfg):
        base = {"beta": 0.5, "sizes": "4"} if command == "gap" else {
            "graph": "cycle(4)", "beta": 0.5, **({} if command == "assm" else IV_CFG)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**base, **cfg}))
        res = runner.invoke(main, [command, "--config", str(path)])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert res.stdout == ""

    def test_config_out_number_writes_nothing(self, tmp_path):
        # open(1) would write the CSV to file descriptor 1 and close it; run in a
        # child so that a failure cannot close this process's stdout
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"graph": "cycle(4)", "beta": 0.5, "out": 1,
                                    **IV_CFG}))
        res = subprocess.run([sys.executable, "-m", "isingdyn.cli", "couple",
                              "--config", str(path)], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": SRC})
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.splitlines() == [
            f"error: config {path}: out has the wrong JSON type"]

    def test_config_sizes_integer_still_taken(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"beta": 0.3, "sizes": 4}))
        res = runner.invoke(main, ["gap", "--config", str(path)])
        assert res.exit_code == 0 and res.output.splitlines()[1].startswith("4,")

    def test_no_arguments_show_help(self):
        # only options become one-line errors: a bare call keeps click's help screen
        bare, full = runner.invoke(main, []), runner.invoke(main, ["--help"])
        assert bare.exit_code == 2 and full.exit_code == 0
        assert bare.stderr == full.stdout and full.stdout.startswith("Usage: ")

    def test_format_option_removed(self):
        res = runner.invoke(main, ["sample", "--graph", "cycle(4)", "--beta", "0.5",
                                   "--format", "csv"] + IV)
        assert res.exit_code == 2 and "No such option" in res.output


# Valid invocations, each of which a removed flag or config key makes invalid.
VALID = {
    "sample": ["--graph", "cycle(4)", "--beta", "0.5", "--steps", "2"] + IV,
    "couple": ["--graph", "cycle(4)", "--beta", "0.5"] + IV,
    "verify": ["--graph", "path(2)", "--beta", "0.5"] + IV,
    "gap": ["--beta", "0.3", "--sizes", "4"],
    "assm": ["--graph", "cycle(4)", "--beta", "0.5", "--r-max", "1"],
}
# Flags of other commands that a command does not read, so does not take: 22 in all.
REMOVED = {
    "sample": ["--seeds", "--eps", "--jobs"],
    "couple": ["--steps", "--eps"],
    "verify": ["--seed", "--steps", "--seeds", "--jobs"],
    "gap": ["--graph", "--dynamics", "--seed", "--steps", "--seeds", "--eps", "--jobs"],
    "assm": ["--dynamics", "--seed", "--steps", "--seeds", "--eps", "--jobs"],
}
FLAG_VALUE = {"--seeds": "2", "--eps": "0.25", "--jobs": "1", "--steps": "3",
              "--seed": "7", "--graph": "cycle(9)", "--dynamics": '{"kind": "msw"}'}
# Each command's options: 33 in all.
HELP = {
    "sample": {"--config", "--graph", "--beta", "--dynamics", "--seed", "--steps",
               "--burnin", "--out"},
    "couple": {"--config", "--graph", "--beta", "--dynamics", "--seed", "--seeds",
               "--t-max", "--jobs", "--out"},
    "verify": {"--config", "--graph", "--beta", "--dynamics", "--eps", "--out"},
    "gap": {"--config", "--beta", "--family", "--sizes", "--out"},
    "assm": {"--config", "--graph", "--beta", "--r-max", "--out"},
}


class TestInvalidInputBoundary:
    """Only _Main maps a ValueError or OverflowError to exit 2."""

    def test_fail_invalid_called_only_from_main(self):
        tree = ast.parse(inspect.getsource(cli))
        (boundary,) = [n for n in tree.body if getattr(n, "name", "") == "_Main"]

        def exits(node):
            return [c for c in ast.walk(node) if isinstance(c, ast.Call)
                    and getattr(c.func, "id", "") == "_fail_invalid"]

        # usage errors in parse_args and invoke, and invoke's ValueError/OverflowError
        assert len(exits(tree)) == len(exits(boundary)) == 3
        for fn in tree.body:
            if getattr(fn, "name", "") in cli.COMMANDS:
                assert not [n for n in ast.walk(fn) if isinstance(n, ast.Try)], fn.name

    def test_other_errors_are_not_invalid_input(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("a fault in the program")

        monkeypatch.setattr(cli, "coupling_time", broken)
        res = runner.invoke(main, ["couple", "--graph", "cycle(4)", "--beta", "0.5"] + IV)
        assert res.exit_code != 2 and isinstance(res.exception, RuntimeError)
        assert "error:" not in res.stderr

    @pytest.mark.parametrize("eps", ["0.1", [0.1], {"eps": 0.1}])
    def test_non_number_eps_stops_at_the_config_type_check(self, tmp_path, eps):
        # so verify's float(eps) never sees a value that raises TypeError
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"graph": "path(2)", "beta": 0.5, "eps": eps, **IV_CFG}))
        res = runner.invoke(main, ["verify", "--config", str(path)])
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr.splitlines() == [f"error: config {path}: eps has the wrong JSON type"]


class TestOwnSettingsOnly:
    """Each command takes exactly the settings it reads."""

    def _one_error_line(self, res):
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        return lines[0]

    @pytest.mark.parametrize("command", sorted(VALID))
    def test_valid_invocation_passes(self, command):
        assert runner.invoke(main, [command] + VALID[command]).exit_code == 0

    @pytest.mark.parametrize("command,flag", [(c, f) for c, flags in REMOVED.items()
                                              for f in flags])
    def test_removed_flag_rejected(self, command, flag):
        res = runner.invoke(main, [command] + VALID[command] + [flag, FLAG_VALUE[flag]])
        assert "No such option" in self._one_error_line(res)

    @pytest.mark.parametrize("command,key", [("sample", "step"), ("sample", "seeed"),
                                             ("sample", "seeds"), ("couple", "steps"),
                                             ("gap", "graph"), ("assm", "config")])
    def test_foreign_config_key_rejected(self, tmp_path, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 5}))
        res = runner.invoke(main, [command, "--config", str(cfg)] + VALID[command])
        assert repr(key) in self._one_error_line(res)

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_lists_exactly_own_options(self, command):
        res = runner.invoke(main, [command, "--help"])
        assert res.exit_code == 0
        listed = {line.split()[0] for line in res.output.splitlines()
                  if line.startswith("  --")}
        assert listed == HELP[command] | {"--help"}


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

    def test_jobs_send_graph_once_per_worker(self, monkeypatch):
        args = ["couple", "--graph", "cycle(16)", "--beta", "0.3", "--seed", "0",
                "--seeds", "8"] + IV
        serial = runner.invoke(main, args)
        reduced = []
        real = Graph.__reduce__

        def counted(self):
            reduced.append(self.n)
            return real(self)

        monkeypatch.setattr(Graph, "__reduce__", counted)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        parallel = runner.invoke(main, args + ["--jobs", "2"])
        assert parallel.exit_code == 0 and parallel.output == serial.output
        assert len(reduced) <= 2

    def test_graph_built_once(self, monkeypatch):
        calls = []
        real = cli.generate

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "generate", counted)
        res = runner.invoke(main, ["couple", "--graph", "cycle(8)", "--beta", "0.3",
                                   "--seeds", "5"] + IV)
        assert res.exit_code == 0 and len(res.output.splitlines()) == 6
        assert calls == [("cycle", 8)]

    @pytest.mark.parametrize("jobs,seeds,workers", [("3", "2", 2), ("4", "5", 4),
                                                    ("2", "1", None), ("5", "5", "exit 2")])
    def test_jobs_bounded(self, monkeypatch, jobs, seeds, workers):
        started = []

        class RecordingPool:
            """Records its worker count and runs the map in this process."""

            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_couple_run", None)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        args = ["couple", "--graph", "cycle(8)", "--beta", "0.3", "--seeds", seeds] + IV
        res = runner.invoke(main, args + ["--jobs", jobs])
        if workers == "exit 2":
            assert res.exit_code == 2 and started == []
            assert res.stderr.splitlines() == ["error: jobs must be an integer in [1, 4], "
                                               "got 5"]
            return
        assert res.exit_code == 0
        assert started == ([] if workers is None else [workers])
        assert res.output == runner.invoke(main, args).output


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

    @pytest.mark.parametrize("graph,kind", [("path(7)", "iv"), ("path(7)", "msw"),
                                            ("file", "iv")],
                             ids=["path7-iv", "path7-msw", "edge-list-0-9"])
    def test_marked_space_past_state_bound_skipped(self, tmp_path, graph, kind):
        # 62500 and 1310720 marked states: refused before any operator is built
        if graph == "file":
            graph = tmp_path / "g.txt"
            graph.write_text("0 9\n")
        start = time.perf_counter()
        res = runner.invoke(main, ["verify", "--graph", str(graph), "--beta", "0.3",
                                   "--dynamics", json.dumps({"kind": kind})])
        assert time.perf_counter() - start < 5
        assert res.exit_code == 0 and res.exception is None and res.stderr == ""
        (c,) = [c for c in json.loads(res.stdout)["checks"] if c["check"] == "decompositions"]
        assert c["skipped"].startswith("marked space has ")

    def test_iv_past_the_cluster_edge_guard(self, tmp_path):
        # random_regular(10,3,1) has 15 edges: IV builds, SW is refused
        graph = tmp_path / "rr10.txt"
        graph.write_text("".join(f"{u} {w}\n" for u, w in random_regular(10, 3, 1).edges))
        res = runner.invoke(main, ["verify", "--graph", str(graph), "--beta", "0.3",
                                   "--dynamics", '{"kind": "iv"}'])
        assert res.exit_code == 0 and res.stderr == ""
        checks = {c["check"]: c for c in json.loads(res.stdout)["checks"]}
        assert checks["spectral_gap"]["value"] == pytest.approx(0.117236937306, abs=1e-10)
        assert checks["sw_iv_comparison"]["skipped"] == "graph too large for exact sw kernel"

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

    @staticmethod
    def counted_builds(monkeypatch):
        from isingdyn import exact
        specs = []
        real = exact.transition_matrix

        def counted(G, beta, spec):
            specs.append(spec)
            return real(G, beta, spec)

        monkeypatch.setattr(exact, "transition_matrix", counted)
        return specs

    def test_uncensored_builds_no_P_V(self, monkeypatch):
        # P_V equals P, so there is nothing for the censoring order to compare
        specs = self.counted_builds(monkeypatch)
        res = runner.invoke(main, ["verify", "--graph", "path(3)", "--beta", "0.4"] + IV)
        assert res.exit_code == 0
        assert [s.kind for s in specs if s.kind == "iv"] == ["iv", "iv"]
        assert all(s.censor is None for s in specs)
        checks = {c["check"]: c for c in json.loads(res.output)["checks"]}
        assert checks["censoring_order"]["skipped"] == "P_A = P: nothing to compare"
        assert checks["sw_iv_comparison"]["ok"] and checks["tv_mixing_time"]["value"]

    def test_censored_checks_order_on_its_own_kernel(self, monkeypatch):
        from isingdyn.exact import check_censoring_order
        from isingdyn.graph import path
        A = frozenset({0})
        specs = self.counted_builds(monkeypatch)
        res = runner.invoke(main, ["verify", "--graph", "path(3)", "--beta", "0.4",
                                   "--dynamics", '{"kind": "iv", "censor": [0]}'])
        assert res.exit_code == 0, res.output
        iv = [s.censor for s in specs if s.kind == "iv"]
        assert sorted(iv, key=lambda a: a is None) == [A, A, None]
        checks = {c["check"]: c for c in json.loads(res.output)["checks"]}
        monkeypatch.undo()
        assert checks["censoring_order"]["ok"] is check_censoring_order(
            path(3), 0.4, "iv", A)
        # the censored chain never moves vertices 1 and 2: nothing to mix
        for name in ("tv_mixing_time", "sw_iv_comparison"):
            assert checks[name]["skipped"].startswith("censored to a proper subset")
        assert checks["spectral_gap"]["value"] == pytest.approx(0.0, abs=1e-12)

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

    def test_engine_error_exits_2_before_out(self, tmp_path):
        # at beta = 200 all but two states of cycle(4) have Gibbs mass 0
        out = tmp_path / "gaps.csv"
        res = subprocess.run([sys.executable, "-m", "isingdyn.cli", "gap", "--beta", "200",
                              "--sizes", "4", "--out", str(out)], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": SRC})
        assert res.returncode == 2 and res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: mu has states of zero mass")
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_large_finite_beta_reports_zero_mass(self):
        # the Gibbs table stays exact at beta = 5000, so the error is the true
        # one: every state but the two ground states has mass 0
        res = runner.invoke(main, ["gap", "--beta", "5000", "--sizes", "4"])
        assert res.exit_code == 2
        assert res.output.splitlines() == [
            "error: mu has states of zero mass, so sqrt(mu) cannot weigh them"]

    def test_beta0_gap_one(self):
        res = runner.invoke(main, ["gap", "--beta", "0.0",
                                   "--family", "path", "--sizes", "3,4"])
        for line in res.output.strip().splitlines()[1:]:
            assert float(line.split(",")[2]) == pytest.approx(1.0, abs=1e-9)


def run_cli(*args):
    """The command in a child process, so numpy's warnings reach its stderr."""
    return subprocess.run([sys.executable, "-m", "isingdyn.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})


class TestOverflowingBeta:
    """A beta whose log-weights overflow: one line, no warning, no NaN."""

    BLOCKS = '{"kind": "block", "blocks": [[0, 1], [2]]}'

    @pytest.mark.parametrize("args, what, spread", [
        (["gap", "--sizes", "4"], "the Gibbs table", 8),
        (["assm", "--graph", "path(3)"], "the clamped marginals", 8),
        (["sample", "--graph", "path(3)", "--dynamics", BLOCKS, "--steps", "3"],
         "the clamped marginals", 16),
        (["couple", "--graph", "path(3)", "--dynamics", BLOCKS],
         "the clamped marginals", 8),
    ])
    def test_exits_2_with_one_line(self, args, what, spread, tmp_path):
        # --out is opened before the run (gap's rows come first), so the
        # others leave it empty
        out = tmp_path / "out.txt"
        res = run_cli(*args, "--beta", "1e308", "--out", str(out))
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.splitlines() == [
            f"error: beta = 1e+308 is too large for {what}: beta * {spread} "
            "is not finite, so the weights would be nan"]
        assert (not out.exists()) if args[0] == "gap" else out.read_text() == ""

    def test_glauber_past_exp_range_is_silent(self):
        # -2 beta S = 4000 at a vertex whose neighbours are both -
        res = run_cli("couple", "--graph", "cycle(8)", "--beta", "1000",
                      "--dynamics", '{"kind":"glauber"}', "--t-max", "200")
        assert res.returncode == 0 and res.stderr == ""
        assert res.stdout == ("seed,n,beta,dynamics,coalescence_step,timeout_flag\n"
                              "0,8,1000.0,glauber,200,1\n")

    def test_glauber_couple_runs_at_any_beta(self):
        # Glauber computes -2 beta S itself: no spread check, so it never
        # exits 2 (at S = 0, -inf * 0 is nan and the site is set to -1)
        res = run_cli("couple", "--graph", "cycle(8)", "--beta", "1e308", "--dynamics",
                      '{"kind":"glauber"}', "--t-max", "200", "--seeds", "3")
        assert res.returncode == 0 and res.stderr == ""
        assert res.stdout == ("seed,n,beta,dynamics,coalescence_step,timeout_flag\n"
                              "0,8,1e+308,glauber,200,1\n1,8,1e+308,glauber,200,1\n"
                              "2,8,1e+308,glauber,200,1\n")

    def test_assm_tree_root_past_exp_range_is_silent(self):
        res = run_cli("assm", "--graph", "path(3)", "--beta", "1000", "--r-max", "1")
        assert res.returncode == 0 and res.stderr == ""
        fail, ok = ["fail", 1.0], ["pass", 0.0]
        assert json.loads(res.stdout) == {
            "graph": "path(3)", "beta": 1000.0, "R_max": 1, "radius": None,
            "pass": False, "per_radius": {"0": {"0": fail, "1": fail, "2": fail},
                                          "1": {"0": fail, "1": ok, "2": fail}}}

    def test_verify_names_the_overflow(self):
        res = run_cli("verify", "--graph", "path(3)", "--beta", "1e308",
                      "--dynamics", '{"kind": "iv"}')
        assert res.returncode == 1
        assert res.stderr.splitlines() == [
            "error: every check was skipped; nothing was verified"]
        (check,) = json.loads(res.stdout)["checks"]
        assert check["check"] == "transition_matrix"
        assert "too large for the Gibbs table" in check["skipped"]


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
