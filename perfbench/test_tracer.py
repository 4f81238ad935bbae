"""Tests of the benchmark's tracer.

    python3 -m pytest -q perfbench/test_tracer.py

Every wrapped call must return what the unwrapped function returns, in both
modes; the traced mode must refuse missing names and leftover unwrapped
bindings; the per-layer report must name exactly the metrics of
BENCHMARK.json and account for the traced item time.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for p in (str(ROOT / "src"), str(BENCH_DIR)):
    if p not in sys.path:
        sys.path.insert(0, p)

import isingdyn  # noqa: E402
import isingdyn.cli  # noqa: E402
from isingdyn import coupling, dynamics, exact, graph, ising, randomness, ssm  # noqa: E402
from click.testing import CliRunner  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402


def same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a) or hasattr(a, "__dict__"):
        return same(vars(a), vars(b))
    return a == b


def _draws(n, m, seed=4):
    return randomness.SharedRandomness(seed, n, m).at(3)


C6 = graph.cycle(6)
P3 = graph.path(3)
SPINS = np.array([1, -1, 1, 1, -1, -1], dtype=np.int8)
MU2 = np.full(4, 0.25)

# layer "module.attr" -> factory of fresh positional arguments
CASES = {
    "graph.Graph.endpoint_arrays": lambda: (C6,),
    "graph.sphere": lambda: (graph.cycle(8), 0, 1),
    "graph.generate": lambda: ("random_regular", 8, 3, 1),
    "randomness.SharedRandomness.at": lambda: (randomness.SharedRandomness(3, 6, 6), 7),
    "randomness.sequential_draws": lambda: (np.random.default_rng(5), 6, 6),
    "dynamics.percolate": lambda: (C6, SPINS, 0.4, np.linspace(0, 1, 6)),
    "dynamics.components": lambda: (C6, [1, 0, 1, 1, 0, 0]),
    "dynamics.sw_step": lambda: (C6, 0.4, SPINS, _draws(6, 6)),
    "dynamics.iv_step": lambda: (C6, 0.4, SPINS, _draws(6, 6)),
    "dynamics.msw_step_alt": lambda: (C6, 0.4, SPINS, _draws(6, 6)),
    "dynamics.glauber_step": lambda: (C6, 0.4, SPINS, _draws(6, 6)),
    "dynamics.block_step": lambda: (C6, 0.4, SPINS, (frozenset({0, 1, 2}), frozenset({3, 4, 5})),
                                    _draws(6, 6)),
    "dynamics.run_chain": lambda: (C6, 0.4, dynamics.DynamicsSpec("msw"), 20, 3),
    "ising.gibbs_exact": lambda: (graph.cycle(4), 0.3),
    "ising.conditional_marginal": lambda: (C6, 0.4, 0, {2: 1, 3: -1}),
    "ising.enumerate_up_sets": lambda: (2,),
    "ising.stochastically_dominates": lambda: (np.array([0.1, 0.2, 0.3, 0.4]), MU2, 2),
    "coupling.coupling_time": lambda: (graph.cycle(8), 0.3, dynamics.DynamicsSpec("iv"), 1),
    "coupling.monotonicity_audit": lambda: (C6, 0.4, dynamics.DynamicsSpec("iv"), 3, 10, 0),
    "exact.transition_matrix": lambda: (P3, 0.4, dynamics.DynamicsSpec("msw")),
    "exact.spectral_report": lambda: _kernel(),
    "exact.tv_mixing_time": lambda: _kernel(),
    "exact.verify_decompositions": lambda: (P3, 0.3, frozenset({0})),
    "exact.JointSpace.__init__": lambda: (P3, 0.3),
    "exact.JointSpace.build_T": lambda: (exact.JointSpace(P3, 0.3),),
    "exact.JointSpace.build_Tstar": lambda: (exact.JointSpace(P3, 0.3),),
    "exact.JointSpace.build_Q": lambda: (exact.JointSpace(P3, 0.3), frozenset({1})),
    "exact.MarkedSpace.__init__": lambda: (exact.JointSpace(P3, 0.3),),
    "exact.MarkedSpace.nu_m": lambda: (_marked(),),
    "exact.MarkedSpace.build_S": lambda: (_marked(),),
    "exact.MarkedSpace.build_Sstar": lambda: (_marked(),),
    "exact.MarkedSpace.build_K": lambda: (_marked(), frozenset({0})),
    "exact.censoring_order_holds": lambda: (np.eye(4), np.tile(MU2, (4, 1)), MU2, 2),
    "exact.censored_dominance": lambda: (P3, 0.5, dynamics.DynamicsSpec("iv"), frozenset({0}),
                                         np.eye(8)[7], 3),
    "ssm.find_assm_radius": lambda: (graph.complete_tree(3, 2), 0.4, 3),
    "ssm.assm_check": lambda: (C6, 0.3, 0, 1),
}

CLI_CASES = {
    "couple": ["--graph", "cycle(16)", "--beta", "0.3", "--dynamics", '{"kind": "iv"}',
               "--seeds", "2"],
    "sample": ["--graph", "path(2)", "--beta", "0.5", "--dynamics", '{"kind": "sw"}',
               "--steps", "5"],
    "verify": ["--graph", "path(3)", "--beta", "0.4", "--dynamics", '{"kind": "iv"}'],
    "gap": ["--beta", "0.3", "--sizes", "4,5"],
    "assm": ["--graph", "complete_tree(3,2)", "--beta", "0.4", "--r-max", "3"],
}


def _kernel():
    tm = exact.transition_matrix(P3, 0.4, dynamics.DynamicsSpec("iv"))
    return tm.P, tm.mu


def _marked():
    return exact.MarkedSpace(exact.JointSpace(P3, 0.3))


def _key(layer):
    return layer.module.removeprefix("isingdyn.") + "." + layer.attr


@pytest.fixture(params=["count", "trace"])
def installed(request):
    tr = tracer.Tracer(request.param)
    tr.install(tracer.LAYERS + tracer.CLI_LAYERS)
    try:
        yield tr
    finally:
        tr.uninstall()


def test_every_layer_has_a_case():
    assert {_key(layer) for layer in tracer.LAYERS} == set(CASES)
    assert set(tracer.CLI_COMMANDS) == set(CLI_CASES)


def test_wrapped_calls_return_unwrapped_values(installed):
    for layer in tracer.LAYERS:
        owner, attr, wrapper = tracer._resolve(layer)
        original = wrapper.__wrapped__
        assert original is not wrapper, _key(layer)
        make = CASES[_key(layer)]
        if attr == "__init__":
            a, b = owner.__new__(owner), owner.__new__(owner)
            wrapper(a, *make())
            original(b, *make())
        else:
            a, b = wrapper(*make()), original(*make())
        assert same(a, b), _key(layer)


def test_wrapped_cli_commands_print_unwrapped_output():
    runner = CliRunner()
    expected = {c: runner.invoke(isingdyn.cli.main, [c] + argv)
                for c, argv in CLI_CASES.items()}
    tr = tracer.Tracer("trace")
    tr.install(tracer.LAYERS + tracer.CLI_LAYERS)
    try:
        for c, argv in CLI_CASES.items():
            got = runner.invoke(isingdyn.cli.main, [c] + argv)
            assert (got.exit_code, got.stdout) == (expected[c].exit_code, expected[c].stdout), c
    finally:
        tr.uninstall()


def test_every_binding_is_wrapped(installed):
    originals = []
    for layer in tracer.LAYERS:
        wrapper = tracer._resolve(layer)[2]
        originals.append(wrapper.__wrapped__)
    tracer.Tracer.guard(originals)  # raises if any module still holds one
    # bindings outside the defining module are rebound too
    assert isingdyn.coupling_time is coupling.coupling_time
    assert exact.components is dynamics.components
    assert coupling.sequential_draws is randomness.sequential_draws
    assert ssm.sphere is graph.sphere
    assert isingdyn.cli.generate is graph.generate
    assert hasattr(dynamics.components, "__wrapped__")


def test_traced_mode_refuses_leftover_unwrapped_binding():
    tr = tracer.Tracer("trace")
    tr.install(tracer.LAYERS)
    try:
        original = exact.components.__wrapped__
        exact.components = original
        with pytest.raises(tracer.TracerError, match="components"):
            tracer.Tracer.guard([original])
    finally:
        tr.uninstall()
    assert not hasattr(exact.components, "__wrapped__")


def test_traced_mode_refuses_missing_function():
    ghost = tracer.Layer("dynamics.ghost", "dynamics", "no_such_step")
    with pytest.raises(tracer.TracerError, match="no_such_step"):
        tracer.Tracer("trace").install([ghost])
    tr = tracer.Tracer("count")
    tr.install([ghost])
    assert tr.missing == ["isingdyn.dynamics.no_such_step"]


def test_per_layer_report_matches_benchmark_json_and_accounts_for_items():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tr = tracer.Tracer("trace")
    tr.install(tracer.LAYERS)
    try:
        tr.item = 0
        tr.root("bench.item", lambda: coupling.monotonicity_audit(
            C6, 0.4, dynamics.DynamicsSpec("msw"), 2, 5, 0))
        tr.item = 1
        tr.root("bench.item", lambda: exact.verify_decompositions(P3, 0.3, frozenset({0})))
    finally:
        tr.uninstall()
    counts = tr.snapshot()
    assert counts["coupling.audit_steps_total"] == 10
    metrics = run.per_layer(tr, tr.span_arrays(), counts, 2.0, 3.0)
    assert [(k, v["unit"]) for k, v in metrics.items()] == \
        [(m["name"], m["unit"]) for m in bench["per_layer"]]
    total = metrics["trace.layer_self_s"]["value"] + metrics["trace.bench_self_s"]["value"]
    assert total == pytest.approx(metrics["trace.item_time_s"]["value"], rel=1e-9)
    assert metrics["exact.transition_matrix.msw.calls"]["value"] == 1
    assert metrics["trace.slowdown"]["value"] == 1.5
