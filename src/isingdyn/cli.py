"""Batch experiment runner and verification driver.

Subcommands: sample | couple | verify | gap | assm. Options may come from
a JSON config document (--config); explicit command-line flags win over
config fields. The default seed comes from the ISINGDYN_SEED environment
variable when neither a flag nor a config supplies one.

Exit codes: 0 success, 1 check failure, 2 invalid input.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

import click
import numpy as np

from . import exact
from .coupling import coupling_time
from .dynamics import DynamicsSpec, run_chain
from .graph import Graph, GraphError, generate, load_edge_list
from .ssm import find_assm_radius

SEED_ENV = "ISINGDYN_SEED"
SEED_MAX = (1 << 63) - 1

_GEN_RE = re.compile(r"^(\w+)\(([-\d,\s]*)\)$")


def parse_graph(spec: str) -> Graph:
    """A generator call like cycle(8) / grid(3,3), or an edge-list path."""
    m = _GEN_RE.match(spec.strip())
    if m:
        name = m.group(1)
        args = [int(a) for a in m.group(2).split(",") if a.strip()]
        return generate(name, *args)
    if os.path.exists(spec):
        return load_edge_list(spec)
    raise GraphError(f"not a generator expression or existing file: {spec!r}")


def _fail_invalid(msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(2)


class Settings:
    """Merged config-file + flag values, flags taking precedence."""

    def __init__(self, config_path, flags: dict):
        cfg = {}
        if config_path:
            try:
                with open(config_path) as fh:
                    cfg = json.load(fh)
            except (OSError, ValueError) as exc:
                _fail_invalid(f"config {config_path}: {exc}")
            if not isinstance(cfg, dict):
                _fail_invalid(f"config {config_path}: not a JSON object")
        self.values = dict(cfg)
        for k, v in flags.items():
            if v is not None:
                self.values[k] = v

    def get(self, key, default=None):
        value = self.values.get(key)
        return default if value is None else value

    def require(self, key):
        if key not in self.values or self.values[key] is None:
            _fail_invalid(f"missing required setting {key!r}")
        return self.values[key]

    def count(self, key, default: int, low: int, high: float = math.inf) -> int:
        """An integer setting in [low, high], `default` when unset; else exit 2."""
        raw = self.get(key, default)
        try:
            value = None if isinstance(raw, float) and not raw.is_integer() else int(raw)
        except (TypeError, ValueError):
            value = None
        if value is None or not low <= value <= high:
            _fail_invalid(f"{key} must be an integer in [{low}, {high}], got {raw!r}")
        return value

    def beta(self) -> float:
        try:
            beta = float(self.require("beta"))
        except (TypeError, ValueError):
            beta = math.nan
        if not (math.isfinite(beta) and beta >= 0.0):
            _fail_invalid(f"beta must be a finite number >= 0, got {self.get('beta')!r}")
        return beta

    def seed(self) -> int:
        """The seed setting, else the environment's ISINGDYN_SEED, else 0."""
        return self.count("seed", os.environ.get(SEED_ENV) or 0, 0, SEED_MAX)


def _common(fn):
    fn = click.option("--config", type=click.Path(exists=True), default=None,
                      help="JSON config document; flags override its fields.")(fn)
    fn = click.option("--graph", "graph", default=None,
                      help="generator call like cycle(8) or an edge-list path")(fn)
    fn = click.option("--beta", type=float, default=None)(fn)
    fn = click.option("--dynamics", default=None,
                      help='JSON like {"kind": "iv", "censor": [0,1]}')(fn)
    fn = click.option("--seed", type=int, default=None)(fn)
    fn = click.option("--steps", type=int, default=None)(fn)
    fn = click.option("--seeds", type=int, default=None)(fn)
    fn = click.option("--eps", type=float, default=None)(fn)
    fn = click.option("--out", default=None, help="output path (default stdout)")(fn)
    fn = click.option("--jobs", type=int, default=None)(fn)
    return fn


def _open_out(settings):
    out = settings.get("out")
    return open(out, "w") if out else sys.stdout


def _dynamics_spec(settings) -> DynamicsSpec:
    raw = settings.require("dynamics")
    if isinstance(raw, dict):
        raw = json.dumps(raw)
    try:
        return DynamicsSpec.from_json(raw)
    except (KeyError, TypeError, ValueError) as exc:
        _fail_invalid(f"bad dynamics spec: {exc}")


@click.group()
def main():
    """Ising-model chain simulation and exact desk-scale verification."""


@main.command()
@_common
@click.option("--burnin", type=int, default=None)
def sample(config, **flags):
    """Run a chain and write one configuration per line (+-1 strings).

    After the burn-in, one sample is emitted per chain step for --steps
    steps; --steps 0 echoes the post-burn-in configuration once.
    """
    s = Settings(config, flags)
    try:
        G = parse_graph(s.require("graph"))
        spec = _dynamics_spec(s)
        spec.validate_for(G)
    except (GraphError, ValueError) as exc:
        _fail_invalid(str(exc))
    beta = s.beta()
    steps = s.count("steps", 0, 0)
    burnin = s.count("burnin", 0, 0)
    seed = s.seed()

    lines = []
    if steps == 0:
        final, _ = run_chain(G, beta, spec, burnin, seed)
        lines.append("".join("+" if x > 0 else "-" for x in final))
    else:
        _, collected = run_chain(G, beta, spec, burnin + steps, seed,
                                 collect_every=1, collect_after=burnin)
        for st in collected:
            lines.append("".join("+" if x > 0 else "-" for x in st))
    with _open_out(s) as fh:
        fh.write("\n".join(lines) + "\n")


def _couple_one(args):
    graph_spec, beta, dyn_json, seed, t_max = args
    G = parse_graph(graph_spec)
    spec = DynamicsSpec.from_json(dyn_json)
    return coupling_time(G, beta, spec, seed, t_max)


@main.command()
@_common
@click.option("--t-max", type=int, default=None)
def couple(config, **flags):
    """Coalescence times of the all-plus/all-minus coupled pair, as CSV."""
    s = Settings(config, flags)
    try:
        graph_spec = s.require("graph")
        G = parse_graph(graph_spec)
        spec = _dynamics_spec(s)
        spec.validate_for(G)
        if not spec.is_monotone():
            raise ValueError("sw dynamics has no monotone grand coupling")
    except (GraphError, ValueError) as exc:
        _fail_invalid(str(exc))
    beta = s.beta()
    n_seeds = s.count("seeds", 1, 1)
    base_seed = s.seed()
    t_max = s.count("t_max", 10**6, 1)
    jobs = s.count("jobs", 1, 1)

    tasks = [(graph_spec, beta, spec.to_json(), base_seed + i, t_max)
             for i in range(n_seeds)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_couple_one, tasks))
    else:
        results = [_couple_one(t) for t in tasks]
    with _open_out(s) as fh:
        fh.write("seed,n,beta,dynamics,coalescence_step,timeout_flag\n")
        for r in results:  # tasks submitted in seed order; map preserves it
            fh.write(f"{r.seed},{G.n},{beta},{spec.kind},{r.steps},"
                     f"{int(r.timed_out)}\n")


def _verify_checks(G, beta, spec, eps):
    """Full exact battery for one (graph, beta, dynamics) triple."""
    checks = []

    def add(name, **kw):
        checks.append({"check": name, "beta": beta, "dynamics": spec.kind, **kw})

    try:
        tm = exact.transition_matrix(G, beta, spec)
    except ValueError as exc:
        add("transition_matrix", skipped=str(exc))
        return checks
    P, mu = tm.P, tm.mu
    add("stationarity", residual=exact.check_stationarity(P, mu), tolerance=1e-10)
    add("reversibility", residual=exact.check_reversibility(P, mu), tolerance=1e-10)
    rep = spectrum_error = None
    try:
        rep = exact.spectral_report(P, mu)
        add("spectral_gap", value=rep.gap,
            relaxation=rep.relaxation if rep.relaxation_finite else None)
        t_mix = exact.tv_mixing_time(P, mu, eps, cap=10_000)
        add("tv_mixing_time", value=t_mix, eps=eps, timeout=t_mix is None)
        if rep.relaxation_finite and t_mix is not None:
            # relaxation/mixing inequality
            bound = (rep.relaxation - 1.0) * np.log(1.0 / (2.0 * eps))
            add("relaxation_mixing_bound", ok=bool(bound <= t_mix + 1e-9),
                tolerance=1e-9)
    except ValueError as exc:
        spectrum_error = exc
        add("spectral_gap", skipped=str(exc))

    if spec.kind in ("iv", "msw"):
        try:
            iv_res, msw_res = exact.verify_decompositions(G, beta, spec.censor)
            add("decomposition_iv", residual=iv_res, tolerance=1e-10)
            add("decomposition_msw", residual=msw_res, tolerance=1e-10)
        except ValueError as exc:
            add("decompositions", skipped=str(exc))

    if spec.kind in ("iv", "msw", "block") and G.n <= 4:
        A = spec.censor if spec.censor is not None else frozenset(range(G.n))
        ok = exact.check_censoring_order(G, beta, spec.kind, A,
                                         blocks=spec.blocks)
        add("censoring_order", ok=bool(ok), tolerance=1e-12)
    elif spec.kind in ("iv", "msw", "block"):
        add("censoring_order", skipped="n > 4")

    if spec.kind == "iv":
        try:
            sw = exact.transition_matrix(G, beta, DynamicsSpec("sw"))
            gap_sw = exact.spectral_report(sw.P, sw.mu).gap
            if rep is None:
                raise spectrum_error
            add("sw_iv_comparison", ok=bool(gap_sw >= rep.gap - 1e-9),
                gap_sw=gap_sw, gap_iv=rep.gap, tolerance=1e-9)
        except ValueError as exc:
            add("sw_iv_comparison", skipped=str(exc))
    return checks


def _check_failed(c) -> bool:
    if "skipped" in c:
        return False
    if "residual" in c:
        return c["residual"] > c["tolerance"]
    if "ok" in c:
        return not c["ok"]
    if c.get("timeout"):
        return True
    return False


@main.command()
@_common
def verify(config, **flags):
    """Run the exact check battery; exit 1 iff a check fails or none ran."""
    s = Settings(config, flags)
    try:
        G = parse_graph(s.require("graph"))
        spec = _dynamics_spec(s)
        spec.validate_for(G)
        eps = float(s.get("eps", 0.25))
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
    except (GraphError, TypeError, ValueError) as exc:
        _fail_invalid(str(exc))
    beta = s.beta()
    checks = _verify_checks(G, beta, spec, eps)
    report = {"graph": s.require("graph"), "checks": checks,
              "failed": sum(_check_failed(c) for c in checks)}
    with _open_out(s) as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    if all("skipped" in c for c in checks):
        click.echo("error: every check was skipped; nothing was verified", err=True)
        sys.exit(1)
    sys.exit(1 if report["failed"] else 0)


@main.command()
@_common
@click.option("--family", type=click.Choice(["cycle", "path"]), default=None)
@click.option("--sizes", default=None, help="comma-separated vertex counts")
def gap(config, **flags):
    """Spectral gaps of SW and IV across a size sweep, as CSV."""
    s = Settings(config, flags)
    beta = s.beta()
    try:
        family = s.get("family", "cycle")
        graphs = [generate(family, int(x)) for x in str(s.require("sizes")).split(",")]
        if any(G.n > exact.N_DIRECT_LIMIT for G in graphs):
            raise ValueError(f"sizes must be at most {exact.N_DIRECT_LIMIT} "
                             "for exact kernels")
    except ValueError as exc:
        _fail_invalid(str(exc))
    rows = []
    for G in graphs:
        sw = exact.transition_matrix(G, beta, DynamicsSpec("sw"))
        iv = exact.transition_matrix(G, beta, DynamicsSpec("iv"))
        g_sw = exact.spectral_report(sw.P, sw.mu)
        g_iv = exact.spectral_report(iv.P, iv.mu)
        rows.append((G.n, g_sw.gap, g_iv.gap,
                     g_sw.relaxation if g_sw.relaxation_finite else "",
                     g_iv.relaxation if g_iv.relaxation_finite else ""))
    with _open_out(s) as fh:
        fh.write("n,gap_sw,gap_iv,relax_sw,relax_iv\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


@main.command()
@_common
@click.option("--r-max", type=int, default=None)
def assm(config, **flags):
    """Search for the smallest radius with total sphere influence <= 1/4."""
    s = Settings(config, flags)
    try:
        G = parse_graph(s.require("graph"))
    except (GraphError, ValueError) as exc:
        _fail_invalid(str(exc))
    beta = s.beta()
    r_max = s.count("r_max", 6, 0)
    radius, details = find_assm_radius(G, beta, r_max)
    report = {
        "graph": s.require("graph"),
        "beta": beta,
        "R_max": r_max,
        "radius": radius,
        "pass": radius is not None,
        "per_radius": {
            str(R): {str(v): list(res) for v, res in per_v.items()}
            for R, per_v in details.items()
        },
    }
    with _open_out(s) as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
