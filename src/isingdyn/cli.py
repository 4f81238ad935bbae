"""Batch experiment runner and verification driver.

Subcommands: sample | couple | verify | gap | assm, each taking only the
settings COMMANDS gives it, from flags or a JSON config document (--config)
that may set no other key; flags win over config fields. The default seed
comes from ISINGDYN_SEED when neither a flag nor a config supplies one.

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
from click.exceptions import NoArgsIsHelpError
import numpy as np

from . import exact
from .coupling import coupling_time
from .dynamics import DynamicsSpec, run_chain
from .graph import Graph, GraphError, generate, load_edge_list
from .ising import UP_SET_N_LIMIT
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
    """Merged config-file + flag values, flags winning; config keys must be in `flags`."""

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
            for key in sorted(set(cfg) - set(flags)):
                _fail_invalid(f"config {config_path}: this command takes no {key!r}")
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


# Every option once, in --help order.
_OPTIONS = {
    "jobs": click.option("--jobs", type=int),
    "out": click.option("--out", help="output path (default stdout)"),
    "eps": click.option("--eps", type=float),
    "seeds": click.option("--seeds", type=int),
    "steps": click.option("--steps", type=int),
    "seed": click.option("--seed", type=int),
    "dynamics": click.option("--dynamics",
                             help='JSON like {"kind": "iv", "censor": [0,1]}'),
    "beta": click.option("--beta", type=float),
    "graph": click.option("--graph",
                          help="generator call like cycle(8) or an edge-list path"),
    "config": click.option("--config", type=click.Path(exists=True),
                           help="JSON config document; flags override its fields."),
    "burnin": click.option("--burnin", type=int),
    "t_max": click.option("--t-max", type=int),
    "family": click.option("--family", type=click.Choice(["cycle", "path"])),
    "sizes": click.option("--sizes", help="comma-separated vertex counts"),
    "r_max": click.option("--r-max", type=int),
}

# The settings each command reads, and so the only ones it takes.
COMMANDS = {
    "sample": {"config", "graph", "beta", "dynamics", "seed", "steps", "burnin", "out"},
    "couple": {"config", "graph", "beta", "dynamics", "seed", "seeds", "t_max", "jobs",
               "out"},
    "verify": {"config", "graph", "beta", "dynamics", "eps", "out"},
    "gap": {"config", "beta", "family", "sizes", "out"},
    "assm": {"config", "graph", "beta", "r_max", "out"},
}


def _open_out(settings):
    """--out opened for writing, else stdout; called once the inputs are valid."""
    out = settings.get("out")
    try:
        return open(out, "w") if out else sys.stdout
    except (OSError, ValueError) as exc:  # ValueError: a NUL in a config's path
        _fail_invalid(f"cannot write --out: {exc}")


def _dynamics_spec(settings) -> DynamicsSpec:
    raw = settings.require("dynamics")
    if isinstance(raw, dict):
        raw = json.dumps(raw)
    try:
        return DynamicsSpec.from_json(raw)
    except (KeyError, TypeError, ValueError) as exc:
        _fail_invalid(f"bad dynamics spec: {exc}")


class _Main(click.Group):
    """Click's usage errors, the group's own options included, exit 2 with one
    `error:` line; with no arguments at all the help screen stays."""

    def parse_args(self, ctx, args):
        try:
            return super().parse_args(ctx, args)
        except NoArgsIsHelpError:
            raise
        except click.UsageError as exc:
            _fail_invalid(exc.format_message())

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail_invalid(exc.format_message())


@click.group(cls=_Main)
def main():
    """Ising-model chain simulation and exact desk-scale verification."""


def _command(fn):
    """Register `fn` as the subcommand of its name, with the options COMMANDS gives it."""
    for name in reversed([k for k in _OPTIONS if k in COMMANDS[fn.__name__]]):
        fn = _OPTIONS[name](fn)
    return main.command()(fn)


@_command
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
    with _open_out(s) as fh:
        final, collected = run_chain(G, beta, spec, burnin + steps, seed,
                                     collect_every=1, collect_after=burnin)
        lines = ["".join("+" if x > 0 else "-" for x in st) for st in collected or [final]]
        fh.write("\n".join(lines) + "\n")


@_command
def couple(config, **flags):
    """Coalescence times of the all-plus/all-minus coupled pair, as CSV."""
    s = Settings(config, flags)
    try:
        G = parse_graph(s.require("graph"))
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
    workers = min(s.count("jobs", 1, 1, os.cpu_count() or 1), n_seeds)

    seeds = range(base_seed, base_seed + n_seeds)
    with _open_out(s) as fh:
        if workers > 1:
            # the graph travels once per worker; seeds are dealt one at a time
            with ProcessPoolExecutor(max_workers=workers, initializer=_couple_init,
                                     initargs=(G, beta, spec, t_max)) as pool:
                results = list(pool.map(_couple_seed, seeds))
        else:
            results = [coupling_time(G, beta, spec, seed, t_max) for seed in seeds]
        fh.write("seed,n,beta,dynamics,coalescence_step,timeout_flag\n")
        for r in results:  # seeds in order; map preserves it
            fh.write(f"{r.seed},{G.n},{beta},{spec.kind},{r.steps},"
                     f"{int(r.timed_out)}\n")


_couple_run = None  # (G, beta, spec, t_max) in a couple --jobs worker


def _couple_init(G, beta, spec, t_max):
    global _couple_run
    _couple_run = (G, beta, spec, t_max)


def _couple_seed(seed):
    G, beta, spec, t_max = _couple_run
    return coupling_time(G, beta, spec, seed, t_max)


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

    if spec.kind in ("iv", "msw", "block") and G.n <= UP_SET_N_LIMIT:
        A = spec.censor if spec.censor is not None else frozenset(range(G.n))
        ok = exact.check_censoring_order(G, beta, spec.kind, A,
                                         blocks=spec.blocks)
        add("censoring_order", ok=bool(ok), tolerance=1e-12)
    elif spec.kind in ("iv", "msw", "block"):
        add("censoring_order", skipped=f"n > {UP_SET_N_LIMIT}")

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
    return bool(c.get("timeout"))


@_command
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
    with _open_out(s) as fh:
        checks = _verify_checks(G, beta, spec, eps)
        report = {"graph": s.require("graph"), "checks": checks,
                  "failed": sum(_check_failed(c) for c in checks)}
        json.dump(report, fh, indent=2)
        fh.write("\n")
    if all("skipped" in c for c in checks):
        click.echo("error: every check was skipped; nothing was verified", err=True)
        sys.exit(1)
    sys.exit(1 if report["failed"] else 0)


@_command
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
    with _open_out(s) as fh:
        rows = []
        for G in graphs:
            sw = exact.transition_matrix(G, beta, DynamicsSpec("sw"))
            iv = exact.transition_matrix(G, beta, DynamicsSpec("iv"))
            g_sw = exact.spectral_report(sw.P, sw.mu)
            g_iv = exact.spectral_report(iv.P, iv.mu)
            rows.append((G.n, g_sw.gap, g_iv.gap,
                         g_sw.relaxation if g_sw.relaxation_finite else "",
                         g_iv.relaxation if g_iv.relaxation_finite else ""))
        fh.write("n,gap_sw,gap_iv,relax_sw,relax_iv\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


@_command
def assm(config, **flags):
    """Search for the smallest radius with total sphere influence <= 1/4."""
    s = Settings(config, flags)
    try:
        G = parse_graph(s.require("graph"))
    except (GraphError, ValueError) as exc:
        _fail_invalid(str(exc))
    beta = s.beta()
    r_max = s.count("r_max", 6, 0)
    with _open_out(s) as fh:
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
        json.dump(report, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
