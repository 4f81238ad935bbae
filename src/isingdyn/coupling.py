"""Grand couplings, coalescence-time estimation, and monotonicity audits.

A grand coupling advances every coupled copy with the same per-step random
fields. For the monotone kernels (glauber, block, iv, msw) the coupling
preserves the coordinatewise order, so the chains started from all-plus
and all-minus sandwich every other start.

coupling_time reads step t's fields from SharedRandomness by counter. The
cluster kinds (iv, msw) read the whole step, StepDraws from at(t): m edge
uniforms, the spins and n vertex uniforms. The heat-bath kinds (glauber,
block) read (k, thresholds) from site_draws over the bath's own table,
HeatBath.sites: the selector index and u_t(v) for each site v the selected
vertex or block updates, in update order, 2 and 1 + |B_k int A| of the
step's m + ceil(n/2) + n + 1 words. Both carry the bits at(t) decodes, so
the coalescence times are the same either way.

The iv and msw pair is two arrays advanced by `step`. The glauber and
block pair is two lists advanced by one dynamics.HeatBath, which keeps
each site's plus-probability for the run under the key (k, i, spins at
the site's clamped set), and a count of the sites where the copies
differ, updated at the sites each step sets, replaces comparing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsSpec, HeatBath, step
from .graph import Graph
# sequential_draws stays bound here: it is the per-step form of the blocks
# the audit reads, and perfbench's tracer wraps it at every binding
from .randomness import SharedRandomness, draw_block, sequential_draws  # noqa: F401

__all__ = [
    "CouplingResult",
    "coupling_time",
    "monotonicity_audit",
    "random_comparable_pair",
]

DEFAULT_T_MAX = 10**6


@dataclass(frozen=True)
class CouplingResult:
    seed: int
    steps: int          # first coalescence step, or t_max when timed out
    timed_out: bool


def coupling_time(G: Graph, beta: float, spec: DynamicsSpec, seed: int,
                  t_max: int = DEFAULT_T_MAX) -> CouplingResult:
    """Coalescence time of the all-plus/all-minus coupled pair.

    Only meaningful for the monotone kernels; SW is rejected since it has
    no monotone grand coupling. A timeout is reported, never raised; a
    negative t_max is refused.
    """
    if not spec.is_monotone():
        raise ValueError(f"{spec.kind} dynamics has no monotone grand coupling")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, not {t_max}")
    spec.validate_for(G)
    shared = SharedRandomness(seed, G.n, G.m)
    if spec.kind in ("glauber", "block"):
        bath = HeatBath(G, beta, spec.blocks, spec.censor)
        upper, lower = [1] * G.n, [-1] * G.n
        apart = G.n  # sites where the copies differ
        for t, (k, thresholds) in enumerate(shared.site_draws(bath.sites, t_max), 1):
            for v in bath.sites[k]:
                apart -= upper[v] != lower[v]
            bath.update(k, thresholds, (upper, lower))
            for v in bath.sites[k]:
                apart += upper[v] != lower[v]
            if not apart:
                return CouplingResult(seed=seed, steps=t, timed_out=False)
    else:
        upper = np.full(G.n, 1, dtype=np.int8)
        lower = np.full(G.n, -1, dtype=np.int8)
        for t, draws in enumerate(map(shared.at, range(1, t_max + 1)), 1):
            upper = step(G, beta, spec, upper, draws)
            lower = step(G, beta, spec, lower, draws)
            if np.array_equal(upper, lower):
                return CouplingResult(seed=seed, steps=t, timed_out=False)
    return CouplingResult(seed=seed, steps=t_max, timed_out=True)


def random_comparable_pair(n: int, rng: np.random.Generator):
    """A uniform-ish pair (lower, upper) with lower <= upper coordinatewise."""
    a = rng.integers(0, 2, size=n).astype(np.int8) * 2 - 1
    b = rng.integers(0, 2, size=n).astype(np.int8) * 2 - 1
    return np.minimum(a, b), np.maximum(a, b)


def monotonicity_audit(G: Graph, beta: float, spec: DynamicsSpec, trials: int,
                       steps: int, seed: int, broken: bool = False) -> int:
    """Count order violations over coupled trajectories of comparable pairs.

    Each trial draws a random comparable pair and advances it `steps`
    grand-coupled steps; a violation is any step after which upper >= lower
    fails. Expected 0 for the monotone kernels. With broken=True the two
    copies consume independent randomness (negative control; violations
    are expected). An audit of no trials or no steps is refused, since it
    would report 0 violations for work it did not do.
    """
    if not spec.is_monotone():
        raise ValueError(f"{spec.kind} dynamics is not monotone-capable")
    if trials <= 0 or steps <= 0:
        raise ValueError(f"an audit needs trials >= 1 and steps >= 1, "
                         f"not trials={trials}, steps={steps}")
    spec.validate_for(G)
    bath = (HeatBath(G, beta, spec.blocks, spec.censor)
            if spec.kind in ("glauber", "block") else None)
    violations = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((0xA0D1, seed, trial)))
        lower, upper = random_comparable_pair(G.n, rng)
        # each copy's steps are the sequential_draws of its generator
        block = draw_block(rng, G.n, G.m, steps)
        if broken:
            rng2 = np.random.default_rng(np.random.SeedSequence((0xBAD1, seed, trial)))
            block2 = draw_block(rng2, G.n, G.m, steps)
        for draws in block:
            draws2 = next(block2) if broken else draws
            upper = step(G, beta, spec, upper, draws, bath)
            lower = step(G, beta, spec, lower, draws2, bath)
            if np.any(upper < lower):
                violations += 1
                break
    return violations
