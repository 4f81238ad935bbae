"""Boundary influence coefficients on distance spheres and the aggregate
strong spatial mixing check (total sphere influence at most 1/4).

The influence of a sphere vertex u on the center v is the worst case, over
all sphere configurations, of the change in v's conditional plus-marginal
when only u's spin flips. The supremum is an exhaustive maximum over all
2^(|S|-1) off-u configurations, never sampled.

Conditioning clamps the sphere S(v,R) and marginalizes everything else;
the marginals for all sphere configurations come from one vectorized pass
of ising.clamped_marginals, with each sphere vertex's clamping on its own
axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, sphere
from .ising import FeasibilityError, clamped_marginals

__all__ = [
    "InfluenceTable",
    "influence_au",
    "assm_check",
    "find_assm_radius",
    "ASSM_BOUND",
]

ASSM_BOUND = 0.25
SPHERE_LIMIT = 16


@dataclass(frozen=True)
class InfluenceTable:
    """Per-sphere-vertex influence coefficients around one center."""

    v: int
    R: int
    entries: dict
    total: float

    @property
    def passes(self) -> bool:
        return self.total <= ASSM_BOUND


def _sphere_marginals(G: Graph, beta: float, v: int, S: list[int]) -> np.ndarray:
    """P(sigma(v)=+ | sphere = tau) for every tau on S, as a (2,)*|S| array.

    S[j] is clamped on axis |S|-1-j (index 0 is -, 1 is +), so flattening
    in C order indexes tau by its bit encoding over S in list order.
    """
    k = len(S)
    clamp = {u: np.array([-1, 1]).reshape([2 if a == k - 1 - j else 1 for a in range(k)])
             for j, u in enumerate(S)}
    return np.broadcast_to(clamped_marginals(G, beta, v, clamp), (2,) * k)


def _influences(G: Graph, beta: float, v: int, R: int) -> dict:
    S = sorted(sphere(G, v, R))
    if not S:
        return {}
    if len(S) > SPHERE_LIMIT:
        raise FeasibilityError(
            f"sphere of size {len(S)} at (v={v}, R={R}) exceeds limit {SPHERE_LIMIT}")
    flat = _sphere_marginals(G, beta, v, S).reshape(-1)
    out = {}
    for j, u in enumerate(S):  # S[j]'s axis has stride 2^j in flat
        t = flat.reshape(-1, 2, 1 << j)
        out[u] = float(np.abs(t[:, 1] - t[:, 0]).max())
    return out


def influence_au(G: Graph, beta: float, v: int, R: int, u: int) -> float:
    """Worst-case marginal shift at v from flipping sphere vertex u."""
    table = _influences(G, beta, v, R)
    if u not in table:
        raise ValueError(f"vertex {u} is not on the sphere S({v},{R})")
    return table[u]


def assm_check(G: Graph, beta: float, v: int, R: int) -> tuple[bool, InfluenceTable]:
    """Total sphere influence at v, compared against the 1/4 bound."""
    entries = _influences(G, beta, v, R)
    total = float(sum(entries.values()))
    table = InfluenceTable(v=v, R=R, entries=entries, total=total)
    return table.passes, table


def find_assm_radius(G: Graph, beta: float, R_max: int):
    """Smallest R <= R_max where the sphere-influence bound holds at every
    vertex, or None.

    Returns (radius, details); details[R][v] is ("pass", total),
    ("fail", total), or ("infeasible", message). An infeasible vertex
    counts as not passing at that radius.
    """
    details: dict[int, dict] = {}
    for R in range(R_max + 1):
        per_v = {}
        all_pass = True
        for v in range(G.n):
            try:
                ok, table = assm_check(G, beta, v, R)
                per_v[v] = ("pass" if ok else "fail", table.total)
                all_pass &= ok
            except FeasibilityError as exc:
                per_v[v] = ("infeasible", str(exc))
                all_pass = False
        details[R] = per_v
        if all_pass:
            return R, details
    return None, details
