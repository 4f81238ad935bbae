"""Undirected graphs with indexed edges, plus generators and distance balls.

Edge indices are assigned in file/generation order and are stable; all
edge-subset values key off these indices so that per-edge randomness is
reproducible.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "MAX_VERTICES",
    "load_edge_list",
    "distances",
    "ball",
    "sphere",
    "cycle",
    "path",
    "grid",
    "complete_tree",
    "random_regular",
    "generate",
]


MAX_VERTICES = 2**20
# Pairing-model success per attempt, about exp(-(d^2-1)/4), measured at n <= 20 and 1000:
# >= 0.0086 at d = 4 (all 2000 attempts fail w.p. < 1e-7), 5e-4 at d = 5 (K6: 19/35 fail).
MAX_REGULAR_DEGREE = 4


class GraphError(ValueError):
    """Invalid graph input (bad file, self-loop, infeasible parameters)."""


def _check_size(n: int, what: str):
    if n > MAX_VERTICES:
        raise GraphError(f"{what} has more than MAX_VERTICES = {MAX_VERTICES} vertices")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with stable integer edge indices.

    Immutable after construction; safe to share across concurrent chains.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    max_degree: int = field(init=False)
    _ends: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_size(self.n, "graph")
        seen = set()
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge {i} = ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise GraphError(f"edge {i} is a self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge {key} at index {i}")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "adjacency", tuple(tuple(a) for a in adj))
        object.__setattr__(
            self, "max_degree", max((len(a) for a in adj), default=0)
        )
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T.copy()
        ends.flags.writeable = False
        object.__setattr__(self, "_ends", (ends[0], ends[1]))

    def __reduce__(self):
        # rebuilt, so an unpickled graph's endpoint arrays are read-only too
        return Graph, (self.n, self.edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def endpoint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two read-only int arrays, built once."""
        return self._ends


def load_edge_list(path) -> Graph:
    """Parse an edge-list file: one "u v" pair per line, '#' comments."""
    edges = []
    max_v = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError(f"{path}:{lineno}: expected two integers, got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphError(
                    f"{path}:{lineno}: non-integer vertex in {raw!r}"
                ) from None
            if u < 0 or v < 0:
                raise GraphError(f"{path}:{lineno}: negative vertex index")
            _check_size(max(u, v) + 1, f"{path}:{lineno}: a graph with vertex {max(u, v)}")
            edges.append((u, v))
            max_v = max(max_v, u, v)
    if not edges:
        raise GraphError(f"{path}: no edges")
    return Graph(n=max_v + 1, edges=tuple(edges))


def distances(G: Graph, v: int, blocked=(), depth: int = MAX_VERTICES) -> dict[int, int]:
    """Graph distance from v to each vertex within `depth` of v that it
    reaches without entering `blocked`, keyed in breadth-first visit order
    (v first). The walk stops at the first vertex at distance `depth`, so
    no farther vertex is visited; the default exceeds every distance."""
    dist = {v: 0}
    queue = [v]
    for u in queue:  # grows while it is read, in non-decreasing distance
        d = dist[u] + 1
        if d > depth:
            break
        for w in G.adjacency[u]:
            if w not in dist and w not in blocked:
                dist[w] = d
                queue.append(w)
    return dist


def _checked_distances(G: Graph, v: int, R: int, depth: int) -> dict[int, int]:
    if not 0 <= v < G.n:
        raise GraphError(f"vertex {v} out of range")
    if R < 0:
        raise GraphError("radius must be nonnegative")
    return distances(G, v, depth=depth)


def ball(G: Graph, v: int, R: int) -> frozenset:
    """B(v,R): all vertices at graph distance at most R from v, from a walk
    that stops at depth R."""
    return frozenset(_checked_distances(G, v, R, R))


def sphere(G: Graph, v: int, R: int) -> frozenset:
    """S(v,R): the vertices at graph distance exactly R+1 from v, from a
    walk that stops at depth R+1."""
    return frozenset(u for u, d in _checked_distances(G, v, R, R + 1).items() if d > R)


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    _check_size(n, f"cycle({n})")
    return Graph(n=n, edges=tuple((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    _check_size(n, f"path({n})")
    return Graph(n=n, edges=tuple((i, i + 1) for i in range(n - 1)))


def grid(w: int, h: int) -> Graph:
    if w < 1 or h < 1:
        raise GraphError("grid needs positive dimensions")
    _check_size(w * h, f"grid({w}, {h})")
    idx = lambda x, y: y * w + x
    edges = []
    for y in range(h):
        for x in range(w):
            if x + 1 < w:
                edges.append((idx(x, y), idx(x + 1, y)))
            if y + 1 < h:
                edges.append((idx(x, y), idx(x, y + 1)))
    return Graph(n=w * h, edges=tuple(edges))


def complete_tree(d: int, h: int) -> Graph:
    """Complete tree of height h: every internal vertex has degree d.

    The root has d children; every other internal vertex has d-1 children.
    complete_tree(d, 0) is a single vertex.
    """
    if d < 2:
        raise GraphError("complete_tree needs d >= 2")
    if h < 0:
        raise GraphError("complete_tree needs h >= 0")
    sizes = [1]  # vertices at each depth, numbered depth by depth
    n = 1
    for depth in range(h):
        sizes.append(sizes[-1] * (d if depth == 0 else d - 1))
        n += sizes[-1]
        _check_size(n, f"complete_tree({d}, {h})")
    edges = []
    first = 0  # first vertex at this depth
    for depth, size in enumerate(sizes[:-1]):
        k = d if depth == 0 else d - 1
        edges.extend((first + i, first + size + i * k + j)
                     for i in range(size) for j in range(k))
        first += size
    return Graph(n=n, edges=tuple(edges))


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform-ish d-regular graph via the pairing model with rejection."""
    if n * d % 2 != 0:
        raise GraphError("random_regular needs n*d even")
    if not 0 <= d < n:
        raise GraphError("random_regular needs 0 <= d < n")
    if d > MAX_REGULAR_DEGREE:
        raise GraphError(f"random_regular needs d <= {MAX_REGULAR_DEGREE}")
    _check_size(n, f"random_regular({n}, {d}, {seed})")
    if n * d > MAX_VERTICES:
        raise GraphError(f"random_regular({n}, {d}, {seed}) has n*d > MAX_VERTICES stubs")
    rng = np.random.default_rng(np.random.SeedSequence((0x5E6, seed)))
    stubs = np.repeat(np.arange(n), d)
    for _ in range(2000):
        pairs = np.sort(rng.permutation(stubs).reshape(-1, 2), axis=1)
        keys = pairs[:, 0] * n + pairs[:, 1]
        if (pairs[:, 0] != pairs[:, 1]).all() and np.unique(keys).size == keys.size:
            return Graph(n=n, edges=tuple(sorted(map(tuple, pairs.tolist()))))
    raise GraphError(f"pairing model failed to produce a simple {d}-regular graph")


def generate(kind: str, *args) -> Graph:
    """Dispatch on a generator name: cycle, path, grid, complete_tree, random_regular.

    Each generator checks the vertex count its arguments imply against
    MAX_VERTICES before it builds anything past that bound.
    """
    table = {
        "cycle": cycle,
        "path": path,
        "grid": grid,
        "complete_tree": complete_tree,
        "random_regular": random_regular,
    }
    if kind not in table:
        raise GraphError(f"unknown graph kind {kind!r}")
    sig = inspect.signature(table[kind])
    try:
        sig.bind(*args)
    except TypeError:
        raise GraphError(f"{kind} needs arguments ({', '.join(sig.parameters)}), "
                         f"got {len(args)}") from None
    return table[kind](*args)
