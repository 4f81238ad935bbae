"""Undirected graphs with indexed edges, plus generators and distance balls.

Edge indices are assigned in file/generation order and are stable; all
edge-subset values key off these indices so that per-edge randomness is
reproducible.
"""

from __future__ import annotations

import inspect
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "load_edge_list",
    "ball",
    "sphere",
    "cycle",
    "path",
    "grid",
    "complete_tree",
    "random_regular",
    "generate",
]


class GraphError(ValueError):
    """Invalid graph input (bad file, self-loop, infeasible parameters)."""


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
            edges.append((u, v))
            max_v = max(max_v, u, v)
    if not edges:
        raise GraphError(f"{path}: no edges")
    return Graph(n=max_v + 1, edges=tuple(edges))


def _bfs_dist(G: Graph, v: int) -> list[int]:
    dist = [-1] * G.n
    dist[v] = 0
    dq = deque([v])
    while dq:
        u = dq.popleft()
        for w in G.adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                dq.append(w)
    return dist


def ball(G: Graph, v: int, R: int) -> frozenset:
    """B(v,R): all vertices at graph distance at most R from v."""
    if not 0 <= v < G.n:
        raise GraphError(f"vertex {v} out of range")
    if R < 0:
        raise GraphError("radius must be nonnegative")
    dist = _bfs_dist(G, v)
    return frozenset(u for u in range(G.n) if 0 <= dist[u] <= R)


def sphere(G: Graph, v: int, R: int) -> frozenset:
    """S(v,R): the vertices at graph distance exactly R+1 from v."""
    if not 0 <= v < G.n:
        raise GraphError(f"vertex {v} out of range")
    if R < 0:
        raise GraphError("radius must be nonnegative")
    dist = _bfs_dist(G, v)
    return frozenset(u for u in range(G.n) if dist[u] == R + 1)


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n=n, edges=tuple((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph(n=n, edges=tuple((i, i + 1) for i in range(n - 1)))


def grid(w: int, h: int) -> Graph:
    if w < 1 or h < 1:
        raise GraphError("grid needs positive dimensions")
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
    edges = []
    level = [0]
    nxt = 1
    for depth in range(h):
        new_level = []
        for v in level:
            k = d if depth == 0 else d - 1
            for _ in range(k):
                edges.append((v, nxt))
                new_level.append(nxt)
                nxt += 1
        level = new_level
    return Graph(n=nxt, edges=tuple(edges))


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform-ish d-regular graph via the pairing model with rejection."""
    if n * d % 2 != 0:
        raise GraphError("random_regular needs n*d even")
    if d >= n:
        raise GraphError("random_regular needs d < n")
    rng = np.random.default_rng(np.random.SeedSequence((0x5E6, seed)))
    stubs = np.repeat(np.arange(n), d)
    for _ in range(2000):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        seen = set()
        ok = True
        edges = []
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                ok = False
                break
            key = (min(u, v), max(u, v))
            if key in seen:
                ok = False
                break
            seen.add(key)
            edges.append((u, v))
        if ok:
            return Graph(n=n, edges=tuple(sorted((min(u, v), max(u, v)) for u, v in edges)))
    raise GraphError(f"pairing model failed to produce a simple {d}-regular graph")


def generate(kind: str, *args) -> Graph:
    """Dispatch on a generator name: cycle, path, grid, complete_tree, random_regular."""
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
