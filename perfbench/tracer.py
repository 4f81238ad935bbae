"""Layer wrappers for the isingdyn benchmark.

Every public function named in LAYERS is replaced, at every isingdyn module
binding and class attribute that holds it, by a wrapper from this file; the
library source is not touched. Two modes:

* ``count``: each call bumps counters (calls, plus the exact work counts
  computed by the hooks below). Untraced runs use this mode, so every run
  records exact counts.
* ``trace``: counters plus one span per call (name, start, end, parent span,
  item id) kept in memory in flat arrays, from which per-layer self time
  (span duration minus the time covered by child spans) is computed.

The traced run refuses to start when a named function is missing or when a
package module still holds an unwrapped binding after installation, so a
refactor cannot silently zero a layer. The count mode tolerates missing
names (their counts read 0) so that end-to-end runs keep working across
refactors.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "isingdyn"


class TracerError(RuntimeError):
    """A named function is missing or still bound unwrapped."""


# ---------------------------------------------------------------------------
# Hooks: exact work counts computed at the layer boundary


def _arg(params, args, kwargs, name):
    i = params.index(name)
    if i < len(args):
        return args[i]
    return kwargs.get(name)


def _draws_made(tr, params, args, kwargs, result, token):
    """Draws generated: the sizes of the returned fields, scalars count 1."""
    made = 0
    for v in vars(result).values():
        made += v.size if isinstance(v, np.ndarray) else 1
    tr.counts["randomness.draws_generated"] += made
    tr.counts["randomness.draw_objects"] += 1
    tr.unread[id(result)] = made


def _cluster_reads(params, args, kwargs):
    # edge uniforms for percolation plus the per-vertex spin field
    G = _arg(params, args, kwargs, "G")
    return G.m + G.n


def _glauber_reads(params, args, kwargs):
    return 2  # the vertex selector and one threshold uniform


def _block_reads(params, args, kwargs):
    # the block selector plus one threshold per free vertex of B_k int A
    blocks = _arg(params, args, kwargs, "blocks")
    draws = _arg(params, args, kwargs, "draws")
    A = _arg(params, args, kwargs, "A")
    B = blocks[draws.block_index(len(blocks))]
    return 1 + len(B if A is None else B & A)


def _kernel_step(reads):
    def hook(tr, params, args, kwargs, result, token):
        tr.counts["dynamics.kernel_steps"] += 1
        draws = _arg(params, args, kwargs, "draws")
        # a draws object shared by coupled copies is read once
        if tr.unread.pop(id(draws), None) is not None:
            tr.counts["randomness.draws_read"] += reads(params, args, kwargs)
    return hook


def _audit_enter(tr, params, args, kwargs):
    return tr.counts["dynamics.kernel_steps"]


def _audit_exit(tr, params, args, kwargs, result, token):
    # each audit step advances the upper and the lower copy once
    tr.counts["coupling.audit_steps_total"] += (
        tr.counts["dynamics.kernel_steps"] - token) // 2


def _coupling_exit(tr, params, args, kwargs, result, token):
    tr.counts["coupling.steps_total"] += int(result.steps)


def _gibbs_exit(tr, params, args, kwargs, result, token):
    G = _arg(params, args, kwargs, "G")
    tr.distinct["ising.gibbs_exact"].add((G, float(_arg(params, args, kwargs, "beta"))))


def _kernel_build_exit(tr, params, args, kwargs, result, token):
    G = _arg(params, args, kwargs, "G")
    beta = float(_arg(params, args, kwargs, "beta"))
    tr.counts["exact.kernel_builds"] += 1
    tr.counts["exact.states_enumerated"] += 1 << G.n
    tr.distinct["exact.transition_matrix"].add((G, beta, _arg(params, args, kwargs, "spec")))


def _space_exit(tr, params, args, kwargs, result, token):
    tr.counts["exact.states_enumerated"] += args[0].size


def _sphere_exit(tr, params, args, kwargs, result, token):
    k = len(result)
    limit = getattr(sys.modules.get(PACKAGE + ".ssm"), "SPHERE_LIMIT", 16)
    if 0 < k <= limit:  # larger spheres are refused before enumeration
        tr.counts["ssm.sphere_configs"] += 1 << k


def _kernel_kind(params, args, kwargs):
    return _arg(params, args, kwargs, "spec").kind


class Layer:
    """One wrapped function: span name, where it is defined, and hooks."""

    def __init__(self, name, module, attr, *, exit=None, enter=None, suffix=None):
        self.name = name
        self.module = PACKAGE + "." + module
        self.attr = attr
        self.exit = exit
        self.enter = enter
        self.suffix = suffix  # span name gains ".<suffix(args)>"


LAYERS = [
    Layer("graph.endpoint_arrays", "graph", "Graph.endpoint_arrays"),
    Layer("graph.sphere", "graph", "sphere", exit=_sphere_exit),
    Layer("graph.generate", "graph", "generate"),
    Layer("randomness.at", "randomness", "SharedRandomness.at", exit=_draws_made),
    Layer("randomness.sequential_draws", "randomness", "sequential_draws",
          exit=_draws_made),
    Layer("dynamics.percolate", "dynamics", "percolate"),
    Layer("dynamics.components", "dynamics", "components"),
    Layer("dynamics.sw_step", "dynamics", "sw_step", exit=_kernel_step(_cluster_reads)),
    Layer("dynamics.iv_step", "dynamics", "iv_step", exit=_kernel_step(_cluster_reads)),
    Layer("dynamics.msw_step_alt", "dynamics", "msw_step_alt",
          exit=_kernel_step(_cluster_reads)),
    Layer("dynamics.glauber_step", "dynamics", "glauber_step",
          exit=_kernel_step(_glauber_reads)),
    Layer("dynamics.block_step", "dynamics", "block_step",
          exit=_kernel_step(_block_reads)),
    Layer("dynamics.run_chain", "dynamics", "run_chain"),
    Layer("ising.gibbs_exact", "ising", "gibbs_exact", exit=_gibbs_exit),
    Layer("ising.conditional_marginal", "ising", "conditional_marginal"),
    Layer("ising.enumerate_up_sets", "ising", "enumerate_up_sets"),
    Layer("ising.stochastically_dominates", "ising", "stochastically_dominates"),
    Layer("coupling.coupling_time", "coupling", "coupling_time", exit=_coupling_exit),
    Layer("coupling.monotonicity_audit", "coupling", "monotonicity_audit",
          enter=_audit_enter, exit=_audit_exit),
    Layer("exact.transition_matrix", "exact", "transition_matrix",
          exit=_kernel_build_exit, suffix=_kernel_kind),
    Layer("exact.spectral_report", "exact", "spectral_report"),
    Layer("exact.tv_mixing_time", "exact", "tv_mixing_time"),
    Layer("exact.verify_decompositions", "exact", "verify_decompositions"),
    Layer("exact.joint_space", "exact", "JointSpace.__init__", exit=_space_exit),
    Layer("exact.joint_space", "exact", "JointSpace.build_T"),
    Layer("exact.joint_space", "exact", "JointSpace.build_Tstar"),
    Layer("exact.joint_space", "exact", "JointSpace.build_Q"),
    Layer("exact.marked_space", "exact", "MarkedSpace.__init__", exit=_space_exit),
    Layer("exact.marked_space", "exact", "MarkedSpace.nu_m"),
    Layer("exact.marked_space", "exact", "MarkedSpace.build_S"),
    Layer("exact.marked_space", "exact", "MarkedSpace.build_Sstar"),
    Layer("exact.marked_space", "exact", "MarkedSpace.build_K"),
    Layer("exact.censoring_order_holds", "exact", "censoring_order_holds"),
    Layer("exact.censored_dominance", "exact", "censored_dominance"),
    Layer("ssm.find_assm_radius", "ssm", "find_assm_radius"),
    Layer("ssm.assm_check", "ssm", "assm_check"),
]

CLI_COMMANDS = ("couple", "sample", "verify", "gap", "assm")
CLI_LAYERS = [Layer("cli." + c, "cli", "main.commands." + c + ".callback")
              for c in CLI_COMMANDS]


def _resolve(layer):
    """(owner, attribute name, function) of a layer, or None when missing."""
    try:
        obj = importlib.import_module(layer.module)
    except ImportError:
        return None
    *path, attr = layer.attr.split(".")
    for part in path:
        obj = obj.get(part) if isinstance(obj, dict) else getattr(obj, part, None)
        if obj is None:
            return None
    fn = vars(obj).get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
    if not callable(fn):
        return None
    return obj, attr, fn


def _package_owners():
    """Every isingdyn module and every class defined in one."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        yield mod
        for v in list(vars(mod).values()):
            if isinstance(v, type) and v.__module__.startswith(PACKAGE):
                yield v


class Tracer:
    """Counters, and in trace mode spans, for one benchmark process."""

    def __init__(self, mode: str):
        if mode not in ("count", "trace"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self.unread: dict[int, int] = {}
        self.item = -1          # item id stamped on new spans; -1 = set-up
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        # span store (trace mode): flat arrays, one entry per span
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_item = array("q")
        self._stack: list[int] = []    # indices of the open spans

    # -- installation -------------------------------------------------------

    def install(self, layers):
        """Wrap every layer at each binding; in trace mode refuse on gaps."""
        found = []
        for layer in layers:
            res = _resolve(layer)
            if res is None:
                self.missing.append(f"{layer.module}.{layer.attr}")
            else:
                found.append((layer, res))
        if self.missing and self.mode == "trace":
            raise TracerError("named functions missing: " + ", ".join(self.missing))
        by_id = {}
        for layer, (owner, attr, fn) in found:
            wrapper = self._wrap(layer, fn)
            by_id[id(fn)] = (fn, wrapper)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        for owner in _package_owners():
            for key, value in list(vars(owner).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((owner, key, value))
                    setattr(owner, key, hit[1])
        if self.mode == "trace":
            self.guard([fn for fn, _ in by_id.values()])

    @staticmethod
    def guard(originals):
        """Raise if any package module or class still holds an original."""
        ids = {id(fn) for fn in originals}
        stale = [f"{getattr(owner, '__name__', owner)}.{key}"
                 for owner in _package_owners()
                 for key, value in list(vars(owner).items()) if id(value) in ids]
        if stale:
            raise TracerError("unwrapped bindings remain: " + ", ".join(stale))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, layer, fn):
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        counts = self.counts
        enter, exit_, suffix = layer.enter, layer.exit, layer.suffix
        tr = self
        labels = {}

        def label_of(args, kwargs):
            name = layer.name + "." + suffix(params, args, kwargs)
            lab = labels.get(name)
            if lab is None:
                lab = labels[name] = (name + ".calls", name + ".raised",
                                      self._name_id(name))
            return lab

        fixed = None
        if suffix is None:
            fixed = (layer.name + ".calls", layer.name + ".raised",
                     self._name_id(layer.name))

        if self.mode == "count":
            def wrapper(*args, **kwargs):
                calls_key, raised_key, _ = fixed or label_of(args, kwargs)
                counts[calls_key] += 1
                token = enter(tr, params, args, kwargs) if enter else None
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    counts[raised_key] += 1
                    raise
                if exit_ is not None:
                    exit_(tr, params, args, kwargs, result, token)
                return result
        else:
            perf = time.perf_counter

            def wrapper(*args, **kwargs):
                calls_key, raised_key, name_id = fixed or label_of(args, kwargs)
                counts[calls_key] += 1
                token = enter(tr, params, args, kwargs) if enter else None
                tr._open(name_id, perf())
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    counts[raised_key] += 1
                    raise
                finally:
                    tr._close(perf())
                if exit_ is not None:
                    exit_(tr, params, args, kwargs, result, token)
                return result

        return functools.update_wrapper(wrapper, fn)

    # -- spans ----------------------------------------------------------------

    def _open(self, name_id: int, start: float):
        stack = self._stack
        stack.append(len(self.span_start))
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(stack[-2] if len(stack) > 1 else -1)
        self.span_item.append(self.item)

    def _close(self, end: float):
        self.span_end[self._stack.pop()] = end

    def root(self, name: str, fn):
        """Run fn inside a root span owned by the benchmark itself."""
        if self.mode != "trace":
            return fn()
        self._open(self._name_id(name), time.perf_counter())
        try:
            return fn()
        finally:
            self._close(time.perf_counter())

    # -- read-out -------------------------------------------------------------

    def reset_counts(self):
        self.counts.clear()
        self.distinct.clear()
        self.unread.clear()

    def snapshot(self) -> dict:
        """Exact counts so far, distinct-build counts included, sorted."""
        out = {k: v for k, v in self.counts.items() if v}
        for k, keys in self.distinct.items():
            out[k + ".distinct"] = len(keys)
        return dict(sorted(out.items()))

    def span_arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
            "item": np.frombuffer(self.span_item, dtype=np.int64),
        }


def layer_times(spans: dict, mask) -> dict:
    """{span name: (calls, self seconds)} over the spans selected by mask.

    A span's self time is its duration minus the durations of its direct
    children; children lie inside their parent, so self times add up to the
    duration of the root spans.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    own = dur - child
    names = spans["name"][mask]
    calls = np.bincount(names, minlength=len(spans["names"]))
    selft = np.bincount(names, weights=own[mask], minlength=len(spans["names"]))
    return {str(n): (int(calls[i]), float(selft[i]))
            for i, n in enumerate(spans["names"]) if calls[i]}
