"""isingdyn benchmark: one workload per run, in one fresh process.

    python3 perfbench/run.py --workload couple-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory. With --trace 0 the run measures the end-to-end metrics of
BENCHMARK.json; with --trace 1 it reports the per-layer metrics instead (see
README.md). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Details of every run (exact
counts, time shares, failures, machine) are written under perfbench/out/.
Exit status: 0 when every output check passed, 1 when one failed, 2 on bad
usage or when the library cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7          # fresh processes timed for setup_s
CAL_REF_S = 0.002         # calibration task time that defines a reference second
LONG_ITEM_S = 0.1         # items at least this long get 5 calibration samples
ITEM_TIMEOUT_S = 60.0     # an item still running after this counts as failed
BLAS_THREADS = "1"        # multi-threaded BLAS is erratic on shared cores
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fail_usage(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a set-up probe, or the untraced twin of a traced run
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--details", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        _fail_usage("--seed must be nonnegative")
    if not args.seconds > 0:
        _fail_usage("--seconds must be positive")
    return args


def _import_library():
    """Import isingdyn from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "isingdyn" / "__init__.py").is_file():
        _fail_usage(f"no isingdyn package under {src}; run from a source checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import isingdyn
    if Path(isingdyn.__file__).resolve().parent != (src / "isingdyn").resolve():
        _fail_usage(f"imported isingdyn from {isingdyn.__file__}, not from {src}")
    return isingdyn


def _code_hash(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.rglob("*.py")):
        h.update(p.relative_to(directory).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _machine() -> dict:
    import machine
    doc = machine.describe(system_files=False)
    doc["blas_threads"] = {v: os.environ.get(v) for v in BLAS_VARS}
    doc["src_sha256"] = _code_hash(ROOT / "src")
    doc["bench_sha256"] = _code_hash(BENCH_DIR)
    return doc


# ---------------------------------------------------------------------------


class ItemTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ItemTimeout(f"item exceeded {ITEM_TIMEOUT_S:g} s")


def setup(workload: str, seed: int, mode: str):
    """Import the library, install the tracer, build the workload, warm up."""
    _import_library()
    import tracer
    import workloads
    tr = tracer.Tracer(mode)
    layers = tracer.LAYERS
    if mode == "trace":
        import isingdyn.cli  # noqa: F401  (its bindings get wrapped too)
        layers = layers + tracer.CLI_LAYERS
    tr.install(layers)
    wl = workloads.WORKLOADS[workload](seed)
    wl.warm_up()
    return tr, wl


def probe_setup(args) -> list[float]:
    """setup_s samples: fresh processes timed from spawn to 'ready'."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline().strip()
            t1 = time.monotonic()
            out, err = p.communicate(timeout=120)
        if p.returncode != 0 or line != "ready":
            sys.stderr.write(err)
            raise RuntimeError(f"setup probe failed with exit {p.returncode}")
        # the probe times the calibration task right after set-up
        samples.append((t1 - t0) * CAL_REF_S / float(out))
    return samples


class Calibration:
    """A fixed CPU task timed around every item, to cancel machine drift.

    On shared cores other tenants change the speed of the machine by 10 to
    40 % over seconds to minutes, which moves every timing of a run alike.
    Each item's wall time is multiplied by CAL_REF_S over the median time of
    the calibration task just before and just after the item, giving
    reference seconds: the item's time on a machine where the task takes
    CAL_REF_S. One task takes about 2 ms and is itself noisy, so after an
    item longer than LONG_ITEM_S it runs 5 times. The task mixes interpreter
    work and small numpy calls, as the library does, and never calls the
    library.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        self._x = np.arange(64.0)

    def task(self) -> float:
        t = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i % 7
        x = self._x
        for _ in range(200):
            x = self._np.sqrt(x + 1.0)
        return time.perf_counter() - t

    def median(self, k: int = 5) -> float:
        return statistics.median(self.samples(k))

    def samples(self, k: int) -> list[float]:
        return [self.task() for _ in range(k)]


def run_items(tr, wl, seconds: float, rounds: int | None):
    """The timed phase: whole rounds until `seconds` passed (or `rounds` ran)."""
    perf = time.perf_counter
    cal = Calibration()
    times, raw, failures, group_time, group_n = [], [], [], {}, {}
    counts_prefix = None
    signal.signal(signal.SIGALRM, _on_alarm)
    tr.reset_counts()
    t0 = perf()
    c_before = cal.samples(1)
    r = 0
    while True:
        for item in wl.round(r):
            tr.item = len(times)
            s = perf()
            signal.setitimer(signal.ITIMER_REAL, ITEM_TIMEOUT_S)
            try:
                ok = tr.root("bench.item", item.call)
                why = None if ok else "output check failed"
            except Exception as exc:  # an item that raises counts as failed
                ok, why = False, f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            dt = perf() - s
            c_after = cal.samples(5 if dt > LONG_ITEM_S else 1)
            t_ref = dt * CAL_REF_S / statistics.median(c_before + c_after)
            c_before = c_after
            times.append(t_ref)
            raw.append(dt)
            group_time[item.group] = group_time.get(item.group, 0.0) + t_ref
            group_n[item.group] = group_n.get(item.group, 0) + 1
            if not ok:
                failures.append({"item": item.name, "why": why})
        r += 1
        if r == wl.min_rounds:
            counts_prefix = tr.snapshot()
        if rounds is not None:
            if r >= rounds:
                break
        elif r >= wl.min_rounds and perf() - t0 >= seconds:
            break
    tr.item = -1
    return {
        "rounds": r,
        "elapsed_s": perf() - t0,
        "times": times,
        "raw_times": raw,
        "failures": failures,
        "group_time_s": group_time,
        "group_items": group_n,
        "counts_prefix": counts_prefix,
        "counts_all": tr.snapshot(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _rates(times) -> dict:
    # fewer than 100 items (exact-large) leave < 10 beyond p90: there it is
    # an order statistic of the fixed item list, not a tail estimate
    return {"items_per_s": len(times) / sum(times), "item_p50_s": statistics.median(times),
            "item_p90_s": statistics.quantiles(times, n=10, method="inclusive")[-1]}


def end_to_end(phase, setup_samples):
    """The end-to-end metrics of BENCHMARK.json, times in reference seconds."""
    rates = _rates(phase["times"])
    return {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "items_per_s": _metric(rates["items_per_s"], "1/s"),
        "item_p50_s": _metric(rates["item_p50_s"], "s"),
        "item_p90_s": _metric(rates["item_p90_s"], "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _write_details(path: Path, doc: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _details_path(args) -> Path:
    if args.details:
        return Path(args.details)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    return OUT_DIR / args.workload / f"seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"


def _print_table(workload, metrics, attempted, failed):
    print(f"workload {workload}: {attempted} items attempted, "
          f"failed_frac {failed / attempted:.6g} (ratio)")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")


def untraced(args) -> int:
    setup_samples = [] if args.details else probe_setup(args)
    t_main = time.perf_counter()
    tr, wl = setup(args.workload, args.seed, "count")
    main_setup = time.perf_counter() - t_main
    phase = run_items(tr, wl, args.seconds, None)
    n, failed = len(phase["times"]), len(phase["failures"])
    metrics = end_to_end(phase, setup_samples or [main_setup])
    doc = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": 0, "metrics": metrics,
        "raw_wall_time": _rates(phase["raw_times"]), "rounds": phase["rounds"],
        "elapsed_s": phase["elapsed_s"],
        "attempted": n, "failed": failed, "failed_frac": failed / n,
        "failures": phase["failures"][:50], "count_rounds": wl.min_rounds,
        "counts": phase["counts_prefix"], "counts_all_rounds": phase["counts_all"],
        "group_items": phase["group_items"], "group_time_s": phase["group_time_s"],
        "setup_samples_s": setup_samples, "main_setup_s": main_setup,
        "missing_layers": tr.missing, "machine": _machine(),
    }
    _write_details(_details_path(args), doc)
    _print_table(args.workload, metrics, n, failed)
    for f in phase["failures"][:10]:
        print(f"  FAILED {f['item']}: {f['why']}")
    if not args.details:
        print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                          "metrics": metrics}))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Traced run

# Spans whose call count is reported besides their self time.
COUNTED = {
    "graph.endpoint_arrays", "randomness.at", "randomness.sequential_draws",
    "dynamics.percolate", "dynamics.components", "dynamics.sw_step",
    "dynamics.iv_step", "dynamics.msw_step_alt", "dynamics.glauber_step",
    "dynamics.block_step", "ising.gibbs_exact", "ising.conditional_marginal",
    "ising.enumerate_up_sets", "exact.transition_matrix.sw",
    "exact.transition_matrix.iv", "exact.transition_matrix.msw",
    "exact.transition_matrix.glauber", "exact.transition_matrix.block",
    "ssm.assm_check",
}
SPANS = (
    "graph.endpoint_arrays", "graph.sphere", "graph.generate",
    "randomness.at", "randomness.sequential_draws",
    "dynamics.percolate", "dynamics.components", "dynamics.sw_step",
    "dynamics.iv_step", "dynamics.msw_step_alt", "dynamics.glauber_step",
    "dynamics.block_step", "dynamics.run_chain",
    "ising.gibbs_exact", "ising.conditional_marginal", "ising.enumerate_up_sets",
    "ising.stochastically_dominates",
    "coupling.coupling_time", "coupling.monotonicity_audit",
    "exact.transition_matrix.sw", "exact.transition_matrix.iv",
    "exact.transition_matrix.msw", "exact.transition_matrix.glauber",
    "exact.transition_matrix.block", "exact.spectral_report",
    "exact.tv_mixing_time", "exact.verify_decompositions", "exact.joint_space",
    "exact.marked_space", "exact.censoring_order_holds", "exact.censored_dominance",
    "ssm.find_assm_radius", "ssm.assm_check",
)


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tr, spans, counts, traced_rate, untraced_rate) -> dict:
    """Every per-layer metric of BENCHMARK.json, in its order."""
    import numpy as np
    import tracer
    bench = tr.names.index("bench.item") if "bench.item" in tr.names else -1
    workload_spans = spans["item"] >= -1          # set-up and items, not the CLI
    layers = tracer.layer_times(spans, workload_spans)
    cli = tracer.layer_times(spans, spans["item"] == -2)
    out = {}
    for name in SPANS:
        calls, self_s = layers.get(name, (0, 0.0))
        if name in COUNTED:
            out[name + ".calls"] = _metric(calls, "count")
        out[name + ".self_s"] = _metric(self_s, "s")
        if name == "randomness.sequential_draws":
            out["randomness.draws_generated"] = _metric(
                counts.get("randomness.draws_generated", 0), "count")
            out["randomness.draws_per_step"] = _metric(_ratio(
                counts.get("randomness.draws_generated", 0),
                counts.get("randomness.draw_objects", 0)), "draws/step")
            out["randomness.draws_used_ratio"] = _metric(_ratio(
                counts.get("randomness.draws_read", 0),
                counts.get("randomness.draws_generated", 0)), "ratio")
        elif name == "ising.gibbs_exact":
            out["ising.gibbs_exact.distinct_ratio"] = _metric(_ratio(
                counts.get("ising.gibbs_exact.distinct", 0),
                counts.get("ising.gibbs_exact.calls", 0)), "ratio")
        elif name == "coupling.coupling_time":
            out["coupling.steps_total"] = _metric(counts.get("coupling.steps_total", 0), "count")
        elif name == "coupling.monotonicity_audit":
            out["coupling.audit_steps_total"] = _metric(
                counts.get("coupling.audit_steps_total", 0), "count")
        elif name == "exact.transition_matrix.block":
            out["exact.transition_matrix.distinct_ratio"] = _metric(_ratio(
                counts.get("exact.transition_matrix.distinct", 0),
                counts.get("exact.kernel_builds", 0)), "ratio")
        elif name == "exact.censored_dominance":
            out["exact.states_enumerated"] = _metric(
                counts.get("exact.states_enumerated", 0), "count")
    out["ssm.sphere_configs"] = _metric(counts.get("ssm.sphere_configs", 0), "count")
    out["ssm.infeasible"] = _metric(counts.get("ssm.assm_check.raised", 0), "count")
    for cmd in tracer.CLI_COMMANDS:
        out[f"cli.{cmd}.self_s"] = _metric(cli.get("cli." + cmd, (0, 0.0))[1], "s")
    # accounting: layer self times plus the benchmark's own remainder make
    # up the traced item time
    in_items = spans["item"] >= 0
    roots = in_items & (spans["name"] == bench)
    item_time = float(np.sum(spans["end"][roots] - spans["start"][roots]))
    item_layers = tracer.layer_times(spans, in_items)
    bench_self = item_layers.pop("bench.item", (0, 0.0))[1]
    layer_self = sum(v[1] for v in item_layers.values())
    out["trace.slowdown"] = _metric(_ratio(untraced_rate, traced_rate), "ratio")
    out["trace.item_time_s"] = _metric(item_time, "s")
    out["trace.layer_self_s"] = _metric(layer_self, "s")
    out["trace.bench_self_s"] = _metric(bench_self, "s")
    return out


def run_cli(tr, wl):
    """Each matching CLI command once, in-process; returns failures."""
    from click.testing import CliRunner
    import isingdyn.cli
    tr.item = -2
    failures = []
    for cmd, argv, check in wl.cli_calls():
        res = CliRunner().invoke(isingdyn.cli.main, [cmd] + argv)
        try:
            ok = res.exit_code == 0 and check(res.stdout)
        except (ValueError, KeyError, IndexError):
            ok = False
        if not ok:
            failures.append({"item": f"cli {cmd} {' '.join(argv)}",
                             "why": f"exit {res.exit_code}: {res.output[-300:]}"})
    tr.item = -1
    return len(wl.cli_calls()), failures


def traced(args) -> int:
    import numpy as np
    details = _details_path(args)
    twin_path = details.with_name(details.stem + "-untraced.json")
    # the untraced twin: same workload and seed in its own fresh process
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--details", str(twin_path)]
    twin_proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if not twin_path.is_file():
        sys.stderr.write(twin_proc.stdout + twin_proc.stderr)
        raise RuntimeError(f"untraced twin failed with exit {twin_proc.returncode}")
    twin = json.loads(twin_path.read_text())

    tr, wl = setup(args.workload, args.seed, "trace")
    phase = run_items(tr, wl, args.seconds, twin["rounds"])
    failures = list(phase["failures"])
    counts_match = (phase["counts_prefix"] == twin["counts"]
                    and phase["counts_all"] == twin["counts_all_rounds"])
    if not counts_match:
        failures.append({"item": "exact counts", "why": "traced and untraced counts differ"})
    n_cli, cli_failures = run_cli(tr, wl)
    failures += cli_failures
    spans = tr.span_arrays()
    traced_rate = len(phase["times"]) / sum(phase["times"])
    untraced_rate = twin["metrics"]["items_per_s"]["value"]
    metrics = per_layer(tr, spans, phase["counts_all"], traced_rate, untraced_rate)
    attempted = len(phase["times"]) + n_cli + 1   # + the exact-count comparison
    doc = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": 1, "metrics": metrics,
        "attempted": attempted, "failed": len(failures), "failures": failures[:50],
        "rounds": phase["rounds"], "counts": phase["counts_prefix"],
        "counts_all_rounds": phase["counts_all"], "counts_match_untraced": counts_match,
        "traced_items_per_s": traced_rate, "untraced_items_per_s": untraced_rate,
        "untraced_details": twin_path.name, "spans": len(spans["start"]),
        "group_items": phase["group_items"], "group_time_s": phase["group_time_s"],
        "machine": _machine(),
    }
    _write_details(details, doc)
    np.savez_compressed(details.with_suffix(".spans.npz"), **spans)
    _print_table(args.workload, metrics, attempted, len(failures))
    for f in failures[:10]:
        print(f"  FAILED {f['item']}: {f['why']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_VARS:  # before numpy loads
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(BENCH_DIR))
    _import_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail_usage(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.probe:
        setup(args.workload, args.seed, "count")
        print("ready", flush=True)
        print(Calibration().median())
        return 0
    return traced(args) if args.trace else untraced(args)


if __name__ == "__main__":
    sys.exit(main())
