"""Summarise benchmark runs: spread per metric, and exact-count identity.

    python3 perfbench/report.py perfbench/out              # one set of runs
    python3 perfbench/report.py SET_A SET_B                 # compare two sets

Reads the per-run detail files that perfbench/run.py writes (untraced runs
only). For every workload and end-to-end metric of BENCHMARK.json it prints
the median, the quartiles and the spread (q3 - q1) / median, using
statistics.quantiles(values, n=4), against the metric's bound. Runs of one
workload with the same seed must show identical exact counts. Given two
sets, it also checks that the second median is not worse than the first by
more than the bound. Exit status 1 when a check fails.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: Path) -> dict:
    runs = defaultdict(list)
    files = [path] if path.is_file() else sorted(path.rglob("*.json"))
    for f in files:
        doc = json.loads(f.read_text())
        if doc.get("trace") == 0 and "metrics" in doc:
            doc["_file"] = str(f)
            runs[doc["workload"]].append(doc)
    return runs


def summarise(runs) -> tuple[dict, bool]:
    ok = True
    medians = {}
    for wl, docs in sorted(runs.items()):
        failed = sum(d["failed"] for d in docs)
        print(f"{wl}: {len(docs)} runs, seeds {sorted(d['seed'] for d in docs)}, "
              f"failed items {failed}")
        ok &= failed == 0
        for m in BENCH["end_to_end"]:
            vals = [d["metrics"][m["name"]]["value"] for d in docs]
            med = statistics.median(vals)
            medians[(wl, m["name"])] = med
            if len(vals) < 2:
                print(f"  {m['name']:<14} median {med:.6g}")
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < m["bound"] / 3 else (
                "WIDE" if spread <= m["bound"] else "FAIL")
            if m["name"] != "setup_s" and verdict == "FAIL":
                ok = False
            print(f"  {m['name']:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} (bound {m['bound']}, {verdict})")
        by_seed = defaultdict(list)
        for d in docs:
            by_seed[d["seed"]].append(d["counts"])
        for seed, counts in sorted(by_seed.items()):
            if len(counts) > 1:
                same = all(c == counts[0] for c in counts)
                ok &= same
                print(f"  seed {seed}: {len(counts)} runs, exact counts "
                      f"{'identical' if same else 'DIFFER'}")
    return medians, ok


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, ok = summarise(load(Path(argv[0])))
    if len(argv) == 2:
        print("-- second set --")
        second, ok2 = summarise(load(Path(argv[1])))
        ok &= ok2
        bounds = {m["name"]: m for m in BENCH["end_to_end"]}
        for key in sorted(first.keys() & second.keys()):
            m = bounds[key[1]]
            a, b = first[key], second[key]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok &= verdict == "ok"
            print(f"{key[0]:<13} {key[1]:<14} {a:<12.6g} -> {b:<12.6g} "
                  f"worse by {worse:+.4f} (bound {m['bound']}, {verdict})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
