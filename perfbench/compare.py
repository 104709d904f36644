#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or report how steady one set is.

    python3 perfbench/compare.py steady RUNS.jsonl
    python3 perfbench/compare.py diff PARENT.jsonl CHANGE.jsonl

A set of runs is a file that `perfbench/run.py --record FILE` appended to,
one JSON line per run. Metrics, units, directions and bounds come from
BENCHMARK.json. Untraced runs feed the end-to-end tables; traced runs are
listed with their per-layer medians.

`steady` prints, per workload and end-to-end metric, the median, the
quartiles and the spread (distance between the quartiles over the median)
against the metric's bound, the same figures for the unbounded accuracy,
failure and tail figures of the INFO record, and checks that runs with the
same seed agree exactly on the figures that must repeat.

`diff` prints, per workload and end-to-end metric, both sides' medians and
quartiles, the pairs the change won and a verdict:
  improved    the change wins at least 9/10 of the pairs (ties count for
              neither; at least 10 pairs) and the medians differ by more
              than the parent's quartile distance;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's spread is wider than the bound, and not every
              change run reads better than every parent run;
  no worse    otherwise.
Runs pair up by seed when both sides used the same seeds, else in order.
The exit code is 1 when any verdict is `worse`.
"""
import json
import pathlib
import statistics
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPEATS = ("within_e_frac", "abs_err_over_e_mean", "jobs_per_query")
UNBOUNDED = ("within_e_frac", "abs_err_over_e_mean", "failed_frac", "query_ms_tail",
             "heap_peak_mb", "heap_retained_mb")


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def load_runs(path):
    runs = defaultdict(lambda: {0: [], 1: []})
    for line in pathlib.Path(path).read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            runs[r["workload"]][r["trace"]].append(r)
    return runs


def value(run, name):
    """A metric of the result, else a figure of the run's INFO record."""
    m = run["result"]["metrics"].get(name)
    return m["value"] if m else run["info"].get(name)


def values(runs, name):
    return [v for v in (value(r, name) for r in runs) if v is not None]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else float("inf")


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def steady(path):
    e2e, per_layer = load_spec()
    runs = load_runs(path)
    ok = True
    for wl in sorted(runs):
        untraced, traced = runs[wl][0], runs[wl][1]
        if untraced:
            print(f"\n{wl}: {len(untraced)} untraced runs")
            print(f"  {'metric':24} {'unit':>8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
            for m in e2e:
                xs = values(untraced, m["name"])
                if not xs:
                    print(f"  {m['name']:24} missing")
                    ok = False
                    continue
                q1, med, q3 = quartiles(xs)
                s = spread(xs)
                if s <= m["bound"] / 3:
                    verdict = "steady"
                elif s <= m["bound"]:
                    verdict = "within bound"
                else:
                    verdict, ok = "TOO WIDE", False
                print(f"  {m['name']:24} {m['unit']:>8} {med:12.4f} {q1:12.4f} {q3:12.4f} {s:7.3f} {m['bound']:6.2f}  {verdict}")
            for name in UNBOUNDED:
                xs = values(untraced, name)
                if xs:
                    q1, med, q3 = quartiles(xs)
                    print(f"  {name:24} {'':>8} {med:12.4f} {q1:12.4f} {q3:12.4f} {'':7} {'':6}  not bounded")
            by_seed = defaultdict(list)
            for r in untraced:
                by_seed[r["seed"]].append(r)
            for seed, rs in sorted(by_seed.items()):
                for name in REPEATS:
                    vs = {json.dumps(x) for x in values(rs, name)}
                    if len(vs) > 1:
                        print(f"  seed {seed}: {name} differs between runs: {sorted(vs)}")
                        ok = False
        if traced:
            print(f"\n{wl}: {len(traced)} traced runs (per-layer medians)")
            for m in per_layer:
                xs = values(traced, m["name"])
                if xs:
                    print(f"  {m['name']:30} {statistics.median(xs):12.4f} {m['unit']}")
    return 0 if ok else 1


def pairs(parent, change):
    ps = {r["seed"]: r for r in parent}
    cs = {r["seed"]: r for r in change}
    if len(ps) == len(parent) and len(cs) == len(change) and set(ps) == set(cs):
        return [(ps[s], cs[s]) for s in sorted(ps)]
    return list(zip(parent, change))


def diff(parent_path, change_path):
    e2e, _ = load_spec()
    parent, change = load_runs(parent_path), load_runs(change_path)
    any_worse = False
    for wl in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent[wl][0], change[wl][0]
        if not p_runs or not c_runs:
            print(f"\n{wl}: runs on one side only")
            continue
        print(f"\n{wl}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        print(f"  {'metric':22} {'unit':>8} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'won':>7}  verdict")
        for m in e2e:
            name, d, bound = m["name"], m["better"], m["bound"]
            ps, cs = values(p_runs, name), values(c_runs, name)
            if not ps or not cs:
                continue
            pq, cq = quartiles(ps), quartiles(cs)
            pr = [(value(a, name), value(b, name)) for a, b in pairs(p_runs, c_runs)]
            won = sum(better(c, p, d) for p, c in pr)
            worse_by = (cq[1] - pq[1]) if d == "lower" else (pq[1] - cq[1])
            if len(pr) >= 10 and won >= 0.9 * len(pr) and abs(cq[1] - pq[1]) > pq[2] - pq[0]:
                verdict = "improved"
            elif worse_by > bound * abs(pq[1]):
                verdict, any_worse = "worse", True
            elif spread(ps) > bound and not all(better(c, p, d) for c in cs for p in ps):
                verdict = "unresolved"
            else:
                verdict = "no worse"
            fmt = lambda q: f"{q[0]:.3f}/{q[1]:.3f}/{q[2]:.3f}"
            print(f"  {name:22} {m['unit']:>8} {fmt(pq):>32} {fmt(cq):>32} {won:>3}/{len(pr):<3}  {verdict}")
    return 1 if any_worse else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "steady":
        return steady(argv[2])
    if len(argv) == 4 and argv[1] == "diff":
        return diff(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
