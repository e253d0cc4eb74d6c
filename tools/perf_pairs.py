#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs.

    python3 tools/perf_pairs.py --parent ../base --change . \\
        --workload cold_mixed --seeds 1-10 --seconds 25 [--json runs.json]

Each seed is one pair: `perfbench/run.py --trace 0` runs once in each
checkout, with the same workload, seed and run length. Even pairs run
the parent first and odd pairs the change first, so drift on a shared
host falls on both sides. Every run's result line is kept (--json).

For every metric that BENCHMARK.json names, the table gives each side's
median and quartiles (linear interpolation between order statistics),
the change's median difference relative to the parent, the pairs the
change won (ties count for neither side) and a verdict:

  gain        the change won at least 9/10 of the pairs and the medians
              differ, in its favour, by more than the parent's
              interquartile range;
  regressed   the change's median is worse than the parent's by more
              than the metric's end-to-end bound;
  unresolved  the runs of either side spread (interquartile range over
              median) wider than the bound, so "within bound" cannot be
              told, unless every change run reads better than every
              parent run;
  within      no gain, and no worse than the bound;
  -           a per-layer metric (no bound) that is not a gain.

A run that is not `correct`, fails ops or exits non-zero is reported
and makes the script exit 1. So does a checkout whose
.bench_build/perfbench was configured from another tree's perfbench/
(a copy made with its build directory, e.g. by `cp -a`): perfbench
reuses an existing CMake cache, so that checkout would build and
measure the other tree. Run it on an otherwise idle machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GAIN_SHARE = 0.9


def parse_seeds(text):
    """'1-10' or '1,3,7' or '1-5,11' -> list of ints."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def quartiles(xs):
    """(q1, median, q3) by linear interpolation (numpy's default)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "correct": False, "metrics": {}}
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def foreign_build(checkout):
    """The CMake cache path if `checkout`'s perfbench build was configured
    from another source tree, else None."""
    cache = os.path.join(checkout, ".bench_build", "perfbench",
                         "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                home = line.split("=", 1)[1].strip()
                own = os.path.join(checkout, "perfbench")
                if os.path.realpath(home) != os.path.realpath(own):
                    return cache
                return None
    return None


def value(r, name):
    """A metric's value from one result line, or None if absent."""
    m = r["metrics"].get(name)
    return None if m is None else m["value"]


def run_ok(r):
    return r["exit"] == 0 and r.get("correct") and r.get("failed", 0) == 0


def verdict(parent, change, better, bound):
    """Returns (wins, verdict) for one metric's paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    # gap > 0 means the change reads better.
    gaps = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(1 for g in gaps if g > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if wins >= GAIN_SHARE * len(gaps) and sign * (pm - cm) > p3 - p1:
        return wins, "gain"
    if bound is None:
        return wins, "-"
    if pm == 0:
        return wins, "within" if cm == 0 else "unresolved"
    if sign * (cm - pm) / abs(pm) > bound:
        return wins, "regressed"
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return wins, "unresolved"
    return wins, "within"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,9")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"),
                    help="metric directions and bounds")
    ap.add_argument("--json", help="write every run's result here")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    metrics = [(m["name"], m["unit"], m["better"], m.get("bound"))
               for m in bench["end_to_end"] + bench["per_layer"]]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    for side, checkout in sides.items():
        cache = foreign_build(checkout)
        if cache:
            sys.stderr.write(
                "%s checkout %s: %s was configured from another tree's "
                "perfbench/; delete %s and rerun\n"
                % (side, checkout, cache, os.path.dirname(cache)))
            return 1

    runs = {"parent": [], "change": []}
    seeds = parse_seeds(args.seeds)
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r = run_once(sides[side], args.workload, seed, args.seconds)
            r["seed"] = seed
            runs[side].append(r)
            sys.stderr.write("pair %d/%d seed %d %s: %s cpu_us_per_op=%s\n" % (
                i + 1, len(seeds), seed, side,
                "ok" if run_ok(r) else "FAILED",
                value(r, "cpu_us_per_op")))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "seeds": seeds, "checkouts": sides, "runs": runs},
                      f, indent=1)

    bad = [(side, r["seed"]) for side in runs for r in runs[side]
           if not run_ok(r)]
    print("## %s: %d pairs, --seconds %d, seeds %s"
          % (args.workload, len(seeds), args.seconds, args.seeds))
    print()
    print("| metric | parent median (q1-q3) | change median (q1-q3) "
          "| change | pairs won | verdict |")
    print("|---|---|---|---|---|---|")
    for name, unit, better, bound in metrics:
        pairs = [(value(p, name), value(c, name))
                 for p, c in zip(runs["parent"], runs["change"])]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        wins, v = verdict(parent, change, better, bound)
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        rel = "%+.1f%%" % (100.0 * (cm - pm) / abs(pm)) if pm else "n/a"
        print("| `%s` (%s) | %.4g (%.4g-%.4g) | %.4g (%.4g-%.4g) | %s "
              "| %d/%d | %s |" % (name, unit, pm, p1, p3, cm, c1, c3, rel,
                                  wins, len(pairs), v))
    if bad:
        print()
        print("failed runs: " + ", ".join("%s seed %d" % b for b in bad))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
