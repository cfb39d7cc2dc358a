#!/usr/bin/env python3
"""A/B two revisions with the benchmark suite.

  python3 bench/suite/ab.py BASE HEAD

Both revisions are extracted with `git archive` into
build-bench/ab/{base,head}-<sha>/, and this checkout's bench/suite and
BENCHMARK.json are installed into both, so the two sides run identical
benchmark code.  Each side is built once.  Then 10 pairs are run: pair
i (i = 1..10) runs every workload on both sides with seed i for
BENCHMARK.json's run_seconds, and the side that goes first alternates
from pair to pair.

For every (end-to-end metric, workload) the report gives both medians
and quartiles, the change in the median, the head's win rate over the
pairs (ties count for neither side) and a verdict against the paired
bound below (relative to base's median, with an absolute floor for
setup_s):

  gain          head wins >= 90% of pairs and the medians differ by
                more than the base's own quartile distance
  unresolved    the base's quartile distance exceeds the bound, and not
                every head run beats every base run
  regression    head's median is worse than base's by more than the bound
  within bound  none of the above

It also reports whether the two sides' result digests are identical.
The exit code is 1 when any metric regressed or a run failed.
"""

import argparse
import datetime
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
AB = ROOT / "build-bench" / "ab"
PAIRS = 10
# Paired bounds: (share of base's median, absolute floor).  Tighter than
# BENCHMARK.json's, which must also cover host drift between two
# unpaired sets of runs; alternating pairs cancel most of that drift.
# setup_s is ~10 ms on the synthetic workloads, hence its floor.
BOUNDS = {"run_s": (0.08, 0.0), "ops_per_s": (0.08, 0.0),
          "setup_s": (0.10, 0.02), "peak_rss_mb": (0.05, 0.0)}


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT)] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def prepare(side, rev):
    """Extract @rev, install this benchmark into it, build it."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = AB / ("%s-%s" % (side, sha[:12]))
    if not (tree / "CMakeLists.txt").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        tar = subprocess.run(["tar", "-x", "-C", str(tree)],
                             stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or tar.returncode != 0:
            sys.exit("ab.py: cannot extract %s" % rev)
    shutil.rmtree(tree / "bench" / "suite", ignore_errors=True)
    shutil.copytree(SUITE, tree / "bench" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    print("%s: %s (%s) building ..." % (side, rev, sha[:12]), flush=True)
    if subprocess.run([sys.executable, "bench/suite/run.py", "--build-only"],
                      cwd=tree).returncode != 0:
        sys.exit("ab.py: %s does not build" % rev)
    return tree


def run_once(tree, workload, seed, seconds):
    """One benchmark run; returns (result line, digest)."""
    p = subprocess.run([sys.executable, "bench/suite/run.py", "--workload",
                        workload, "--seed", str(seed), "--seconds",
                        str(seconds), "--trace", "0"],
                       cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(p.stdout.strip().splitlines()[-1])
        detail = json.loads((tree / "build-bench" / "results" /
                             ("%s-seed%d-trace0.json" % (workload, seed)))
                            .read_text())
        return result, detail["digest"]
    except (IndexError, ValueError, OSError):
        return {"correct": False, "metrics": {}}, None


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(pairs, better, bound, floor):
    """Guide rule for one (metric, workload): pairs of (base, head)."""
    base = [b for b, _ in pairs]
    head = [h for _, h in pairs]
    sign = 1 if better == "lower" else -1
    bm, hm = statistics.median(base), statistics.median(head)
    b25, b75 = quartiles(base)
    allowed = max(bound * bm, floor)
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    win_rate = wins / len(pairs)
    all_better = (max(head) < min(base)) if sign > 0 else \
        (min(head) > max(base))
    if win_rate >= 0.9 and abs(hm - bm) > b75 - b25:
        v = "gain"
    elif b75 - b25 > allowed and not all_better:
        v = "unresolved"
    elif sign * (hm - bm) > allowed:
        v = "regression"
    else:
        v = "within bound"
    return {"base": bm, "base_q": [b25, b75], "head": hm,
            "head_q": list(quartiles(head)), "change": (hm - bm) / bm,
            "win_rate": win_rate, "verdict": v}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    trees = {"base": prepare("base", args.base),
             "head": prepare("head", args.head)}

    samples = {}   # (workload, metric) -> [(base, head)]
    digests = {w: [] for w in workloads}
    failed_runs = []
    for i in range(PAIRS):
        seed = i + 1
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for w in workloads:
            got = {}
            for side in order:
                result, digest = run_once(trees[side], w, seed, seconds)
                if not result["correct"]:
                    failed_runs.append("%s %s seed %d" % (side, w, seed))
                got[side] = (result["metrics"], digest)
            digests[w].append(got["base"][1] == got["head"][1])
            for m in spec["end_to_end"]:
                name = m["name"]
                if name in got["base"][0] and name in got["head"][0]:
                    samples.setdefault((w, name), []).append(
                        (got["base"][0][name]["value"],
                         got["head"][0][name]["value"]))
            print("pair %d/%d %s done (%s first)" % (i + 1, PAIRS, w,
                                                     order[0]), flush=True)

    rows = []
    print("\n%-12s %-12s %12s %25s %12s %25s %8s %5s  %s"
          % ("workload", "metric", "base", "[p25, p75]", "head",
             "[p25, p75]", "change", "win", "verdict"))
    for w in workloads:
        for m in spec["end_to_end"]:
            pairs = samples.get((w, m["name"]))
            if not pairs:
                continue
            bound, floor = BOUNDS.get(m["name"], (m["bound"], 0.0))
            r = verdict(pairs, m["better"], bound, floor)
            r.update(workload=w, metric=m["name"], bound=bound, floor=floor)
            rows.append(r)
            print("%-12s %-12s %12.6g %25s %12.6g %25s %+7.2f%% %4.0f%%  %s"
                  % (w, m["name"], r["base"],
                     "[%.6g, %.6g]" % tuple(r["base_q"]), r["head"],
                     "[%.6g, %.6g]" % tuple(r["head_q"]),
                     100 * r["change"], 100 * r["win_rate"], r["verdict"]))
    for w in workloads:
        same = all(digests[w])
        print("%-12s digests %s" % (w, "identical" if same else
                                    "DIFFER in %d of %d pairs"
                                    % (digests[w].count(False), len(digests[w]))))
    for f in failed_runs:
        print("FAILED RUN " + f)

    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    report = AB / ("report-%s.json" % stamp)
    report.write_text(json.dumps({
        "base": args.base, "head": args.head, "pairs": PAIRS,
        "seconds": seconds, "rows": rows,
        "digests_identical": {w: all(d) for w, d in digests.items()},
        "failed_runs": failed_runs}, indent=1) + "\n")
    print("report written to %s" % report.relative_to(ROOT))
    bad = failed_runs or any(r["verdict"] == "regression" for r in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
