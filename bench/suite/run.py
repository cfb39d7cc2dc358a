#!/usr/bin/env python3
"""wastesim benchmark suite: build, run every workload, check, report.

Run from the repository root:

  python3 bench/suite/run.py [--seed S] [--reps N] [--smoke]
      Full suite: N interleaved reps of every workload (w1 w2 w3 w4,
      w1 w2 ...), one traced pass per workload, the layer drivers.
      Prints every metric by name and unit (median, p25, p75, n) and
      writes build-bench/results/suite-<time>.json.  --smoke runs tiny
      inputs and checks the emitted names against BENCHMARK.json.

  python3 bench/suite/run.py --workload NAME --seed S --seconds T --trace 0|1
      One benchmark run: as many whole passes of NAME as fit in T
      seconds (at least one).  --trace 0 reports the end-to-end
      metrics, --trace 1 the per-layer ones (untraced and traced pass
      pairs plus the layer drivers).

  python3 bench/suite/run.py --build-only

Every pass is a fresh single-threaded driver process.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The exit code is nonzero when any cell failed.
"""

import argparse
import collections
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
OUT = ROOT / "build-bench"
BUILD = OUT / "build"
DRIVER = BUILD / "suite_driver"
GOLDEN = ROOT / "tests" / "golden" / "wastesim_sweep_4x4.cache"
WORKLOADS = ["paper_grid", "mesh16_fft", "hotset_rw", "stream_dram"]
SPAN_NAMES = {"workload.gen", "system.build", "system.run",
              "check.invariants", "check.golden"}
# A benchmark run must end within 180 s once the driver is built.
RUN_DEADLINE_S = 170


def die(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


# --- build ------------------------------------------------------------------

def build():
    """Configure (once) and build the driver; the library comes from
    the checkout's own sources via bench/suite/CMakeLists.txt."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die("no wastesim sources at %s (CMakeLists.txt, src/)" % ROOT)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "suite_driver",
                  "-j", str(os.cpu_count() or 1)])
    log = OUT / "build.log"
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                die("build failed (full log: %s)" % log, 1)


# --- driver processes -------------------------------------------------------

def run_driver(args, timeout):
    """Run the driver; returns (exit code or None, JSON lines, stderr)."""
    try:
        p = subprocess.run([str(DRIVER)] + args, capture_output=True,
                           text=True, timeout=max(timeout, 1))
        out, err, rc = p.stdout, p.stderr, p.returncode
    except subprocess.TimeoutExpired as e:
        out, err, rc = e.stdout or "", "timed out after %ds" % timeout, None
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            pass
    return rc, lines, err


def run_pass(workload, seed, smoke, timeout, reference=None,
             save_cells=None, trace_dir=None):
    """One driver pass.  A crashed pass comes back with all its cells
    failed (the count from the driver's plan line)."""
    args = ["pass", "--workload", workload, "--seed", str(seed)]
    if smoke:
        args.append("--smoke")
    for flag, value in (("--reference", reference),
                        ("--save-cells", save_cells),
                        ("--trace-dir", trace_dir)):
        if value:
            args += [flag, str(value)]
    rc, lines, err = run_driver(args, timeout)
    plans = [l["plan"] for l in lines if "plan" in l]
    if rc == 0 and lines and "plan" not in lines[-1]:
        return lines[-1]
    cells = plans[0]["cells"] if plans else 1
    why = "driver exit %s: %s" % (rc, (err.strip().splitlines() or [""])[-1])
    return {"workload": workload, "crashed": True, "cells": cells,
            "failed_cells": cells, "failures": [why]}


def run_layers(smoke, timeout):
    rc, lines, err = run_driver(["layers"] + (["--smoke"] if smoke else []),
                                timeout)
    if rc != 0 or not lines or "layers" not in lines[-1]:
        return None, "layer drivers failed (exit %s): %s" % (rc, err.strip())
    return {k: v["value"] for k, v in lines[-1]["layers"].items()}, None


def reference_for(workload, seed, smoke):
    """paper_grid checks against the golden cache; the other workloads
    check their traced pass against an untraced pass of the same run."""
    if workload == "paper_grid":
        return GOLDEN
    cells = OUT / "cells"
    cells.mkdir(parents=True, exist_ok=True)
    return cells / ("%s-seed%d%s.cache" % (workload, seed,
                                           "-smoke" if smoke else ""))


def untraced_pass(workload, seed, smoke, timeout, first):
    """paper_grid is byte-checked against the golden cache on every
    pass; the first pass of another workload saves its cells as the
    reference of the traced pass."""
    if workload == "paper_grid":
        return run_pass(workload, seed, smoke, timeout, reference=GOLDEN)
    save = reference_for(workload, seed, smoke) if first else None
    return run_pass(workload, seed, smoke, timeout, save_cells=save)


def traced_pass(workload, seed, smoke, timeout):
    trace_dir = OUT / "trace" / workload
    shutil.rmtree(trace_dir, ignore_errors=True)
    return run_pass(workload, seed, smoke, timeout,
                    reference=reference_for(workload, seed, smoke),
                    trace_dir=trace_dir)


def check_digests(passes):
    """Every pass of one (workload, seed) must produce the same results
    digest; the cells of a pass that disagrees with the majority fail."""
    good = [p for p in passes if not p.get("crashed")]
    if not good:
        return None
    digest = collections.Counter(p["digest"] for p in good).most_common(1)[0][0]
    for p in good:
        if p["digest"] != digest:
            p["failed_cells"] = p["cells"]
            p["failures"].append("digest %s differs from %s"
                                 % (p["digest"], digest))
    return digest


def check_trace(trace_dir, cells):
    """The traced pass must leave a valid Chrome trace holding the five
    span names under every cell span, and sampler JSON per cell."""
    try:
        doc = json.loads((trace_dir / "spans.json").read_text())
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        ids = {e["args"]["span"]: e for e in spans}
        names = collections.defaultdict(set)
        for e in spans:
            if e["name"] in SPAN_NAMES:
                parent = ids[e["args"]["parent"]]
                if parent["name"] != "cell" or \
                        parent["args"]["cell"] != e["args"]["cell"]:
                    return "span %s has no cell parent" % e["name"]
                names[e["args"]["cell"]].add(e["name"])
        if len(names) != cells or any(n != SPAN_NAMES for n in names.values()):
            return "trace lacks the five spans for each of %d cells" % cells
        samples = list((trace_dir / "samples").glob("*.json"))
        if len(samples) != cells:
            return "expected %d sampler files, found %d" % (cells, len(samples))
        for f in samples:
            if not json.loads(f.read_text()).get("windows"):
                return "sampler file %s has no windows" % f.name
    except (OSError, ValueError, KeyError) as e:
        return "bad trace output: %s" % e
    return None


# --- metrics ----------------------------------------------------------------

def end_to_end(passes):
    """Per-pass end-to-end values of the passes that completed."""
    good = [p for p in passes if not p.get("crashed")]
    return {
        "run_s": [p["run_s"] for p in good],
        "ops_per_s": [p["ops"] / p["run_s"] for p in good],
        "setup_s": [p["setup_s"] for p in good],
        "peak_rss_mb": [p["peak_rss_mb"] for p in good],
    }


def per_layer(workload, untraced, traced, layers):
    """Counts of the first untraced pass, medians of the timings, the
    layer drivers, and the estimates built from them."""
    good = [p for p in untraced if not p.get("crashed")]
    m = dict(good[0]["counts"])
    run_s = statistics.median(p["run_s"] for p in good)
    rss_mb = statistics.median(p["peak_rss_mb"] for p in good)
    m["sim.ns_per_event"] = run_s * 1e9 / m["sim.events"]
    m["workload.gen_s"] = statistics.median(p["gen_s"] for p in good)
    m["system.build_s"] = statistics.median(p["build_s"] for p in good)
    m["system.check_s"] = statistics.median(p["check_s"] for p in good)
    m.update(layers)
    # Estimates from outside the program: count x driver ns/op / run_s.
    mesh = "16x16" if workload == "mesh16_fft" else "4x4"
    m["noc.est_share"] = (m["noc.messages"] * layers["noc.send_op_ns." + mesh]
                          * 1e-9 / run_s)
    reqs = m["dram.reads"] + m["dram.writes"]
    hit = min(1.0, good[0]["dram_row_hits"] / reqs) if reqs else 0.0
    req_ns = (hit * layers["dram.req_ns.row_hit"]
              + (1 - hit) * layers["dram.req_ns.row_miss"])
    m["dram.est_share"] = reqs * req_ns * 1e-9 / run_s
    m["profile.est_share"] = (m["profile.mem_instances"]
                              * layers["profile.mem_inst_op_ns"] * 1e-9 / run_s)
    # Cells run one after another, so the largest cell's arena is the
    # most that is resident at once.
    m["profile.est_rss_share"] = (good[0]["max_cell_instances"]
                                  * layers["profile.mem_bytes_per_inst"]
                                  / (rss_mb * 2 ** 20))
    traced_s = [p["run_s"] for p in traced if not p.get("crashed")]
    if traced_s:
        m["obs.trace_overhead_frac"] = statistics.median(traced_s) / run_s - 1
    return m


def summary(values):
    """(median, p25, p75, n) of a list of samples."""
    if len(values) >= 2:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return statistics.median(values), p25, p75, len(values)


def units(spec):
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# --- host -------------------------------------------------------------------

def host_fingerprint(seed, reps):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    # Only a repository rooted at this checkout names its revision.
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True).stdout.split()
        sha = out[1] if len(out) == 2 and Path(out[0]) == ROOT else ""
    except OSError:
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": compiler,
        "compiler_version": version,
        # The suite's CMakeLists defaults an empty build type to the
        # root project's RelWithDebInfo.
        "build_type": cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
        "git_sha": sha or "unknown",
        "seed": seed,
        "reps": reps,
    }


def write_result(name, doc):
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / name
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def print_metric(prefix, name, unit, values):
    med, p25, p75, n = summary(values)
    line = "%-12s %-36s %14.6g %-9s" % (prefix, name, med, unit)
    if n > 1:
        line += " p25 %-12.6g p75 %-12.6g n=%d" % (p25, p75, n)
    print(line)


def assess(w, untraced, traced, layers):
    """Checks and metrics of one workload's passes: digests agree, every
    cell passed, the trace is complete; metric name -> sample list."""
    digest = check_digests(untraced + traced)
    passes = untraced + traced
    attempted = sum(p["cells"] for p in passes)
    failed = sum(p["failed_cells"] for p in passes)
    failures = ["%s: %s" % (w, f) for p in passes for f in p["failures"]]
    if traced and not traced[-1].get("crashed"):
        err = check_trace(OUT / "trace" / w, traced[-1]["cells"])
        if err:
            failures.append("%s: %s" % (w, err))
            attempted, failed = attempted + 1, failed + 1
    metrics = {k: v for k, v in end_to_end(untraced).items() if v}
    good = [p for p in untraced if not p.get("crashed")]
    if traced and good and layers is not None:
        for k, v in per_layer(w, untraced, traced, layers).items():
            metrics[k] = [v]
    return {"digest": digest, "attempted": attempted, "failed": failed,
            "failures": failures, "metrics": metrics,
            "paper_err_pp": good[0].get("paper_err_pp") if good else None}


def print_assessment(w, a, unit):
    for name, values in a["metrics"].items():
        print_metric(w, name, unit[name], values)
    if a["paper_err_pp"] is not None:
        print("%-12s %-36s %14.6g %-9s mean |measured - paper| over the "
              "headline rows" % (w, "paper_err_pp", a["paper_err_pp"], "pp"))
    print("%-12s %-36s %14.6g %-9s %d/%d cells, digest %s"
          % (w, "fail_frac", a["failed"] / a["attempted"], "fraction",
             a["failed"], a["attempted"], a["digest"]))


def timed_passes(run_one, seconds, deadline):
    """Call run_one(timeout) for as many whole passes as fit in
    `seconds` (at least one), never past `deadline`."""
    out, start = [], time.monotonic()
    while True:
        out.append(run_one(deadline - time.monotonic()))
        if out[-1].get("crashed"):
            return out
        now = time.monotonic()
        took = (now - start) / len(out)
        if now - start + took > seconds or now + took > deadline:
            return out


# --- one benchmark run (--workload) -----------------------------------------

def single_run(args, spec):
    w, seed = args.workload, args.seed
    if w not in WORKLOADS:
        die("unknown workload %r (one of %s)" % (w, ", ".join(WORKLOADS)))
    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    untraced, traced, layers, extra = [], [], None, []
    if args.trace == 0:
        untraced = timed_passes(
            lambda t: untraced_pass(w, seed, False, t, not untraced),
            args.seconds, deadline)
        wanted = spec["end_to_end"]
    else:
        def pair(timeout):
            untraced.append(untraced_pass(w, seed, False, timeout,
                                          not untraced))
            traced.append(traced_pass(w, seed, False,
                                      deadline - time.monotonic()))
            return traced[-1]

        # Whole untraced/traced pairs, leaving time for the layer drivers.
        timed_passes(pair, args.seconds, deadline - 30)
        layers, err = run_layers(False, deadline - time.monotonic())
        if err:
            extra.append(err)
        wanted = spec["per_layer"]

    a = assess(w, untraced, traced, layers)
    a["failures"] += extra
    a["attempted"] += len(extra)
    a["failed"] += len(extra)
    unit = units(spec)
    names = [m["name"] for m in wanted]
    a["metrics"] = {k: a["metrics"][k] for k in names if k in a["metrics"]}
    print_assessment(w, a, unit)
    for f in a["failures"]:
        print("FAIL " + f)
    result = {
        "correct": a["failed"] == 0 and len(a["metrics"]) == len(names),
        "attempted": a["attempted"],
        "failed": a["failed"],
        "metrics": {k: {"value": statistics.median(v), "unit": unit[k]}
                    for k, v in a["metrics"].items()},
    }
    write_result("%s-seed%d-trace%d.json" % (w, seed, args.trace), {
        "host": host_fingerprint(seed, len(untraced)), "workload": w,
        "trace": args.trace, "digest": a["digest"],
        "failures": a["failures"], "passes": untraced + traced,
        "result": result})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# --- the whole suite --------------------------------------------------------

def suite_run(args, spec):
    build()
    smoke, seed = args.smoke, args.seed
    reps = args.reps or (2 if smoke else 5)
    unit = units(spec)
    untraced = {w: [] for w in WORKLOADS}
    for rep in range(reps):
        for w in WORKLOADS:
            untraced[w].append(untraced_pass(w, seed, smoke, RUN_DEADLINE_S,
                                             rep == 0))
    traced = {w: [traced_pass(w, seed, smoke, RUN_DEADLINE_S)]
              for w in WORKLOADS}
    layers, layer_err = run_layers(smoke, RUN_DEADLINE_S)

    failures = [layer_err] if layer_err else []
    attempted = failed = len(failures)
    report = {}
    for w in WORKLOADS:
        a = assess(w, untraced[w], traced[w], layers)
        print_assessment(w, a, unit)
        attempted += a["attempted"]
        failed += a["failed"]
        failures += a["failures"]
        rows = {}
        for name, values in a["metrics"].items():
            med, p25, p75, n = summary(values)
            rows[name] = {"value": med, "p25": p25, "p75": p75, "n": n,
                          "unit": unit[name]}
        report[w] = {"digest": a["digest"], "metrics": rows,
                     "paper_err_pp": a["paper_err_pp"],
                     "fail_frac": a["failed"] / a["attempted"]}

    if smoke:
        # Every declared name is emitted for every workload, and only those.
        for w, r in report.items():
            emitted = set(r["metrics"])
            bad = ["%s emits undeclared %s" % (w, n)
                   for n in sorted(emitted - set(unit))]
            bad += ["%s does not emit %s" % (w, n)
                    for n in sorted(set(unit) - emitted)]
            failures += bad
            attempted, failed = attempted + 1, failed + bool(bad)
    for f in failures:
        print("FAIL " + f)

    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    path = write_result(
        "suite-%s%s.json" % (stamp, "-smoke" if smoke else ""),
        {"host": host_fingerprint(seed, reps), "smoke": smoke,
         "failures": failures, "workloads": report})
    print("result written to %s" % path.relative_to(ROOT))
    e2e = [m["name"] for m in spec["end_to_end"]]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {w: {k: r["metrics"][k] for k in e2e
                                      if k in r["metrics"]}
                                  for w, r in report.items()}}))
    return 0 if failed == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="run one workload (benchmark run)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time of one run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=None,
                    help="suite reps per workload (default 5, smoke 2)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--build-only", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    if args.build_only:
        build()
        return 0
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload:
        return single_run(args, spec)
    return suite_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
