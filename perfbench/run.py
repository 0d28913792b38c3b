#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source, runs one (or
every) workload, checks its outputs and prints every metric.

    python3 perfbench/run.py --workload road_stationary --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --record-references       # re-record digests

Run from the repository root. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The exit
code is non-zero when any output deviates (digest, exact quality figures,
oracles) or the build fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402  (path set above)
from stats import Metric  # noqa: E402

REFERENCES = os.path.join(HERE, "references.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
# Deterministic per-run figures: identical in every run of one seed, and
# at the reference seed identical to references.json.
EXACT_FIELDS = ("digest", "pcb", "phd", "n_calc")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the measurement binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no simulator sources under %s/src"
                         % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "pabr_perfbench")


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit("perfbench: %s exited with %d"
                         % (workload, proc.returncode))
    return json.loads(proc.stdout)


def exact(run):
    return {k: run[k] for k in EXACT_FIELDS}


def check(raw, references):
    """Correctness verdict. Returns (attempted, failed, problems).

    Attempts are the reference-seed run plus every timed run. A timed run
    fails when its exact figures differ from the first run's (same seed,
    same inputs, so the trajectory must repeat bit for bit; this covers
    traced == untraced) or when its oracles failed. The reference run
    fails when it differs from references.json. At the reference seed the
    first timed run is also compared with its recorded value.
    """
    problems = list(raw["errors"])
    ref_entry = references.get(raw["workload"], {})
    attempts = [("reference", raw["reference"], ref_entry.get("reference"))]
    first = exact(raw["runs"][0])
    for i, run in enumerate(raw["runs"]):
        expected = first
        if i == 0 and raw["seed"] == raw["reference_seed"]:
            expected = ref_entry.get("timed")
        attempts.append(("run %d" % i, run, expected))

    failed = 0
    for label, run, expected in attempts:
        bad = []
        if expected is None:
            bad.append("no recorded reference")
        elif exact(run) != expected:
            bad.append("outputs %s != expected %s" % (exact(run), expected))
        if not run["oracles_ok"]:
            bad.append("oracle: " + run["oracle_error"])
        if bad:
            failed += 1
            problems.append("%s: %s" % (label, "; ".join(bad)))
    layers = raw["layers"]
    for name in ("reservation.max_abs_diff", "audit.violations"):
        if name in layers and layers[name]["value"] != 0:
            problems.append("%s = %r (must be 0)"
                            % (name, layers[name]["value"]))
    return len(attempts), failed, problems


def slice_percentiles(raw):
    """(p50, p95, sample count) of the slice latencies. A run's own slices
    give its percentiles and the median over runs is reported, so one run
    disturbed by other load on the host cannot move the tail; workloads
    whose slices are separate jobs (raw["slice_ms"]) pool them instead."""
    if raw["slice_ms"]:
        pooled = raw["slice_ms"]
        return stats.median(pooled), stats.tail(pooled, 95.0), len(pooled)
    per_run = [r["slice_ms"] for r in raw["runs"]]
    return (stats.median([stats.median(s) for s in per_run]),
            stats.median([stats.tail(s, 95.0) for s in per_run]),
            sum(len(s) for s in per_run))


def end_to_end(raw):
    """The end-to-end metrics of a --trace 0 run."""
    runs = raw["runs"]
    p50, p95, n_slices = slice_percentiles(raw)
    setups = raw["setup_s"] or [r["setup_s"] for r in runs]
    n = len(runs)
    return [
        Metric("sim_s_per_s",
               stats.median([r["sim_s"] / r["wall_s"] for r in runs]),
               "s/s", n),
        Metric("events_per_s",
               stats.median([r["events"] / r["wall_s"] for r in runs]),
               "1/s", n),
        Metric("slice_ms_p50", p50, "ms", n_slices),
        Metric("slice_ms_p95", p95, "ms", n_slices),
        Metric("setup_s", stats.median(setups), "s", len(setups)),
        Metric("peak_rss_mb", raw["peak_rss_mb"], "MB", 1),
        Metric("n_calc", runs[0]["n_calc"], "calc/adm", n),
    ]


def quality(raw, attempted, failed):
    """Exact quality figures, reported with the end-to-end metrics but not
    bounded: P_CB and P_HD are 0 on the torus, and all of them are gated
    bit for bit instead."""
    run = raw["runs"][0]
    return [
        Metric("pcb", run["pcb"], "prob", len(raw["runs"])),
        Metric("phd", run["phd"], "prob", len(raw["runs"])),
        Metric.ratio("failed_frac", failed, attempted),
    ]


def per_layer(raw):
    out = []
    for name, m in raw["layers"].items():
        if m["kind"] == "samples":
            out.append(Metric(name, stats.median(m["samples"]), m["unit"],
                              m["n"]))
        elif m["kind"] == "value":
            out.append(Metric(name, m["value"], m["unit"], m["n"]))
        else:
            out.append(Metric.ratio(name, m["num"], m["base"]))
    return out


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def names(bench, kind):
    return [entry["name"] for entry in bench[kind]]


def report(raw, trace, references, bench):
    attempted, failed, problems = check(raw, references)
    prov = raw["provenance"]
    print("== %s  seed=%d  trace=%d" % (raw["workload"], raw["seed"], trace))
    print("host: hw_concurrency=%d build_type=%s git_sha=%s "
          "PABR_AUDIT=%s PABR_TELEMETRY=%s PABR_FAULT=%s"
          % (prov["hw_concurrency"], prov["build_type"], prov["git_sha"],
             prov["PABR_AUDIT"], prov["PABR_TELEMETRY"], prov["PABR_FAULT"]))
    print("digest %s  (reference seed %d: %s)"
          % (raw["runs"][0]["digest"], raw["reference_seed"],
             raw["reference"]["digest"]))
    if trace:
        metrics = per_layer(raw)
        wanted = names(bench, "per_layer")
    else:
        metrics = end_to_end(raw)
        wanted = names(bench, "end_to_end")
    for m in metrics:
        print("  " + m.text())
    if not trace:
        for m in quality(raw, attempted, failed):
            print("  " + m.text())
    for name, text in raw["notes"].items():
        print("  %-36s %s" % (name, text))
    missing = [name for name in wanted
               if name not in {m.name for m in metrics}]
    if missing:
        problems.append("metrics not measured: " + ", ".join(missing))
    for p in problems:
        print("FAIL: " + p)
    result = {m.name: m.json() for m in metrics if m.name in wanted}
    return not problems, attempted, failed, result


def record_references(binary, workloads, seconds):
    refs = {}
    for workload in workloads:
        raw = run_binary(binary, workload, 1, seconds, 0)
        if raw["reference_seed"] != 1 or raw["errors"]:
            raise SystemExit("perfbench: cannot record %s: %s"
                             % (workload, raw["errors"]))
        refs[workload] = {"reference": exact(raw["reference"]),
                          "timed": exact(raw["runs"][0])}
        print("recorded %s: %s" % (workload, refs[workload]),
              file=sys.stderr)
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true",
                    help="re-record perfbench/references.json at seed 1")
    args = ap.parse_args(argv)

    bench = load_benchmark()
    workloads = names(bench, "workloads")
    seconds = args.seconds or bench["run_seconds"]
    if args.workload != "all" and args.workload not in workloads:
        ap.error("unknown workload %r (one of %s, or all)"
                 % (args.workload, ", ".join(workloads)))
    binary = build()
    if args.record_references:
        record_references(binary, workloads, seconds)
        return 0
    with open(REFERENCES) as f:
        references = json.load(f)

    selected = workloads if args.workload == "all" else [args.workload]
    ok, attempted, failed, metrics = True, 0, 0, {}
    for workload in selected:
        raw = run_binary(binary, workload, args.seed, seconds, args.trace)
        w_ok, w_att, w_fail, w_metrics = report(raw, args.trace, references,
                                                bench)
        ok, attempted, failed = ok and w_ok, attempted + w_att, failed + w_fail
        if len(selected) == 1:
            metrics = w_metrics
        else:
            metrics.update({"%s.%s" % (workload, k): v
                            for k, v in w_metrics.items()})
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
