#!/usr/bin/env python3
"""End-to-end benchmark of QueryEngine::Run (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the runner (perfbench/e2e.cc) and the engine from source into
.bench_build/perfbench, runs the workload in fresh processes and prints a
table of metrics followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, with every time scaled to a reference host speed
(README.md, "Host-speed normalization"); --trace 1 reports the per-layer
metrics of a traced run. The exit code is non-zero when any op failed or
returned a wrong result, or when the counters of two traced runs of one
seed differ.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SPANS_DIR = ROOT / ".bench_build" / "spans"
BINARY = BUILD_DIR / "n2j_e2e"

# Rounds of the schedule per second of --seconds. A round runs every
# query class of the workload once (write-mix: each read after an
# insert). The rates make a run's timed ops take roughly --seconds on a
# 4-vCPU x86 VM; the op count depends only on --seconds, never on how
# fast the machine is.
ROUNDS_PER_SECOND = {
    "paper-small": 700,
    "paper-large": 22,
    "paper-large-mt2": 20,
    "write-mix": 10,
}
SERIAL = {"paper-small", "paper-large", "write-mix"}
MIN_ROUNDS = 100  # p90 needs 10 samples beyond it
TRACED_ROUNDS = 20
# Set-up repetitions per workload (about 0.1 s on paper-small, 1.5 s on
# the others); setup_s is their median.
SETUPS = {"paper-small": 51, "paper-large": 21, "paper-large-mt2": 21,
          "write-mix": 21}
DEADLINE_S = 170.0  # per workload, after the build


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--parallel", jobs],
    ):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed")


def run_runner(args, t_start):
    left = DEADLINE_S - (time.monotonic() - t_start)
    if left <= 0:
        fail("out of time")
    try:
        proc = subprocess.run([str(BINARY)] + args, cwd=ROOT,
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        fail("runner timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"runner exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def p90(values):
    """Nearest-rank 90th percentile."""
    s = sorted(values)
    return s[math.ceil(0.9 * len(s)) - 1]


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latencies_by_class(res):
    by = {}
    for cls, ms in res["ops"]:
        by.setdefault(cls, []).append(ms)
    return by


def normalized(res):
    """Returns res with every time scaled to the reference host speed.

    Each op's latency and each set-up time is multiplied by the kernel's
    reference time over its time around it: the mean of the bursts just
    before and just after (README.md, "Host-speed normalization").
    """
    ref = res["calibration_ref_ms"]
    bursts = res["calibration"]
    scale = []
    for (start, k0), (end, k1) in zip(bursts, bursts[1:]):
        scale += [2 * ref / (k0 + k1)] * (end - start)
    out = dict(res)
    out["ops"] = [[c, ms * f] for (c, ms), f in zip(res["ops"], scale)]
    out["setup_s"] = [[s * ref / k, k] for s, k in res["setup_s"]]
    return out


def timings(res):
    """ops_per_s, geomean_p50_ms, geomean_p90_ms and setup_s of a run."""
    by = latencies_by_class(res)
    reads = [by[c] for c, _label in res["classes"]]
    total_s = sum(ms for _c, ms in res["ops"]) / 1e3
    return {
        "ops_per_s": len(res["ops"]) / total_s,
        "geomean_p50_ms": geomean([statistics.median(v) for v in reads]),
        "geomean_p90_ms": geomean([p90(v) for v in reads]),
        "setup_s": statistics.median(s for s, _k in res["setup_s"]),
    }


def end_to_end(raw):
    res = normalized(raw)
    by = latencies_by_class(res)
    labels = dict(res["classes"])
    n = res["attempted"]
    t = timings(res)
    per_class = f"{len(labels)} classes x {len(by[next(iter(labels))])}"
    m = {
        "ops_per_s": (t["ops_per_s"], "1/s", f"{n} ops"),
        "geomean_p50_ms": (t["geomean_p50_ms"], "ms", per_class),
        "geomean_p90_ms": (t["geomean_p90_ms"], "ms", per_class),
        "setup_s": (t["setup_s"], "s", f"{len(res['setup_s'])} set-ups"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB", "1 process"),
        "ok_rate": ((n - res["failed"]) / n, "ratio", f"{n} ops"),
    }
    kernel = [k for _i, k in raw["calibration"]]
    print(f"workload {res['workload']}  seed {res['seed']}  ops {n}  "
          f"failed {res['failed']}")
    print(f"  times at the reference host speed; calibration kernel median "
          f"{statistics.median(kernel):.3f} ms over {len(kernel)} bursts "
          f"(reference {res['calibration_ref_ms']:.3f} ms)")
    for name, (value, unit, samples) in m.items():
        print(f"  {name:<16} {value:>14.4f} {unit:<6} n = {samples}")
    if -1 in by:
        ins = by[-1]
        print(f"  {'insert_p50_ms':<16} {statistics.median(ins):>14.4f} "
              f"{'ms':<6} n = {len(ins)} inserts")
    for cls, label in labels.items():
        v = by[cls]
        print(f"    {label:<5} p50 {statistics.median(v):9.4f} ms  "
              f"p90 {p90(v):9.4f} ms  n = {len(v)}")
    print("  as measured, without normalization:")
    for name, value in timings(raw).items():
        print(f"  {name:<16} {value:>14.4f} {m[name][1]}")
    return {k: (value, unit) for k, (value, unit, _n) in m.items()}


LAYER_SPANS = {
    "oosql.translate": "oosql.translate_ms",
    "rewrite.rewrite": "rewrite.rewrite_ms",
    "opt.plan": "opt.plan_ms",
    "stats.get": "stats.refresh_ms",
    "storage.columnar": "storage.columnar_ms",
    "storage.canonical_set": "storage.canonical_set_ms",
    "exec.eval": "exec.eval_ms",
    "shred.eval": "shred.eval_ms",
}


def load_spans(path):
    spans = [json.loads(line) for line in open(path)]
    kids = {}
    for s in spans:
        s["ms"] = (s["end_ns"] - s["start_ns"]) / 1e6
        kids.setdefault(s["parent"], []).append(s)
    for s in spans:
        # Calls inside one span run one after another, so the children's
        # durations add up to the part of the span they cover.
        s["self_ms"] = s["ms"] - sum(k["ms"] for k in kids.get(s["id"], []))
    return spans, kids


def per_layer(traced, plain_geomean_p50):
    spans, kids = load_spans(traced["spans"])
    labels = [label for _c, label in traced["classes"]]
    child = lambda s, name: next(k for k in kids[s["id"]] if k["name"] == name)

    per_class = {label: {} for label in labels}  # label -> metric -> [ms]
    inserts, speed = [], {}
    for root in (s for s in spans if s["parent"] == -1):
        label = root["detail"]
        if root["name"] == "speedup":
            for k in kids[root["id"]]:
                speed.setdefault(label, {}).setdefault(k["name"], []).append(
                    k["ms"])
            continue
        if label == "insert":
            inserts.append(sum(k["ms"] for k in kids[root["id"]]))
            continue
        cold = child(root, "pipeline.cold")
        warm = child(root, "pipeline.warm")
        sums = {metric: 0.0 for metric in LAYER_SPANS.values()}
        for k in kids[cold["id"]]:
            sums[LAYER_SPANS[k["name"]]] += k["self_ms"]
        sums["pipeline_ms"] = cold["ms"]
        sums["core.overhead_ms"] = child(root, "core.run")["ms"] - sum(
            k["self_ms"] for k in kids[warm["id"]])
        for metric, ms in sums.items():
            per_class[label].setdefault(metric, []).append(ms)

    def per_pass(metric):
        return sum(statistics.median(per_class[l][metric]) for l in labels)

    m = {}
    for metric in list(LAYER_SPANS.values()) + ["core.overhead_ms"]:
        m[metric] = (per_pass(metric), "ms")
    m["storage.insert_ms"] = (
        statistics.median(inserts) if inserts else 0.0, "ms")
    c = traced["counters"]
    for name in ("rewrite.rules_fired", "stats.refreshes",
                 "storage.columnar_rebuilds", "storage.derefs",
                 "exec.tuples_scanned", "exec.predicate_evals",
                 "exec.hash_probes", "exec.hash_inserts",
                 "exec.joins_nested_loop", "exec.joins_hash",
                 "exec.joins_membership"):
        m[name] = (c[name], "count")
    share = lambda a, b: a / (a + b) if a + b else 0.0
    m["storage.page_hit_rate"] = (
        c["storage.page_hits"] / c["storage.derefs"]
        if c["storage.derefs"] else 0.0, "ratio")
    m["exec.compiled_share"] = (share(c["exec.compiled_evals"],
                                      c["exec.interp_fallback_evals"]), "ratio")
    m["shred.vec_share"] = (share(c["exec.vec_pipelines"],
                                  c["exec.vec_fallbacks"]), "ratio")
    m["exec.parallel_speedup"] = (geomean([
        statistics.median(t["exec.eval_t1"]) /
        statistics.median(t["exec.eval_t2"]) for t in speed.values()]), "x")
    traced_p50 = geomean([statistics.median(per_class[l]["pipeline_ms"])
                          for l in labels])
    m["trace.overhead_pct"] = (
        100.0 * (traced_p50 / plain_geomean_p50 - 1.0), "%")

    n_reads = len(per_class[labels[0]]["pipeline_ms"])
    print(f"traced workload {traced['workload']}  seed {traced['seed']}  "
          f"ops {traced['attempted']}  failed {traced['failed']}")
    print(f"  ms metrics: per-class median over {n_reads} reads of each of "
          f"{len(labels)} classes, summed over the classes; counts: totals")
    for name, (value, unit) in sorted(m.items()):
        print(f"  {name:<26} {value:>16.4f} {unit}")
    return m


def run_workload(w, seed, seconds, trace):
    """Runs one workload; returns (correct, attempted, failed, metrics)."""
    t_start = time.monotonic()
    common = [f"--workload={w}", f"--seed={seed}"]
    if trace == 0:
        rounds = max(MIN_ROUNDS, seconds * ROUNDS_PER_SECOND[w])
        res = run_runner(
            common + [f"--reps={rounds}", f"--setups={SETUPS[w]}"], t_start)
        values = end_to_end(res)
        runs = [res]
        correct = True
    else:
        reps = [f"--reps={TRACED_ROUNDS}"]
        plain = run_runner(common + reps + ["--setups=1"], t_start)
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        traced = []
        for tag in ("a", "b") if w in SERIAL else ("a",):
            spans = SPANS_DIR / f"{w}-seed{seed}-{tag}.jsonl"
            traced.append(run_runner(common + reps + [f"--spans={spans}"],
                                     t_start))
        # Exact counters are a function of the seed on serial workloads.
        correct = all(t["counters"] == traced[0]["counters"] for t in traced)
        if not correct:
            print("exact counters differ between two traced runs",
                  file=sys.stderr)
        plain_p50 = geomean([statistics.median(v) for c, v in
                             latencies_by_class(plain).items() if c != -1])
        values = per_layer(traced[0], plain_p50)
        runs = [plain] + traced

    for r in runs:
        for e in r["errors"]:
            print(f"error: {e}", file=sys.stderr)
    failed = sum(r["failed"] for r in runs)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return (correct and failed == 0, sum(r["attempted"] for r in runs),
            failed, metrics)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(ROUNDS_PER_SECOND) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    if a.workload != "all":
        correct, attempted, failed, metrics = run_workload(
            a.workload, a.seed, a.seconds, a.trace)
    else:
        # Every workload, each in its own processes; metric names are
        # prefixed with the workload.
        correct, attempted, failed, metrics = True, 0, 0, {}
        for w in ROUNDS_PER_SECOND:
            ok, n, f, m = run_workload(w, a.seed, a.seconds, a.trace)
            correct = correct and ok
            attempted, failed = attempted + n, failed + f
            metrics.update({f"{w}/{k}": v for k, v in m.items()})
            print()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
