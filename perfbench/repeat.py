"""Repeat the benchmark over seeds and summarise it.

    python3 perfbench/repeat.py [--out FILE]

For every workload in ``BENCHMARK.json``, runs ``run.py`` untraced for
``run_seconds`` once per seed 1..10, alternating workloads so that slow
spells of the machine spread over all of them, and reports each end-to-end
metric's median, quartiles and spread (the distance between the quartiles
as a share of the median), flagging every spread that is not below a third
of the metric's bound. Then runs the traced mode twice with seed 1 and
checks that the deterministic counts and the rendered-output digests repeat
exactly and equal those in ``BENCH_baseline.json``; timings are never
compared. Exits 1 if an output was wrong or a count or digest differs.
``--out`` writes all of it as JSON, in the form of ``BENCH_baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).resolve().with_name("run.py")
OUT_DIR = ROOT / ".perfbench_out"
BASELINE = Path(__file__).resolve().with_name("BENCH_baseline.json")
SEEDS = list(range(1, 11))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"run.py {workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads(BASELINE.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    results = {w: [] for w in workloads}
    started = time.time()
    for seed in SEEDS:
        for w in workloads:
            results[w].append(run_once(w, seed, seconds, 0))
            r = results[w][-1]
            print(f"seed {seed} {w}: attempted {r['attempted']}, failed {r['failed']}, "
                  f"{time.time() - started:.0f} s", flush=True)

    summary = {"python": platform.python_version(), "machine": platform.machine(),
               "cpus": os.cpu_count(), "run_seconds": seconds,
               "seeds": SEEDS, "workloads": {}}
    ok = True
    for w, runs in results.items():
        entry = summary["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {},
        }
        ok &= entry["correct"]
        print(f"\n{w}: {entry['attempted']} operations, {entry['failed']} failed")
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            steady = s["spread"] < bound / 3
            print(f"  {name:16} median {s['median']:10.4f} {s['unit']:3} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['spread']:.3f} "
                  f"(bound {bound}){'' if steady else '  NOT STEADY'}")

    for w in workloads:
        traced = []
        for _ in range(2):
            r = run_once(w, SEEDS[0], seconds, 1)
            detail = json.loads((OUT_DIR / f"{w}-{SEEDS[0]}.summary.json").read_text())
            traced.append((r, detail))
        (first, a), (_, b) = traced
        repeat = a["counts"] == b["counts"] and a["digests"] == b["digests"]
        known = baseline["workloads"][w]
        as_baseline = a["counts"] == known["counts"] and a["digests"] == known["digests"]
        ok &= repeat and as_baseline and first["correct"]
        entry = summary["workloads"][w]
        entry["per_layer"] = {k: v["value"] for k, v in first["metrics"].items()}
        entry["counts"] = a["counts"]
        entry["digests"] = a["digests"]
        entry["counts_repeat"] = repeat
        print(f"\n{w} traced, seed {SEEDS[0]}: counts and digests "
              f"{'repeat exactly' if repeat else 'DIFFER between runs'}, "
              f"{'equal' if as_baseline else 'DIFFER from'} {BASELINE.name}")
        for k in sorted(set(a["counts"]) | set(known["counts"])):
            if a["counts"].get(k) != known["counts"].get(k):
                print(f"  {k}: {known['counts'].get(k)} in {BASELINE.name}, now {a['counts'].get(k)}")
        for k in sorted(set(a["digests"]) | set(known["digests"])):
            if a["digests"].get(k) != known["digests"].get(k):
                print(f"  rendering of {k} differs from {BASELINE.name}")
        for k, v in entry["per_layer"].items():
            print(f"  {k:32} {v:12.4f}")

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
