"""In-process A/B timing of the evaluators of two choreo checkouts.

    python tools/ab.py PARENT CHANGE [--rounds N] [--workload W ...] [--seed S]

Each checkout's ``src/choreo`` is copied into a temporary directory under
its own package name (``choreo_parent``, ``choreo_change``), and both are
imported into this process. The inputs are those of the benchmark's three
workloads, built with this checkout's ``perfbench/gen.py`` from its
``corpus/``, which are only read:

- ``compile``: every run of the positive corpus programs' manifests, and one
  DistAuthN login for each N in 2..20;
- ``stream``: ConsumeItems over 20 stream lengths, log-stratified over
  20..1500 items;
- ``sort``: MergeSort and QuickSort, in turn, over 15 sizes from 8 to 150.

Every round takes each input in turn. For each side, in an order that
alternates from input to input and from round to round, the input's program
is compiled afresh, untimed; then the oracle (``eval_global``) and the
distributed run (``eval_distributed``) are timed with ``time.process_time``.
Both sides must give the same reports. The script prints, per workload and
stage, each side's median time and the median over inputs of each input's
median change/parent ratio, with that ratio's quartiles over inputs.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
STAGES = ("oracle", "run")
SORT_CHANNELS = {"ch_AB": "ab", "ch_BC": "bc", "ch_CA": "ca"}


def load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def import_checkout(checkout, name, into):
    """The package ``src/choreo`` of ``checkout``, copied into ``into`` and
    imported as ``name``."""
    src = Path(checkout).resolve() / "src" / "choreo"
    if not (src / "__init__.py").is_file():
        sys.exit(f"ab: {checkout} is not a choreo checkout (no src/choreo)")
    shutil.copytree(src, Path(into) / name, ignore=shutil.ignore_patterns("__pycache__"))
    package = importlib.import_module(name)
    for module in ("diagnostics", "interpreter", "distributed", "pipeline", "projector"):
        importlib.import_module(f"{name}.{module}")
    return package


# One run: the program's (file name, text) sources, its entry and its arguments.
Input = namedtuple("Input", "name sources entry_class entry_method args channels deadline",
                   defaults=(10.0,))


def corpus_text(name):
    return (ROOT / "corpus" / "positive" / f"{name}.chor").read_text()


def workload_inputs(workload, gen, seed):
    rng = random.Random(f"{seed}/{workload}")
    if workload == "compile":
        inputs = []
        for path in sorted((ROOT / "corpus" / "positive").glob("*.chor")):
            manifest = json.loads(path.with_suffix(".run.json").read_text())
            for i, run in enumerate(manifest.get("runs", [manifest])):
                inputs.append(Input(f"{path.stem}/{i}", [(path.stem, path.read_text())],
                                    run["entry"]["class"], run["entry"]["method"],
                                    run.get("args", {}), run.get("channels", {}),
                                    run.get("deadline", 10.0)))
        for n in range(2, 21):
            run = gen.distauth_run(n, rng.random() < 0.5)
            inputs.append(Input(f"DistAuth{n}", [(f"DistAuth{n}", gen.distauth_source(n))],
                                run["entry_class"], run["entry_method"], run["args"],
                                run["channels"]))
        return inputs
    if workload == "stream":
        sources = [("ConsumeItems", corpus_text("ConsumeItems"))]
        return [Input(f"ConsumeItems/{n}", sources, "ConsumeItems", "run",
                      {"A": [gen.stream_items(rng, n)]}, {"ch": "items"})
                for n in gen.stratified_sizes(rng, 20, 20, 1500)]
    sources = [(name, corpus_text(name)) for name in ("MergeSort", "QuickSort")]
    return [Input(f"{cls}/{n}", sources, cls, "sort", {"A": [gen.sort_input(rng, n)]},
                  SORT_CHANNELS)
            for i, n in enumerate(gen.grid_sizes(15, 8, 150))
            for cls in [("Mergesort", "Quicksort")[i % 2]]]


def run_side(choreo, item):
    """Compiles ``item``'s program afresh, untimed, then runs both
    evaluators; returns their process times and what they reported."""
    checked, reporter = choreo.pipeline.compile_sources(item.sources)
    if not reporter.has_errors():
        units, reporter = choreo.projector.project_program(checked, choreo.diagnostics.Reporter())
    if reporter.has_errors():
        sys.exit(f"ab: {item.name} does not compile")
    roles = checked.decl_info(item.entry_class).role_names
    t0 = time.process_time()
    oracle = choreo.interpreter.eval_global(checked, item.entry_class, item.entry_method,
                                            item.args, item.channels)
    t1 = time.process_time()
    run = choreo.distributed.eval_distributed(units, item.entry_class, roles, item.entry_method,
                                              item.args, item.channels, item.deadline)
    t2 = time.process_time()
    seen = [(r.status, r.error, r.returns, r.transcripts) for r in (oracle, run)]
    return {"oracle": t1 - t0, "run": t2 - t1}, seen


def measure(packages, inputs, rounds):
    """input name -> stage -> side -> process times, one per round."""
    times = {item.name: {stage: {side: [] for side in SIDES} for stage in STAGES}
             for item in inputs}
    for r in range(rounds):
        for i, item in enumerate(inputs):
            order = SIDES if (r + i) % 2 == 0 else SIDES[::-1]
            seen = {}
            for side in order:
                took, seen[side] = run_side(packages[side], item)
                for stage in STAGES:
                    times[item.name][stage][side].append(took[stage])
            if seen["parent"] != seen["change"]:
                sys.exit(f"ab: {item.name}: the two sides report differently:\n"
                         f"  parent {seen['parent']}\n  change {seen['change']}")
    return times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(workload, times, rounds):
    lines = []
    for stage in STAGES:
        ratios = [statistics.median(c / p for p, c in zip(t[stage]["parent"], t[stage]["change"]))
                  for t in times.values()]
        ms = {side: 1e3 * statistics.median(v for t in times.values() for v in t[stage][side])
              for side in SIDES}
        q1, q3 = quartiles(ratios)
        lines.append(f"{workload:8} {stage:7} parent {ms['parent']:8.3f} ms  change "
                     f"{ms['change']:8.3f} ms  ratio {statistics.median(ratios):.3f} "
                     f"(q1 {q1:.3f}, q3 {q3:.3f})  {len(times)} inputs x {rounds} rounds")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the checkout to compare against")
    ap.add_argument("change", help="the checkout whose times are the numerators")
    ap.add_argument("--rounds", type=int, default=16)
    ap.add_argument("--workload", action="append", choices=("compile", "stream", "sort"))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.setrecursionlimit(20000)  # as the benchmark and the command line set it
    gen = load_gen()
    with tempfile.TemporaryDirectory() as into:
        sys.path.insert(0, into)
        try:
            packages = {side: import_checkout(getattr(args, side), f"choreo_{side}", into)
                        for side in SIDES}
            for workload in args.workload or ("compile", "stream", "sort"):
                times = measure(packages, workload_inputs(workload, gen, args.seed), args.rounds)
                for line in report(workload, times, args.rounds):
                    print(line, flush=True)
        finally:
            sys.path.remove(into)
    return 0


if __name__ == "__main__":
    sys.exit(main())
