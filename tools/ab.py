"""A/B timing of two choreo checkouts: their compile and evaluators in one
process, or their start-up in fresh processes.

    python tools/ab.py PARENT CHANGE [--rounds N] [--workload W ...] [--seed S]
    python tools/ab.py PARENT CHANGE --startup [--rounds N]

Each checkout's ``src/choreo`` is copied into a temporary directory under
its own package name (``choreo_parent``, ``choreo_change``), and both are
imported into this process. The inputs are those of the benchmark's three
workloads and a fourth that grows the role count, built with this
checkout's ``perfbench/gen.py`` from its ``corpus/``, which are only read:

- ``compile``: every run of the positive corpus programs' manifests, the 8
  negative corpus programs, and one DistAuthN login for each N in 2..20;
- ``stream``: ConsumeItems over 20 stream lengths, log-stratified over
  20..1500 items;
- ``sort``: MergeSort and QuickSort, in turn, over 15 sizes from 8 to 150;
- ``roles``: four DistAuthN logins, valid and invalid in turn, for each N
  in 20, 40, 80 and 160.

Every round takes each input in turn. For each side, in an order that
alternates from input to input and from round to round, five stages are
timed with ``time.process_time``: the compile (``compile_sources``, then
``project_program`` and ``render_unit`` of every projected unit), the check
(``compile_sources`` alone: the front end and the checker, the part of the
compile a checker change moves), the projection (``project_program`` alone),
the oracle (``eval_global``) and the distributed run (``eval_distributed``);
a negative program has only its compile, its check and, if it checks, its
projection timed, and its compile stops at the first phase that reports an
error. Before each stage starts, ``gc.collect(1)`` empties the collector's
young generations, outside every stage's time, so that no stage pays for
collecting the garbage of the one before. Before the first round, both
sides' front ends (``pipeline.front_end``) must give each input the same
tree: the same ``render_program`` text, and the same class name, line and
column of every node that ``surface.walk`` yields; and both sides'
``testkit.run_tests`` must give each positive program's ``@Test`` cases the
same name, verdict and failures. Both sides must give the same diagnostics
(code, severity, line, column and message), render the same units, project
to the same units (their ``repr``, taken after the timed stages: a chain
that ends in None renders as one that ends in ``LNil()`` does, but merges
differently) and give the same reports.
The script prints, per workload and stage, each side's median time and the
median over inputs of each input's median change/parent ratio, with that
ratio's quartiles over inputs. As ``p90+ ratio``, it also prints the median
of those ratios over the slowest inputs: those whose median parent time is
at or above the 90th percentile of the inputs' median parent times, where a
gain on the largest inputs shows that the median over all of them hides.
As ``by round``, it prints the quartiles over rounds of each round's median
over inputs of the change/parent ratio: how far one round's reading strays
from the next, which the quartiles over inputs do not show when there are
few inputs. For ``roles``, it then prints each side's median projection
time at each role count, and how much it grows from 80 to 160 roles. Its
last line gives each side's line count of ``src/choreo/*.py``, as ``wc -l``
counts it.

With ``--startup``, each round instead starts one fresh process per side,
in an order that alternates from round to round, which imports the copied
package and then builds the prelude layer (``checker.prelude_layer``),
timing each with ``time.perf_counter``. The copies have no bytecode cache
and the processes write none (``-B``), so each compiles the package from
source, as the first run of a new checkout does. The script prints, per
stage, each side's median time and the median change/parent ratio of the
rounds' pairs, with its quartiles.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
STAGES = ("compile", "check", "project", "oracle", "run")
WORKLOADS = ("compile", "stream", "sort", "roles")
STARTUP_STAGES = ("import", "prelude")
SORT_CHANNELS = {"ch_AB": "ab", "ch_BC": "bc", "ch_CA": "ca"}
ROLE_COUNTS = (20, 40, 80, 160)
LOGINS = 4  # per role count in ``roles``, valid and invalid in turn


def load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def copy_checkout(checkout, name, into):
    """Copies the package ``src/choreo`` of ``checkout`` into ``into`` as ``name``."""
    src = Path(checkout).resolve() / "src" / "choreo"
    if not (src / "__init__.py").is_file():
        sys.exit(f"ab: {checkout} is not a choreo checkout (no src/choreo)")
    shutil.copytree(src, Path(into) / name, ignore=shutil.ignore_patterns("__pycache__"))


def source_lines(checkout):
    """The number of lines of ``src/choreo/*.py`` in ``checkout``."""
    return sum(f.read_bytes().count(b"\n")
               for f in (Path(checkout).resolve() / "src" / "choreo").glob("*.py"))


def import_checkout(checkout, name, into):
    """The package ``src/choreo`` of ``checkout``, copied into ``into`` and
    imported as ``name``."""
    copy_checkout(checkout, name, into)
    package = importlib.import_module(name)
    for module in ("diagnostics", "interpreter", "distributed", "pipeline", "printer", "projector",
                   "surface", "testkit"):
        importlib.import_module(f"{name}.{module}")
    return package


# One run: the program's (file name, text) sources, its entry and its
# arguments; a negative program has no entry and is only compiled.
Input = namedtuple("Input", "name sources entry_class entry_method args channels deadline",
                   defaults=(None, None, None, None, 10.0))


def corpus_text(name):
    return (ROOT / "corpus" / "positive" / f"{name}.chor").read_text()


def distauth_input(gen, n, valid, name=None):
    run = gen.distauth_run(n, valid)
    return Input(name or f"DistAuth{n}", [(f"DistAuth{n}", gen.distauth_source(n))],
                 run["entry_class"], run["entry_method"], run["args"], run["channels"])


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
        for path in sorted((ROOT / "corpus" / "negative").glob("*.chor")):
            inputs.append(Input(f"negative/{path.stem}", [(path.stem, path.read_text())]))
        inputs += [distauth_input(gen, n, rng.random() < 0.5) for n in range(2, 21)]
        return inputs
    if workload == "roles":
        return [distauth_input(gen, n, i % 2 == 0, f"DistAuth{n}/{i}")
                for n in ROLE_COUNTS for i in range(LOGINS)]
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
    """Compiles, projects and renders ``item``'s program afresh, then runs
    both evaluators; returns each stage's process time, the diagnostics, the
    rendered units, the ``repr`` of the projected units and what the
    evaluators reported. A negative program stops after the phase that
    reports an error."""
    collect_young()
    t0 = time.process_time()
    checked, reporter = choreo.pipeline.compile_sources(item.sources)
    checked_at = time.process_time()
    found = list(reporter.items)
    took = {"check": checked_at - t0}
    if not reporter.has_errors():
        t0 += collect_young()  # not part of the compile's time either
        projecting = time.process_time()
        units, reporter = choreo.projector.project_program(checked, choreo.diagnostics.Reporter())
        took["project"] = time.process_time() - projecting
        found += reporter.items
    if reporter.has_errors():
        took["compile"] = time.process_time() - t0
        if item.entry_class is not None:
            sys.exit(f"ab: {item.name} does not compile")
        return took, diagnostic_keys(found), None, None, None
    if item.entry_class is None:
        sys.exit(f"ab: {item.name} compiles, but is a negative program")
    texts = [choreo.printer.render_unit(unit) for unit in units.units]
    took["compile"] = time.process_time() - t0
    roles = checked.decl_info(item.entry_class).role_names
    collect_young()
    t1 = time.process_time()
    oracle = choreo.interpreter.eval_global(checked, item.entry_class, item.entry_method,
                                            item.args, item.channels)
    took["oracle"] = time.process_time() - t1
    collect_young()
    t2 = time.process_time()
    run = choreo.distributed.eval_distributed(units, item.entry_class, roles, item.entry_method,
                                              item.args, item.channels, item.deadline)
    took["run"] = time.process_time() - t2
    reports = [(r.status, r.error, r.returns, r.transcripts) for r in (oracle, run)]
    return took, diagnostic_keys(found), texts, repr(units.units), reports


def collect_young():
    """Empty the cyclic collector's generations 0 and 1, so that the next
    stage starts with none of the last one's garbage; returns the process
    time it took."""
    start = time.process_time()
    gc.collect(1)
    return time.process_time() - start


def front_end_keys(choreo, item):
    """The text of ``item``'s program after the front end, and the class
    name, line and column of each of its nodes."""
    program, _ = choreo.pipeline.front_end(item.sources)
    nodes = [(type(n).__name__, *n.span.source.line_col(n.span.start))
             for n in choreo.surface.walk(program.decls)]
    return choreo.printer.render_program(program), nodes


def test_keys(choreo, sources):
    """(name, passed, failures) of each ``@Test`` case of the program of
    ``sources``, which compiles."""
    checked, _ = choreo.pipeline.compile_sources(sources)
    results, _ = choreo.testkit.run_tests(checked)
    return [(r.name, r.passed, r.failures) for r in results]


def diagnostic_keys(found):
    """(code, severity, line, column, message) of each diagnostic."""
    return [(d.code.value, d.severity.value, *d.span.source.line_col(d.span.start), d.message)
            for d in found]


def measure(packages, inputs, rounds):
    """input name -> stage -> side -> process times, one per round; a stage
    a negative program does not reach has none."""
    times = {item.name: {stage: {side: [] for side in SIDES} for stage in STAGES}
             for item in inputs}
    for item in inputs:
        if front_end_keys(packages["parent"], item) != front_end_keys(packages["change"], item):
            sys.exit(f"ab: {item.name}: the two sides' front ends give different trees")
    for sources in {tuple(item.sources): None for item in inputs if item.entry_class}:
        tested = {side: test_keys(packages[side], sources) for side in SIDES}
        if tested["parent"] != tested["change"]:
            sys.exit(f"ab: {sources[0][0]}: the two sides' test kits give different results:\n"
                     f"  parent {tested['parent']}\n  change {tested['change']}")
    for r in range(rounds):
        for i, item in enumerate(inputs):
            order = SIDES if (r + i) % 2 == 0 else SIDES[::-1]
            found, texts, projected, seen = {}, {}, {}, {}
            for side in order:
                took, found[side], texts[side], projected[side], seen[side] = run_side(
                    packages[side], item)
                for stage, t in took.items():
                    times[item.name][stage][side].append(t)
            if found["parent"] != found["change"]:
                sys.exit(f"ab: {item.name}: the two sides give different diagnostics:\n"
                         f"  parent {found['parent']}\n  change {found['change']}")
            if texts["parent"] != texts["change"]:
                sys.exit(f"ab: {item.name}: the two sides render differently")
            if projected["parent"] != projected["change"]:
                sys.exit(f"ab: {item.name}: the two sides project to different units")
            if seen["parent"] != seen["change"]:
                sys.exit(f"ab: {item.name}: the two sides report differently:\n"
                         f"  parent {seen['parent']}\n  change {seen['change']}")
    return times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def slowest_decile(parent_ms):
    """The indices of the inputs whose parent time is at or above the 90th
    percentile of all the inputs' parent times."""
    if len(parent_ms) < 2:
        return list(range(len(parent_ms)))
    p90 = statistics.quantiles(parent_ms, n=10, method="inclusive")[-1]
    return [i for i, ms in enumerate(parent_ms) if ms >= p90]


def report(workload, times, rounds):
    lines = []
    for stage in STAGES:
        timed = [t[stage] for t in times.values() if t[stage]["parent"]]
        ratios = [statistics.median(c / p for p, c in zip(t["parent"], t["change"]))
                  for t in timed]
        ms = {side: 1e3 * statistics.median(v for t in timed for v in t[side]) for side in SIDES}
        q1, q3 = quartiles(ratios)
        slowest = slowest_decile([statistics.median(t["parent"]) for t in timed])
        slow_ratio = statistics.median(ratios[i] for i in slowest)
        r1, r3 = quartiles([statistics.median(t["change"][r] / t["parent"][r] for t in timed)
                            for r in range(rounds)])
        lines.append(f"{workload:8} {stage:7} parent {ms['parent']:8.3f} ms  change "
                     f"{ms['change']:8.3f} ms  ratio {statistics.median(ratios):.3f} "
                     f"(q1 {q1:.3f}, q3 {q3:.3f})  p90+ ratio {slow_ratio:.3f} "
                     f"({len(slowest)} inputs)  by round (q1 {r1:.3f}, q3 {r3:.3f})  "
                     f"{len(timed)} inputs x {rounds} rounds")
    return lines


def growth_lines(times):
    """For ``roles``: each side's median projection time at each role
    count, then its growth from 80 to 160 roles; none when ``times`` lacks
    either count."""
    ms = {}
    for n in ROLE_COUNTS:
        timed = [t["project"] for name, t in times.items() if name.startswith(f"DistAuth{n}/")]
        if timed:
            ms[n] = {side: 1e3 * statistics.median(v for t in timed for v in t[side])
                     for side in SIDES}
    if 80 not in ms or 160 not in ms:
        return []
    lines = [f"roles    project {n:3} roles: parent {m['parent']:8.3f} ms  change "
             f"{m['change']:8.3f} ms" for n, m in ms.items()]
    lines.append("roles    project growth from 80 to 160 roles: " + "  ".join(
        f"{side} {ms[160][side] / ms[80][side]:.2f}x" for side in SIDES))
    return lines


# Run as ``python -c STARTUP PACKAGE`` in the directory that holds PACKAGE.
STARTUP = """\
import importlib, sys, time
t0 = time.perf_counter()
package = importlib.import_module(sys.argv[1])
t1 = time.perf_counter()
package.checker.prelude_layer(package.pipeline.load_prelude().decls)
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def start_side(into, side):
    """The seconds a fresh process takes for each of ``STARTUP_STAGES``."""
    out = subprocess.run([sys.executable, "-B", "-c", STARTUP, f"choreo_{side}"], cwd=into,
                         capture_output=True, text=True, check=True).stdout
    return [float(took) for took in out.split()]


def measure_startup(into, rounds):
    """stage -> side -> seconds, one per round."""
    times = {stage: {side: [] for side in SIDES} for stage in STARTUP_STAGES}
    for r in range(rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            for stage, took in zip(STARTUP_STAGES, start_side(into, side)):
                times[stage][side].append(took)
    return times


def startup_report(times, rounds):
    lines = []
    for stage in STARTUP_STAGES:
        ratios = [c / p for p, c in zip(times[stage]["parent"], times[stage]["change"])]
        ms = {side: 1e3 * statistics.median(times[stage][side]) for side in SIDES}
        q1, q3 = quartiles(ratios)
        lines.append(f"startup  {stage:7} parent {ms['parent']:8.3f} ms  change "
                     f"{ms['change']:8.3f} ms  ratio {statistics.median(ratios):.3f} "
                     f"(q1 {q1:.3f}, q3 {q3:.3f})  {rounds} process pairs")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the checkout to compare against")
    ap.add_argument("change", help="the checkout whose times are the numerators")
    ap.add_argument("--rounds", type=int, default=16)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--startup", action="store_true",
                    help="time fresh processes' import and prelude layer instead of the workloads")
    args = ap.parse_args(argv)
    if args.startup:
        with tempfile.TemporaryDirectory() as into:
            for side in SIDES:
                copy_checkout(getattr(args, side), f"choreo_{side}", into)
            for line in startup_report(measure_startup(into, args.rounds), args.rounds):
                print(line, flush=True)
        return 0
    sys.setrecursionlimit(20000)  # as the benchmark and the command line set it
    gen = load_gen()
    with tempfile.TemporaryDirectory() as into:
        sys.path.insert(0, into)
        try:
            packages = {side: import_checkout(getattr(args, side), f"choreo_{side}", into)
                        for side in SIDES}
            for workload in args.workload or WORKLOADS:
                times = measure(packages, workload_inputs(workload, gen, args.seed), args.rounds)
                for line in report(workload, times, args.rounds) + growth_lines(times):
                    print(line, flush=True)
        finally:
            sys.path.remove(into)
    print("lines of src/choreo/*.py: " + ", ".join(
        f"{side} {source_lines(getattr(args, side))}" for side in SIDES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
