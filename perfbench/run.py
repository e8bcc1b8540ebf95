"""End-to-end and per-layer benchmark of the choreo toolchain.

    python3 perfbench/run.py --workload compile|stream|sort --seed N \\
        --seconds S --trace 0|1

Run from the root of a choreo checkout; the toolchain is imported from
``src/`` and the example programs are read from ``corpus/``.

Each workload is a closed loop: one client in this process starts its next
operation only when the last one has completed. An operation is what a user
of the command line waits for on one input: the compile of its program
(front end, check, project and render of every unit, i.e. ``choreo
project`` without the file writes), then, for a runnable program, the
global oracle (``choreo oracle``) and the distributed run (``choreo run``),
whose reports are compared. Operations come in cycles: a cycle holds the
workload's whole input mix, generated from the seed and the cycle's number,
and the loop runs whole cycles until ``--seconds`` have passed. Every output
is checked, independently of the toolchain where possible.

The process pins itself to one CPU before it starts. The interpreter lock
runs one Python thread at a time anyway, and on a shared virtual machine
the distributed run's thread handoffs, when they cross CPUs, take several
times longer and vary from run to run with the neighbours' load. The
traced run also times one cycle unpinned, to show what pinning hides.

Times are reported at a reference host speed. On a shared virtual machine
the speed of the CPU itself drifts by up to a factor of two within a
minute, for the benchmark and for any fixed piece of Python work alike.
So between operations, outside their timing, the benchmark times a fixed
calibration loop that uses no choreo code, and scales each latency sample
by ``CAL_REF_S`` over the mean of the calibration times just before and
just after it: a sample reads as the milliseconds it would take on a host
where the loop takes ``CAL_REF_S``. Set-up processes are bracketed and
scaled the same way. The unscaled figures are printed beside them.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: the latency p50 and p90 per stage, set-up time and
peak memory. With ``--trace 1`` public functions of every layer are wrapped
(see ``spans.py``), the spans and a per-layer summary are written to
``.perfbench_out/`` and the last line holds the per-layer metrics instead.
Exit status is 0 when the run completed, whether or not outputs were
correct; the JSON says which.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import spans  # noqa: E402

# The evaluators recurse once per loop iteration of the program they run;
# choreo.cli.main raises the limit to this before `choreo oracle|run`.
RECURSION_LIMIT = 20000
RUN_DEADLINE_S = 10.0
SETUP_REPEATS = 11
# The calibration loop's time on the reference host, and how many times it
# runs on each side of a set-up process.
CAL_REF_S = 0.0025
SETUP_CAL = 3
OUT_DIR = ROOT / ".perfbench_out"
STAGES = ("compile", "oracle", "run")

# Per cycle: stream lengths, each drawn from one stratum of a log-uniform
# range, so that every cycle covers the whole range; with 20 strata the
# stream p50 and p90 fall on stratum edges, which keeps them steady from seed
# to seed. Sort sizes are the strata's midpoints, taken by the two
# algorithms in turn: a sort's time grows faster than its size, and sizes
# drawn within the top strata moved the sort p90 by as much as the host did.
# With a fixed set of sizes the p50 and p90 must fall inside one of them, not
# between two, which an odd count ending in 5 gives.
STREAM_OPS, STREAM_LO, STREAM_HI = 20, 20, 1500
SORT_OPS, SORT_LO, SORT_HI = 15, 8, 150
DISTAUTH_NS = range(2, 21)
# Past the recursion ceiling of both evaluators; traced runs only.
DEEP_STREAM_ITEMS, DEEP_STREAM_DEADLINE_S = 5000, 1.5

SORT_CHANNELS = {"ch_AB": "ab", "ch_BC": "bc", "ch_CA": "ca"}


def import_choreo():
    """The toolchain from this checkout's src/, or exit without a result."""
    if not (ROOT / "src" / "choreo" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        sys.exit(f"perfbench: {ROOT} is not a choreo checkout (src/choreo or corpus/ missing)")
    import choreo

    if Path(choreo.__file__).resolve().parent != ROOT / "src" / "choreo":
        sys.exit(f"perfbench: imported choreo from {choreo.__file__}, not from {ROOT / 'src'}")


import_choreo()

from choreo import (  # noqa: E402
    checker, differential, distributed, interpreter, lexer, parser, pipeline, printer, projector,
)
from choreo.diagnostics import Reporter  # noqa: E402
from choreo.span import SourceFile  # noqa: E402


def calibration_loop():
    """A fixed piece of pure-Python work, independent of the toolchain: a
    dict, attribute and call heavy loop, then scattered reads of a table of
    a few MB. When the host slows, the first slows more than the toolchain
    and the second less. On a shared 2-vCPU virtual machine their sum
    followed compile, oracle and distributed runs alike, within about 6%
    over 4 s windows, where the first alone left 9% and no scaling 20%."""
    table, total, pair = {}, 0, _Pair(1, 2)
    for i in range(6000):
        key = i % 500
        table[key] = table.get(key, 0) + pair.pick(i)
        total += len(str(key))
    for i in range(0, 100000, 37):
        total += _SCATTER[(i * 7919) % len(_SCATTER)][0]
    return total


_SCATTER = [(i, str(i)) for i in range(20000)]


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def pick(self, i):
        return self.a + i if i & 1 else self.b - i


class Stats:
    """Latency samples per stage, calibration times and failure counts.

    A sample (seconds) is kept with the number of calibration times taken
    before it, which places it between two of them."""

    def __init__(self):
        self.samples = {stage: [] for stage in STAGES}
        self.cal = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def calibrate(self):
        t0 = time.perf_counter()
        calibration_loop()
        self.cal.append(time.perf_counter() - t0)

    def record(self, stage, seconds):
        self.samples[stage].append((seconds, len(self.cal)))

    def raw(self, stage):
        return [seconds for seconds, _ in self.samples[stage]]

    def scaled(self, stage):
        """The stage's samples at reference speed."""
        return [seconds * CAL_REF_S / statistics.mean(self.cal[max(i - 1, 0):i + 1])
                for seconds, i in self.samples[stage]]


# ------------------------------------------------------------ the stages

class Compiled:
    def __init__(self, checked=None, units=None, rendered=None, diagnostics=()):
        self.checked = checked
        self.units = units
        self.rendered = rendered
        self.diagnostics = list(diagnostics)

    @property
    def digest(self):
        return hashlib.sha256("\0".join(self.rendered).encode()).hexdigest()


def compile_program(sources, prelude):
    """Parse, desugar, check, project and render one program made of
    (file name, text) sources, stopping at the first phase that reports
    errors, as ``choreo project`` does."""
    decls, names = prelude
    program, reporter = parser.parse_program(sources, Reporter())
    parser.desugar_program(program)
    parser.expand_literal_lists(program, reporter)
    diagnostics = list(reporter.items)
    if reporter.has_errors():
        return Compiled(diagnostics=diagnostics)
    program.decls = list(decls) + program.decls
    checked, reporter = checker.check_program(program, Reporter(), names)
    diagnostics += reporter.items
    if reporter.has_errors():
        return Compiled(checked, diagnostics=diagnostics)
    units, reporter = projector.project_program(checked, Reporter())
    diagnostics += reporter.items
    if reporter.has_errors():
        return Compiled(checked, diagnostics=diagnostics)
    rendered = [printer.render_unit(u) for u in units.units]
    return Compiled(checked, units, rendered, diagnostics)


def timed_compile(sources, prelude, stats):
    t0 = time.perf_counter()
    try:
        return compile_program(sources, prelude)
    finally:
        stats.record("compile", time.perf_counter() - t0)


def clean_compile(name, sources, prelude, stats, references):
    """Compile a program that must compile cleanly and render the same bytes
    every time; returns (Compiled, problems)."""
    compiled = timed_compile(sources, prelude, stats)
    if compiled.diagnostics or compiled.rendered is None:
        return compiled, [f"{name}: diagnostics " + "; ".join(
            f"{d.code.value}@{d.span.line}" for d in compiled.diagnostics)]
    ref = references.setdefault(name, compiled.digest)
    if compiled.digest != ref:
        return compiled, [f"{name}: rendered output differs from its first compile"]
    return compiled, []


def execute(compiled, run, stats, check=None, deadline=RUN_DEADLINE_S):
    """Oracle, then distributed run, then compare; returns the problems found.

    ``check(report)`` returns the problems of one report judged against the
    generated input, independently of the other evaluator.
    """
    cls, method = run["entry_class"], run["entry_method"]
    args, channels = run.get("args", {}), run.get("channels", {})
    roles = compiled.checked.decl_info(cls).role_names
    reports = []
    for stage, call in (
        ("oracle", lambda: interpreter.eval_global(compiled.checked, cls, method, args, channels)),
        ("run", lambda: distributed.eval_distributed(compiled.units, cls, roles, method,
                                                     args, channels, deadline)),
    ):
        t0 = time.perf_counter()
        try:
            reports.append(call())
        except Exception as e:  # an evaluator let an exception escape
            return [f"{cls}.{method} {stage}: {type(e).__name__}: {e}"]
        finally:
            stats.record(stage, time.perf_counter() - t0)
    global_report, dist_report = reports
    cmp = differential.compare_reports(roles, global_report, dist_report)
    problems = [f"{cls}.{method}: {d}" for d in cmp.diffs]
    if check is not None and cmp.equal:
        for stage, report in zip(("oracle", "run"), reports):
            problems += [f"{cls}.{method} {stage}: {p}" for p in check(report)]
    return problems


# ------------------------------------------------------------ workloads

class Workload:
    """Builds its inputs from the seed; ``cycle(c)`` lists cycle c's
    operations, each a zero-argument callable that returns the problems it
    found."""

    def __init__(self, seed, stats):
        self.seed = seed
        self.stats = stats
        self.prelude = (tuple(pipeline.load_prelude().decls), pipeline.prelude_names())
        self.references = {}  # program name -> digest of its first rendering

    def rng(self, purpose):
        return random.Random(f"{self.seed}/{type(self).__name__}/{purpose}")

    def source(self, name):
        return (ROOT / "corpus" / "positive" / f"{name}.chor").read_text()

    def reference_compile(self, name, sources):
        compiled, problems = clean_compile(name, sources, self.prelude, Stats(), self.references)
        if problems:
            sys.exit(f"perfbench: {problems[0]}")


class CompileWorkload(Workload):
    """Every cycle, in a seeded order: the 11 positive corpus programs (each
    followed by its manifest's runs), the 8 negative ones, and DistAuthN for
    every N in 2..20 (each followed by one login, valid or not by the seed)."""

    def __init__(self, seed, stats):
        super().__init__(seed, stats)
        self.items = []  # (op maker, program name, source, payload)
        for n in (5, 10):
            made = lexer.lex(SourceFile("generated", gen.distauth_source(n)))
            corpus = lexer.lex(SourceFile("corpus", self.source(f"DistAuth{n}")))
            if [(t.kind, t.lexeme) for t in made] != [(t.kind, t.lexeme) for t in corpus]:
                sys.exit(f"perfbench: generated DistAuth{n} differs from the corpus program")
        for path in sorted((ROOT / "corpus" / "positive").glob("*.chor")):
            runs = [vars(r) for r in differential.load_manifest(path.with_suffix(".run.json"))]
            self.items.append((self.positive, path.stem, path.read_text(), runs))
        for path in sorted((ROOT / "corpus" / "negative").glob("*.chor")):
            expected = json.loads(path.with_suffix(".expected.json").read_text())
            self.items.append((self.negative, path.stem, path.read_text(), expected))
        rng = self.rng("logins")
        for n in DISTAUTH_NS:
            self.items.append((self.distauth, f"DistAuth{n}", gen.distauth_source(n),
                               (n, rng.random() < 0.5)))
        self.cycle(0)

    def cycle(self, c):
        items = list(self.items)
        self.rng(c).shuffle(items)
        return [make(name, text, payload) for make, name, text, payload in items]

    def positive(self, name, text, runs):
        def op():
            compiled, problems = clean_compile(name, [(name, text)], self.prelude,
                                               self.stats, self.references)
            for run in [] if problems else runs:
                problems += execute(compiled, run, self.stats, deadline=run["deadline"])
            return problems
        return op

    def negative(self, name, text, want):
        def expected(d):
            return (d.severity.name == "ERROR" and d.code.value == want["code"]
                    and d.span.line == want["line"]
                    and ("role" not in want or f"'{want['role']}'" in d.message))

        def op():
            compiled = timed_compile([(name, text)], self.prelude, self.stats)
            if any(expected(d) for d in compiled.diagnostics):
                return []
            return [f"{name}: expected {want['code']} at line {want['line']}, got "
                    + "; ".join(f"{d.code.value}@{d.span.line}" for d in compiled.diagnostics)]
        return op

    def distauth(self, name, text, login):
        n, valid = login
        want = gen.distauth_transcripts(n, valid)

        def check(report):
            got = {r: report.transcripts.get(r, []) for r in want}
            return [] if got == want else [f"transcripts {got} != {want}"]

        def op():
            compiled, problems = clean_compile(name, [(name, text)], self.prelude,
                                               self.stats, self.references)
            return problems or execute(compiled, gen.distauth_run(n, valid), self.stats, check)
        return op


class StreamWorkload(Workload):
    """ConsumeItems over seeded item lists of 20 to 1500 items."""

    def __init__(self, seed, stats):
        super().__init__(seed, stats)
        self.sources = [("ConsumeItems", self.source("ConsumeItems"))]
        self.reference_compile("ConsumeItems", self.sources)
        self.cycle(0)

    def cycle(self, c):
        rng = self.rng(c)
        lengths = gen.stratified_sizes(rng, STREAM_OPS, STREAM_LO, STREAM_HI)
        rng.shuffle(lengths)
        return [self.op(gen.stream_items(rng, n)) for n in lengths]

    def op(self, items):
        def run():
            compiled, problems = clean_compile("ConsumeItems", self.sources, self.prelude,
                                               self.stats, self.references)
            return problems or execute(compiled, stream_run(items), self.stats,
                                       stream_check(items))
        return run


def stream_run(items):
    return {"entry_class": "ConsumeItems", "entry_method": "run",
            "args": {"A": [items]}, "channels": {"ch": "items"}}


def stream_check(items):
    def check(report):
        got = report.transcripts.get("B", [])
        return [] if got == items else [f"B printed {len(got)} items, not the {len(items)} sent"]
    return check


class SortWorkload(Workload):
    """MergeSort and QuickSort on seeded lists of integers whose sizes, 8 to
    150, are the same in every cycle, each size sorted by one of the two
    algorithms, alternating up the sizes. Every operation
    compiles both files as one program, as ``choreo project MergeSort.chor
    QuickSort.chor`` does, then runs one."""

    CLASSES = ("Mergesort", "Quicksort")

    def __init__(self, seed, stats):
        super().__init__(seed, stats)
        self.sources = [(name, self.source(name)) for name in ("MergeSort", "QuickSort")]
        self.reference_compile("sort", self.sources)
        self.cycle(0)

    def cycle(self, c):
        rng = self.rng(c)
        sizes = gen.grid_sizes(SORT_OPS, SORT_LO, SORT_HI)
        ops = [self.op(self.CLASSES[i % 2], gen.sort_input(rng, n))
               for i, n in enumerate(sizes)]
        rng.shuffle(ops)
        return ops

    def op(self, cls, xs):
        run_spec = {"entry_class": cls, "entry_method": "sort",
                    "args": {"A": [xs]}, "channels": SORT_CHANNELS}
        want = ["list"] + sorted(xs)

        def check(report):
            got = report.returns.get("A")
            return [] if got == want else [f"A returned {got}, not the sorted input"]

        def run():
            compiled, problems = clean_compile("sort", self.sources, self.prelude,
                                               self.stats, self.references)
            return problems or execute(compiled, run_spec, self.stats, check)
        return run


WORKLOADS = {"compile": CompileWorkload, "stream": StreamWorkload, "sort": SortWorkload}


# ------------------------------------------------------------ the loop

def run_op(op, stats):
    stats.attempted += 1
    try:
        problems = op()
    except Exception as e:  # a failure the operation did not anticipate
        problems = [f"{type(e).__name__}: {e}"]
    if problems:
        stats.failed += 1
        stats.problems.extend(problems[:3])


def run_cycles(workload, seconds, tracer=None):
    """Whole cycles until ``seconds`` have passed; returns each cycle's op ids."""
    cycles = []
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        ids = []
        for op in workload.cycle(len(cycles)):
            workload.stats.calibrate()
            if tracer is not None:
                tracer.op = workload.stats.attempted
            ids.append(workload.stats.attempted)
            run_op(op, workload.stats)
        cycles.append(ids)
    workload.stats.calibrate()
    return cycles


def measure_setup(args, stats):
    """Set-up time of fresh processes, as measured and at reference speed:
    the medians over ``SETUP_REPEATS`` processes of the time from starting
    the process to the end of its set-up, which the process reports on the
    clock this one reads (CLOCK_MONOTONIC, shared between processes)."""
    raw, scaled = [], []
    for _ in range(SETUP_CAL):
        stats.calibrate()
    for _ in range(SETUP_REPEATS):
        i = len(stats.cal)
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                              args.workload, "--seed", str(args.seed), "--seconds",
                              str(args.seconds), "--setup-only"],
                             cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
        raw.append(float(out.split()[-1]) - t0)
        for _ in range(SETUP_CAL):
            stats.calibrate()
        bracket = stats.cal[i - SETUP_CAL:i + SETUP_CAL]
        scaled.append(raw[-1] * CAL_REF_S / statistics.mean(bracket))
    return statistics.median(raw), statistics.median(scaled)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(stats, setup):
    setup_raw, setup_s = setup
    metrics = {"setup_s": (setup_s, "s")}
    lines = [f"times at reference speed (calibration loop {1e3 * CAL_REF_S:.1f} ms; "
             f"it took a median {1e3 * statistics.median(stats.cal):.3f} ms here); "
             f"as measured in brackets",
             f"setup_s          {setup_s:10.4f} s   [{setup_raw:.4f}]  "
             f"median of {SETUP_REPEATS} set-ups"]
    for stage in STAGES:
        ms = [1e3 * v for v in stats.scaled(stage)]
        raw = [1e3 * v for v in stats.raw(stage)]
        p50, p90 = statistics.median(ms), percentile(ms, 90)
        beyond = sum(1 for v in ms if v > p90)
        metrics[f"{stage}_ms_p50"] = (p50, "ms")
        metrics[f"{stage}_ms_p90"] = (p90, "ms")
        lines.append(f"{stage + '_ms':16} p50 {p50:9.3f} [{statistics.median(raw):.3f}]  "
                     f"p90 {p90:9.3f} [{percentile(raw, 90):.3f}] ms   "
                     f"n={len(ms)}, {beyond} beyond p90")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    lines.append(f"peak_rss_mb      {rss_mb:10.2f} MB")
    return metrics, lines


def deep_stream_probe(workload):
    """One ConsumeItems run past the evaluators' recursion ceiling."""
    items = gen.stream_items(workload.rng("deep stream"), DEEP_STREAM_ITEMS)
    compiled = compile_program([("ConsumeItems", workload.source("ConsumeItems"))],
                               workload.prelude)
    run = stream_run(items)
    ok = {}
    for stage, call in (
        ("interpreter", lambda: interpreter.eval_global(
            compiled.checked, "ConsumeItems", "run", run["args"], run["channels"])),
        ("distributed", lambda: distributed.eval_distributed(
            compiled.units, "ConsumeItems", ["A", "B"], "run", run["args"], run["channels"],
            DEEP_STREAM_DEADLINE_S)),
    ):
        t0 = time.perf_counter()
        try:
            report = call()
            ok[stage] = int(report.status == "ok" and not stream_check(items)(report))
        except Exception:
            ok[stage] = 0
    return {"interpreter.deep_stream_ok": (ok["interpreter"], "bool"),
            "distributed.deep_stream_ok": (ok["distributed"], "bool"),
            "distributed.deep_stream_fail_s": (time.perf_counter() - t0, "s")}


def per_layer(tracer, cycles, overhead_pct, extra):
    n_ops = sum(len(ids) for ids in cycles)
    table = spans.layer_table(tracer.spans)
    first = set(cycles[0])
    counts = spans.layer_table([s for s in tracer.spans if s.op in first])

    def per_op(name, key="self_ms"):
        return table[name][key] / n_ops

    messages = counts["runtime.send"]["calls"] + counts["runtime.send_label"]["calls"]
    all_messages = table["runtime.send"]["calls"] + table["runtime.send_label"]["calls"]
    metrics = {
        "lexer.ms": (per_op("lexer"), "ms"),
        "lexer.tokens": (counts["lexer"]["count"], "count"),
        "lexer.tokens_per_ms": (table["lexer"]["count"] / table["lexer"]["self_ms"], "1/ms"),
        "parser.ms": (per_op("parser"), "ms"),
        "parser.desugar_ms": (per_op("parser.desugar"), "ms"),
        "parser.decls": (counts["parser"]["count"], "count"),
        "checker.ms": (per_op("checker"), "ms"),
        "checker.diagnostics": (counts["checker"]["count"], "count"),
        "projector.ms": (per_op("projector"), "ms"),
        "projector.units": (counts["projector"]["count"], "count"),
        "merging.calls": (counts["merging"]["calls"], "count"),
        "merging.ms": (per_op("merging"), "ms"),
        "printer.ms": (per_op("printer"), "ms"),
        "printer.local_loc": (counts["printer"]["count"], "count"),
        "interpreter.ms": (per_op("interpreter"), "ms"),
        "distributed.ms": (per_op("distributed", "total_ms"), "ms"),
        "distributed.cpu_ms": (per_op("distributed", "cpu_ms"), "ms"),
        "runtime.messages": (messages, "count"),
        "runtime.labels": (counts["runtime.send_label"]["calls"], "count"),
        "runtime.recv_wait_ms": (per_op("runtime.recv", "total_ms")
                                 + per_op("runtime.recv_label", "total_ms"), "ms"),
        "runtime.send_wait_ms": (per_op("runtime.send", "total_ms")
                                 + per_op("runtime.send_label", "total_ms"), "ms"),
        "runtime.us_per_message": (1e3 * table["distributed"]["total_ms"] / max(all_messages, 1),
                                   "us"),
        "differential.ms": (per_op("differential"), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    metrics.update(extra)
    lines = [f"{'span':20} {'calls':>8} {'total_ms':>12} {'self_ms':>12} {'count':>9}"]
    for name, row in table.items():
        lines.append(f"{name:20} {row['calls']:8d} {row['total_ms']:12.2f} "
                     f"{row['self_ms']:12.2f} {row['count']:9d}")
    lines.append(f"{n_ops} traced operations in {len(cycles)} cycles; ms figures are "
                 f"per operation, counts are for the first cycle")
    return metrics, table, lines


def tracing_overhead(workload):
    """Traced over untraced time of cycle 0, in percent: each operation runs
    once each way, alternating which goes first."""
    totals = {False: 0.0, True: 0.0}
    tracer = spans.Tracer()
    for i, op in enumerate(workload.cycle(0)):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            run_op(op, workload.stats)
            totals[traced] += time.perf_counter() - t0
            if traced:
                tracer.uninstall()
    return 100.0 * (totals[True] / totals[False] - 1.0)


def unpinned_cycle(workload):
    """Cycle 0 once more, traced, on every CPU the process was given: the
    distributed runs' time per operation and per message when their threads
    may move between CPUs, as they do for users of ``choreo run``."""
    tracer = spans.Tracer()
    os.sched_setaffinity(0, GIVEN_CPUS)
    try:
        with tracer:
            ops = workload.cycle(0)
            for op in ops:
                run_op(op, workload.stats)
    finally:
        pin_to_one_cpu()
    table = spans.layer_table(tracer.spans)
    messages = table["runtime.send"]["calls"] + table["runtime.send_label"]["calls"]
    ms = table["distributed"]["total_ms"]
    return {"distributed.unpinned_ms": (ms / len(ops), "ms"),
            "runtime.us_per_message_unpinned": (1e3 * ms / max(messages, 1), "us")}


def traced_run(workload, name, seconds):
    """The tracing overhead, then traced whole cycles, then cycle 0 traced
    and unpinned, then the deep-stream probe, untraced."""
    overhead_pct = tracing_overhead(workload)
    tracer = spans.Tracer()
    with tracer:
        t_start = time.perf_counter()
        cycles = run_cycles(workload, seconds, tracer)
    extra = {"host.cal_ms": (1e3 * statistics.median(workload.stats.cal), "ms")}
    extra.update(unpinned_cycle(workload))
    extra.update(deep_stream_probe(workload))
    metrics, table, lines = per_layer(tracer, cycles, overhead_pct, extra)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-{workload.seed}"
    tracer.write_jsonl(OUT_DIR / f"{stem}.spans.jsonl.gz", t_start)
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    (OUT_DIR / f"{stem}.summary.json").write_text(json.dumps({
        "layers": table, "metrics": {k: v for k, (v, _) in metrics.items()},
        "counts": counts, "digests": workload.references,
    }, indent=1, sort_keys=True) + "\n")
    return metrics, lines


def join_workers():
    """Wait for any worker thread an evaluator left behind."""
    for t in threading.enumerate():
        if t is not threading.main_thread():
            t.join(RUN_DEADLINE_S + 5)


GIVEN_CPUS = os.sched_getaffinity(0)


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(GIVEN_CPUS)})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    sys.setrecursionlimit(RECURSION_LIMIT)
    pin_to_one_cpu()

    stats = Stats()
    workload = WORKLOADS[args.workload](args.seed, stats)
    if args.setup_only:
        print(time.perf_counter())
        return 0
    if args.trace:
        metrics, lines = traced_run(workload, args.workload, args.seconds)
    else:
        setup = measure_setup(args, stats)
        t0 = time.perf_counter()
        cycles = run_cycles(workload, args.seconds)
        elapsed = time.perf_counter() - t0
        metrics, lines = end_to_end(stats, setup)
        lines.insert(0, f"{stats.attempted} operations in {len(cycles)} cycles, "
                        f"{elapsed:.1f} s")
    join_workers()
    error_rate = stats.failed / max(stats.attempted, 1)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print("  " + line)
    print(f"  error_rate       {error_rate:10.4f}     {stats.failed} of {stats.attempted} "
          f"operations failed")
    for p in stats.problems[:10]:
        print(f"  FAILED: {p[:300]}")
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
