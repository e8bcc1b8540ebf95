"""Acceptance criteria.

Each test pins one acceptance criterion at its stated tolerance and prints a
single PASS line when it holds; a failed assertion is the FAIL line.
"""

import random
import time

import pytest

from choreo import surface as S
from choreo.corpus import corpus_root, extra_path, negative_entries, positive_entries
from choreo.diagnostics import Code, Reporter
from choreo.differential import differential_run
from choreo.distributed import eval_distributed
from choreo.local import LSwitch, LThrow
from choreo.merging import MergeError, big_merge, merge_stm, normalize_stm
from choreo.metrics import CSV_HEADER, collect_metrics
from choreo.pipeline import compile_files
from choreo.printer import render_unit
from choreo.projector import project_program
from choreo.testkit import run_tests
from choreo.types import TSym, app


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def load(name, sub="positive"):
    checked, reporter = compile_files([corpus_root() / sub / name])
    assert not reporter.has_errors(), "\n".join(d.render() for d in reporter.errors)
    return checked


def test_criterion_01_negative_diagnostic_suite():
    started = time.perf_counter()
    expected = {
        "type_mismatch.chor": ("TypeMismatch", 3),
        "role_mismatch.chor": ("TypeMismatch", 4),
        "role_aliasing.chor": ("RoleAliasing", 2),
        "cyclic_symchannel.chor": ("CyclicInheritance", 1),
        "illegal_overload.chor": ("IllegalOverload", 4),
    }
    for fname, (code, line) in expected.items():
        path = corpus_root() / "negative" / fname
        _, reporter = compile_files([path])
        hits = [d for d in reporter.errors
                if d.code.value == code and d.span.line == line]
        assert hits, f"{fname}: expected {code} at line {line}, got " + "; ".join(
            f"{d.code.value}@{d.span.line}" for d in reporter.errors)
        same_span = [d for d in reporter.errors
                     if (d.span.start, d.span.end) == (hits[0].span.start, hits[0].span.end)]
        assert all(d.code.value == code for d in same_span)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"negative suite took {elapsed:.2f}s"
    report(1, f"five error-box programs produce their designated diagnostics "
              f"at the expected lines in {elapsed:.2f}s")


def test_criterion_02_knowledge_of_choice():
    wrong_path = corpus_root() / "negative" / "wrong_consume.chor"
    checked, reporter = compile_files([wrong_path])
    assert not reporter.has_errors()
    units, reporter = project_program(checked, reporter)
    failures = [d for d in reporter.errors if d.code is Code.MergeFailure]
    assert failures, "wrong consumeItems should fail to merge"
    assert "'B'" in failures[0].message
    assert failures[0].span.line == 7  # the conditional
    assert units.unit("WrongConsume_B") is None

    checked = load("ConsumeItems.chor")
    units, reporter = project_program(checked, Reporter())
    assert not reporter.has_errors()
    b = units.unit("ConsumeItems_B").decl
    switches = [n for m in b.methods if m.body is not None
                for n in S.walk(m.body) if isinstance(n, LSwitch)]
    assert len(switches) == 1
    sw = switches[0]
    assert sorted(label for label, _ in sw.cases) == ["GO", "STOP"]
    assert isinstance(sw.default, LThrow)
    report(2, "wrong consumeItems fails with MergeFailure at role B naming the "
              "conditional; the fixed version projects to a GO/STOP switch with "
              "a default throw")


def test_criterion_03_golden_projection():
    checked = load("HelloRoles.chor")
    units, _ = project_program(checked, Reporter())
    golden_a = """
    class HelloRoles_A {
        public static void sayHello() {
            String a = "Hello from A";
            System.out.println(a);
        }
    }
    """
    golden_b = """
    class HelloRoles_B {
        public static void sayHello() {
            String b = "Hello from B";
            System.out.println(b);
        }
    }
    """
    tok = lambda s: s.replace("{", " { ").replace("}", " } ").split()
    assert tok(render_unit(units.unit("HelloRoles_A"))) == tok(golden_a)
    assert tok(render_unit(units.unit("HelloRoles_B"))) == tok(golden_b)

    checked = load("DistAuth.chor")
    units, _ = project_program(checked, Reporter())
    client = units.unit("DistAuth_Client").decl
    auth = [m for m in client.methods if m.name == "authenticate"][0]
    switches = [n for n in S.walk(auth.body) if isinstance(n, LSwitch)]
    assert len(switches) == 1
    sw = switches[0]
    assert [label for label, _ in sw.cases] == ["OK", "KO"]
    assert isinstance(sw.default, LThrow)
    from choreo.printer import render_exp
    assert render_exp(sw.guard) == "ch_Client_IP.<AuthBranch>select(Unit.id)"
    report(3, "HelloRoles units match the compiled listings modulo whitespace; "
              "DistAuth_Client holds the merged OK/KO switch with a default throw")


def test_criterion_04_differential_compliance(corpus_compiled):
    started = time.perf_counter()
    for name, (prog, checked, units) in corpus_compiled.items():
        for run in prog.runs:
            cmp = differential_run(checked, run.entry_class, run.entry_method,
                                   run.args, run.channels, run.deadline,
                                   local_program=units)
            assert cmp.equal, f"{name}/{run.name}: {cmp.summary()}"

    _, ms_checked, ms_units = corpus_compiled["MergeSort"]
    chans = {"ch_AB": "a", "ch_BC": "b", "ch_CA": "c"}
    rng = random.Random(20260810)
    for _ in range(100):
        data = [rng.randrange(1000) for _ in range(rng.randrange(0, 33))]
        cmp = differential_run(ms_checked, "Mergesort", "sort", {"A": [data]},
                               chans, local_program=ms_units)
        assert cmp.equal, cmp.summary()
        assert cmp.distributed_report.returns["A"] == ["list"] + sorted(data)
        assert cmp.global_report.returns["A"] == ["list"] + sorted(data)

    _, ka_checked, ka_units = corpus_compiled["Karatsuba"]
    kchans = {"ch_AB": "a", "ch_BC": "b", "ch_CA": "c"}
    for _ in range(100):
        n1 = rng.randrange(-999999, 1000000)
        n2 = rng.randrange(-999999, 1000000)
        cmp = differential_run(ka_checked, "Karatsuba", "multiply",
                               {"A": [n1, n2]}, kchans, local_program=ka_units)
        assert cmp.equal, cmp.summary()
        assert cmp.distributed_report.returns["A"] == n1 * n2
        assert cmp.global_report.returns["A"] == n1 * n2
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"differential budget exceeded: {elapsed:.1f}s"
    report(4, f"all corpus runs agree; 100 random mergesorts and 100 random "
              f"multiplications match exactly in {elapsed:.1f}s")


def test_criterion_05_deadlock_freedom(corpus_compiled):
    runs = 0
    for name, (prog, checked, units) in corpus_compiled.items():
        info_roles = {}
        for run in prog.runs:
            info = checked.decl_info(run.entry_class)
            for _ in range(20):
                rpt = eval_distributed(units, run.entry_class, info.role_names,
                                       run.entry_method, run.args, run.channels,
                                       deadline=10.0)
                assert rpt.status == "ok", f"{name}/{run.name}: {rpt.status} {rpt.error}"
                runs += 1
    report(5, f"{runs} repeated distributed runs, none reached the 10 s deadline")


def test_criterion_06_both_or_neither(corpus_compiled):
    _, checked, units = corpus_compiled["DistAuth"]
    chans = {"ch_Client_IP": "a", "ch_Service_IP": "b"}
    roles = ["Client", "Service", "IP"]
    ok = eval_distributed(units, "DistAuth", roles, "login",
                          {"Client": ["alice", "pwd123"]}, chans, 10.0)
    assert ok.status == "ok"
    left = dict(ok.returns["Client"][2])["left"]
    right = dict(ok.returns["Service"][2])["right"]
    assert left[0] == "optional" and left[1] is not None
    assert right[0] == "optional" and right[1] is not None
    assert left[1] == right[1]

    ko = eval_distributed(units, "DistAuth", roles, "login",
                          {"Client": ["alice", "wrong"]}, chans, 10.0)
    assert ko.status == "ok"
    assert dict(ko.returns["Client"][2])["left"] == ("optional", None)
    assert dict(ko.returns["Service"][2])["right"] == ("optional", None)
    report(6, "valid credentials yield present-and-equal tokens at Client and "
              "Service; invalid credentials yield empty at both")


def test_criterion_07_channel_hierarchy(corpus_compiled):
    _, checked, _ = corpus_compiled["MergeSort"]
    ck = checked
    info = checked.decl_info("Mergesort")
    a, b, _c = info.role_vars
    t = TSym("Object")
    sym = app(TSym("SymChannel"), a, b, t)
    facts = [
        (sym, app(TSym("DiDataChannel"), a, b, t)),
        (sym, app(TSym("DiDataChannel"), b, a, t)),
        (sym, app(TSym("DiSelectChannel"), a, b)),
        (sym, app(TSym("DiSelectChannel"), b, a)),
        (sym, app(TSym("DiChannel"), a, b, t)),
        (sym, app(TSym("BiChannel"), a, b, t, t)),
    ]
    for sub, sup in facts:
        assert ck.is_subtype(sub, sup)
    assert not ck.is_subtype(app(TSym("SymChannel"), b, a, t), sym)
    report(7, "the six prelude subtype facts hold and the role-swapped "
              "SymChannel is not a subtype")


def _random_local_stm(rng, depth=2):
    from choreo.local import (
        LAssign, LBinary, LBlock, LCall, LExpStm, LIf, LLit, LName, LNil,
        LReturn, LTE, LUnit, LUnitCall, LVarDecl,
    )

    def exp(d):
        choices = ["unit", "name", "lit"]
        if d > 0:
            choices += ["ucall", "call", "bin"]
        kind = rng.choice(choices)
        if kind == "unit":
            return LUnit()
        if kind == "name":
            return LName(rng.choice(["x", "y", "ch"]))
        if kind == "lit":
            return LLit(rng.choice([1, 2, "a", True, None]))
        if kind == "ucall":
            return LUnitCall([exp(d - 1) for _ in range(rng.randrange(1, 3))])
        if kind == "call":
            return LCall(LName("ch"), [], rng.choice(["com", "m"]),
                         [exp(d - 1) for _ in range(rng.randrange(0, 3))])
        return LBinary(exp(d - 1), rng.choice(["+", "<", "=="]), exp(d - 1))

    def stm(d):
        kind = rng.choice(
            ["nil", "ret", "exp", "var", "asg"] + (["if", "block", "switch"] if d > 0 else []))
        if kind == "nil":
            return LNil()
        if kind == "ret":
            return LReturn(exp(1) if rng.random() < 0.8 else None)
        if kind == "exp":
            return LExpStm(exp(1), stm(d - 1) if d else LNil())
        if kind == "var":
            return LVarDecl(LTE(rng.choice(["Integer", "String"])),
                            rng.choice(["v", "w"]), exp(1),
                            stm(d - 1) if d else LNil())
        if kind == "asg":
            return LAssign(LName("x"), "=", exp(1), stm(d - 1) if d else LNil())
        if kind == "if":
            return LIf(exp(1), stm(d - 1), stm(d - 1), stm(d - 1))
        if kind == "block":
            return LBlock(stm(d - 1), stm(d - 1))
        labels = rng.sample(["GO", "STOP", "L", "R"], rng.randrange(1, 4))
        return LSwitch(LCall(LName("ch"), [], "select", [LUnit()]),
                       [(label, stm(d - 1)) for label in labels],
                       LThrow("unexpected selection label"), stm(d - 1))

    return stm(depth)


def test_criterion_08_merge_and_normalise_properties(corpus_compiled):
    from test_merging import harvest_branch_pairs, sort_switches

    instances = 0
    pairs = harvest_branch_pairs(corpus_compiled)
    for left, right in pairs:
        for side in (left, right):
            assert normalize_stm(side) == side
            assert merge_stm(side, side) == side
            instances += 1
        try:
            ab = merge_stm(left, right)
        except MergeError:
            continue
        assert sort_switches(ab) == sort_switches(merge_stm(right, left))
        instances += 1

    rng = random.Random(8)
    while instances < 520:
        stm = normalize_stm(_random_local_stm(rng))
        assert normalize_stm(stm) == stm
        assert merge_stm(stm, stm) == stm
        other = normalize_stm(_random_local_stm(rng))
        try:
            ab = merge_stm(stm, other)
        except MergeError:
            instances += 1
            continue
        assert sort_switches(ab) == sort_switches(merge_stm(other, stm))
        instances += 2

    # The worked example: Unit.id(Unit.id) merged against nil is blank.
    from choreo.local import LExpStm, LNil, LUnit, LUnitCall

    merged = big_merge([LExpStm(LUnitCall([LUnit()]), LNil()), LNil()])
    assert merged == LNil()
    report(8, f"merge idempotence/symmetry and normaliser idempotence over "
              f"{instances} harvested and generated instances; the unit-residue "
              f"pair merges to blank")


def test_criterion_09_test_kit_behaviour():
    checked = load("VitalsStreaming.chor")
    results, reporter = run_tests(checked)
    assert not reporter.has_errors()
    assert len(results) == 1
    good = results[0]
    assert good.case.roles == ["Device", "Gatherer"]
    assert good.passed

    broken_checked, reporter = compile_files([extra_path("VitalsStreamingNoop.chor")])
    assert not reporter.has_errors()
    results, _ = run_tests(broken_checked)
    assert len(results) == 1
    bad = results[0]
    assert not bad.passed
    assert any(role == "Gatherer" and "bad pseudonymisation" in (msg or "")
               for role, _status, msg in bad.failures)
    report(9, "VitalsStreamingTest discovers one two-worker case that passes; "
              "the no-op pseudonymiser fails it with 'bad pseudonymisation'")


def test_criterion_10_metrics_harness():
    paths = [corpus_root() / "positive" / n for n in
             ("HelloRoles.chor", "DistAuth.chor", "MergeSort.chor", "DistAuth10.chor")]
    rows, reporter = collect_metrics(paths, warmup=2, measured=5)
    assert not reporter.has_errors()
    assert CSV_HEADER == ("program,choral_loc,roles,conditionals,local_loc,"
                          "expansion_pct,typecheck_ms,projection_ms")
    by_name = {r.program: r for r in rows}
    assert (by_name["HelloRoles"].roles, by_name["HelloRoles"].conditionals) == (2, 0)
    assert (by_name["DistAuth"].roles, by_name["DistAuth"].conditionals) == (3, 1)
    assert (by_name["MergeSort"].roles, by_name["MergeSort"].conditionals) == (3, 4)
    assert (by_name["DistAuth10"].roles, by_name["DistAuth10"].conditionals) == (10, 1)
    for row in rows:
        assert row.typecheck_ms < 250.0, f"{row.program}: {row.typecheck_ms:.1f}ms"
        assert row.projection_ms < 250.0, f"{row.program}: {row.projection_ms:.1f}ms"
    budget = max(r.typecheck_ms + r.projection_ms for r in rows)
    report(10, f"Table columns and role/conditional counts match; slowest file "
               f"checks+projects in {budget:.1f} ms (< 250 ms each)")
