"""Test discovery and the per-case worker runner."""

import time

import pytest
from conftest import compile_ok, compile_text

from choreo import record, testkit
from choreo.corpus import extra_path
from choreo.diagnostics import Code, Reporter
from choreo.differential import differential_run
from choreo.local import LocalProgram
from choreo.pipeline import compile_files
from choreo.projector import project_program
from choreo.testkit import discover_tests, run_tests, summarize


def test_discovers_vitals_case(corpus_compiled):
    _, checked, _ = corpus_compiled["VitalsStreaming"]
    cases, reporter = discover_tests(checked)
    assert not reporter.has_errors()
    assert [(c.class_name, c.method_name) for c in cases] == [
        ("VitalsStreamingTest", "test1")]
    assert cases[0].roles == ["Device", "Gatherer"]


def test_no_annotations_means_no_cases():
    checked = compile_ok("class Quiet@A { static void maybe() { } }")
    cases, reporter = discover_tests(checked)
    assert cases == [] and not reporter.has_errors()


def test_test_with_parameter_is_a_diagnostic():
    checked = compile_ok("""
    class T@(A, B) {
        @Test
        public static void bad(Integer@A x) { }
    }
    """)
    cases, reporter = discover_tests(checked)
    assert cases == []
    assert any(d.code is Code.BadTestShape for d in reporter.errors)


def test_test_must_be_static_and_void():
    checked = compile_ok("""
    class T@(A, B) {
        @Test
        public Integer@A bad() { return 1@A; }
    }
    """)
    cases, reporter = discover_tests(checked)
    assert cases == []
    assert any(d.code is Code.BadTestShape for d in reporter.errors)


def test_roles_confined_to_test_class():
    checked = compile_ok("""
    class Other@(X, Y) {
        public Other(SymChannel@(X, Y)<Object> ch) { }
    }
    class T@(A, B) {
        @Test
        public static void ok() {
            SymChannel@(A, B)<Object> ch =
                TestUtils@(A, B).newLocalChannel("k"@[A, B]);
            Other@(A, B) o = new Other@(A, B)(ch);
        }
    }
    """)
    cases, reporter = discover_tests(checked)
    assert len(cases) == 1 and not reporter.has_errors()


def test_vitals_case_passes_with_stub(corpus_compiled):
    _, checked, _ = corpus_compiled["VitalsStreaming"]
    results, reporter = run_tests(checked)
    assert not reporter.has_errors()
    assert len(results) == 1
    assert results[0].passed
    assert results[0].case.roles == ["Device", "Gatherer"]


def test_noop_pseudonymiser_fails_with_message():
    checked, reporter = compile_files([extra_path("VitalsStreamingNoop.chor")])
    assert not reporter.has_errors()
    results, reporter = run_tests(checked)
    assert len(results) == 1
    assert not results[0].passed
    failures = results[0].failures
    assert any(role == "Gatherer" and "bad pseudonymisation" in (msg or "")
               for role, status, msg in failures)


def test_assertion_failure_does_not_hang_peers():
    checked = compile_ok("""
    class HalfFail@(A, B) {
        @Test
        public static void t() {
            SymChannel@(A, B)<Object> ch = TestUtils@(A, B).newLocalChannel("hf"@[A, B]);
            Assert@A.assertTrue("boom"@A, false@A);
            String@B got = ch.<String>com("never"@A);
        }
    }
    """)
    results, reporter = run_tests(checked, deadline=1.0)
    assert len(results) == 1
    r = results[0]
    assert not r.passed
    # A's failure comes first and cancels B at once.
    assert [(role, status) for role, status, _ in r.failures] == [
        ("A", "error"), ("B", "error")]
    assert r.failures[1][2] == "cancelled: A failed"
    assert r.duration < 1.0


def test_registry_isolation_between_cases():
    checked = compile_ok("""
    class TwoCases@(A, B) {
        @Test
        public static void one() {
            SymChannel@(A, B)<Object> ch = TestUtils@(A, B).newLocalChannel("same-key"@[A, B]);
            String@B got = ch.<String>com("x"@A);
        }
        @Test
        public static void two() {
            SymChannel@(A, B)<Object> ch = TestUtils@(A, B).newLocalChannel("same-key"@[A, B]);
            String@B got = ch.<String>com("y"@A);
        }
    }
    """)
    results, reporter = run_tests(checked)
    # A fresh run per case: one run would have rejected a third claimant.
    assert [r.passed for r in results] == [True, True]


def test_every_case_runs_once_and_summary_counts(corpus_compiled):
    _, checked, _ = corpus_compiled["VitalsStreaming"]
    results, _ = run_tests(checked)
    text = summarize(results)
    assert "1/1 cases passed" in text
    assert results[0].to_record()["status"] == "passed"


def test_missing_selection_fails_at_once():
    # B's unit waits for A's selection; A's unit, projected from a test
    # without one, skips it and waits for a reply instead.
    checked = compile_ok("""
    enum Choice@R { GO, STOP }
    class Sel@(A, B) {
        @Test
        public static void t() {
            SymChannel@(A, B)<Object> ch = TestUtils@(A, B).newLocalChannel("sel"@[A, B]);
            ch.<Choice>select(Choice@A.GO);
            switch (Choice@A.GO) {
                case GO -> { String@B got = ch.<String>com("go"@A); }
                default -> { String@B got = ch.<String>com("stop"@A); }
            }
        }
    }
    class NoSel@(A, B) {
        @Test
        public static void t() {
            SymChannel@(A, B)<Object> ch = TestUtils@(A, B).newLocalChannel("sel"@[A, B]);
            String@A reply = ch.<String>com("hi"@B);
        }
    }
    """)
    program, reporter = project_program(checked, Reporter())
    assert not reporter.has_errors()
    no_sel = program.unit("NoSel_A")
    program = LocalProgram([record.replace(no_sel, generated_name="Sel_A",
                                           decl=record.replace(no_sel.decl, name="Sel_A")),
                            program.unit("Sel_B")])
    case = testkit.TestCase("Sel", "t", ["A", "B"])
    started = time.monotonic()
    result = testkit._run_case(program, case, deadline=10.0)
    assert time.monotonic() - started < 1.0
    assert not result.passed
    message = "deadlock: A receives on 'sel'; B receives on 'sel'"
    assert result.failures == [("A", "deadlock-timeout", message),
                               ("B", "deadlock-timeout", message)]


def test_a_case_that_cannot_start_is_a_failed_case():
    checked = compile_ok("class Quiet@A { static void maybe() { } }")
    results, reporter = run_tests(checked, cases=[testkit.TestCase("Missing", "t", ["A"])])
    assert not reporter.has_errors()
    assert [r.passed for r in results] == [False]
    assert results[0].failures == [(None, "error", "missing projected unit 'Missing'")]


def test_summarize_prints_a_failure_without_a_role_as_its_status_and_message():
    checked = compile_ok("class Quiet@A { static void maybe() { } }")
    results, _ = run_tests(checked, cases=[testkit.TestCase("Missing", "t", ["A"])])
    assert summarize(results).splitlines()[1:] == [
        "     error: missing projected unit 'Missing'", "0/1 cases passed"]


def test_a_role_waiting_on_a_key_no_peer_claims_is_a_deadlock_at_once():
    # A sends on "k1" and finishes; B waits on "k2", which no role claims,
    # so every remaining role is blocked.
    checked = compile_ok("""
    class Dead@(A, B) {
        @Test
        public static void t() {
            SymChannel@(A, B)<Object> ch = TestUtils@(A, B).newLocalChannel("k1"@A, "k2"@B);
            ch.<Integer>com(1@A);
        }
    }
    """)
    started = time.perf_counter()
    results, _ = run_tests(checked, deadline=5.0)
    assert [(r.passed, r.failures) for r in results] == [
        (False, [("B", "deadlock-timeout", "deadlock: B receives on 'k2'")])]
    assert time.perf_counter() - started < 2.0


def test_an_overloaded_test_name_runs_the_test_method():
    # A case runs through the evaluators' entry rule: of the overloads of
    # an entry name, the one with the fewest parameters.
    checked = compile_ok("""
    class Over@(A, B) {
        public static void t(Integer@A x) { Assert@A.assertTrue("wrong overload"@A, false@A); }
        @Test
        public static void t() { System@A.out.println("test"@A); }
    }
    """)
    results, _ = run_tests(checked)
    assert [(r.name, r.passed, r.failures) for r in results] == [("Over.t", True, [])]
    cmp = differential_run(checked, "Over", "t")
    assert cmp.equal, cmp.summary()
    assert cmp.distributed_report.transcripts == {"A": ["test"]}
