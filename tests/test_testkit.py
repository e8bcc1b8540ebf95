"""Test discovery and the per-case worker runner."""

import time

import pytest
from conftest import compile_ok, compile_text

from choreo import testkit
from choreo.corpus import extra_path
from choreo.diagnostics import Code, Reporter
from choreo.pipeline import compile_files
from choreo.projector import project_program
from choreo.runtime import ChannelRegistry, ExecutionContext
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
    assert [r.passed for r in results] == [True, True]
    # A fresh registry would have rejected a third claimant otherwise; also
    # verify a new registry starts empty.
    assert ChannelRegistry(ExecutionContext(None)).keys() == []


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
    program, reporter = project_program(checked, Reporter(), annotate=True)
    assert not reporter.has_errors()
    case = testkit.TestCase("Sel", "t", ["A", "B"],
                            {"A": program.unit("NoSel_A"), "B": program.unit("Sel_B")})
    started = time.monotonic()
    result = testkit._run_case(program, case, deadline=10.0)
    assert time.monotonic() - started < 1.0
    assert not result.passed
    message = "deadlock: A receives on 'sel'; B receives on 'sel'"
    assert result.failures == [("A", "deadlock-timeout", message),
                               ("B", "deadlock-timeout", message)]
