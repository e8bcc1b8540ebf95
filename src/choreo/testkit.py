"""Choreographic test runner.

Discovers @Test-annotated methods (static, parameterless, void), projects
their classes with provenance annotations, and runs each case's roles, all
on one thread, against a fresh channel registry per case, with the
distributed evaluator's ``run_workers``. A case passes when every role
finishes without assertion failures or errors. The first failing role is
listed first and cancels its peers at once; a missing selection leaves
every role waiting, a proven deadlock that fails the case at once as a
deadlock-timeout.
"""

from __future__ import annotations

import time

from . import surface as S
from .diagnostics import Code, Reporter
from .distributed import run_workers
from .builtins import Console
from .projector import project_program
from .record import field, record
from .runtime import ChannelRegistry, ExecutionContext
from .types import TVoid


@record
class TestCase:
    class_name: str
    method_name: str
    roles: list
    units: dict = None  # role -> LocalUnit


@record
class CaseResult:
    case: TestCase
    passed: bool
    duration: float
    failures: list = field(default_factory=list)  # (role, status, message)

    @property
    def name(self):
        return f"{self.case.class_name}.{self.case.method_name}"

    def to_record(self):
        return {
            "name": self.name,
            "roles": list(self.case.roles),
            "status": "passed" if self.passed else "failed",
            "duration_s": round(self.duration, 6),
            "failures": [
                {"role": r, "status": s, "message": m} for r, s, m in self.failures
            ],
        }


def discover_tests(checked, reporter: Reporter = None):
    """Every @Test method obeying the shape rule; violations are diagnostics."""
    reporter = reporter if reporter is not None else Reporter()
    checker = checked._checker
    cases = []
    for info in checked.table.values():
        if info.is_prelude:
            continue
        for mi in info.methods:
            if mi.annotation("Test") is None:
                continue
            node = mi.node
            problems = []
            if not mi.is_static:
                problems.append("be static")
            if node.params:
                problems.append("have no parameters")
            ret = checker.denote(node.return_te, checker.method_scope(info, mi)) \
                if node.return_te is not None else None
            if not isinstance(ret, TVoid):
                problems.append("return no values")
            if problems:
                reporter.error(
                    Code.BadTestShape, node.span,
                    f"@Test method '{info.name}.{mi.name}' must "
                    + ", ".join(problems) + ".")
                continue
            if not _roles_confined(info, mi):
                reporter.error(
                    Code.BadTestShape, node.span,
                    f"@Test method '{info.name}.{mi.name}' may only involve the "
                    f"roles of its test class.")
                continue
            cases.append(TestCase(info.name, mi.name, list(info.role_names)))
    return cases, reporter


def _roles_confined(info, mi):
    """Choreographies built inside a test must reuse the class's roles."""
    allowed = set(info.role_names)
    return all(set(node.roles) <= allowed for node in S.walk(mi.node.body)
               if isinstance(node, (S.New, S.StaticRef)))


def run_tests(checked, cases=None, deadline=10.0, reporter=None):
    """Project with provenance annotations and run each case in isolation."""
    reporter = reporter if reporter is not None else Reporter()
    if cases is None:
        cases, reporter = discover_tests(checked, reporter)
    local_program, reporter = project_program(checked, reporter, annotate=True)
    if reporter.has_errors():
        return [], reporter

    by_provenance = {}
    for unit in local_program.units:
        by_provenance[(unit.source_name, unit.role)] = unit

    results = []
    for case in cases:
        case.units = {role: by_provenance[(case.class_name, role)]
                      for role in case.roles}
        results.append(_run_case(local_program, case, deadline))
    return results, reporter


def _run_case(local_program, case, deadline):
    registry = ChannelRegistry(ExecutionContext(deadline))
    started = time.perf_counter()
    outcomes = run_workers(local_program, registry, Console(), {
        role: (case.units[role].generated_name, case.method_name, [], [])
        for role in case.roles})
    duration = time.perf_counter() - started
    failures = [(r, o.status, o.error) for r, o in outcomes.items() if o.status != "ok"]
    return CaseResult(case, not failures, duration, failures)


def summarize(results):
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark} {r.name} ({r.duration:.3f}s)")
        for role, status, message in r.failures:
            lines.append(f"     {role}: {status}: {message}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} cases passed")
    return "\n".join(lines)
