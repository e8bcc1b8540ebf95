"""Choreographic test runner.

Discovers @Test-annotated methods (static, parameterless, void), projects
the program, and runs each case as a distributed run of its own
(``distributed.eval_distributed``, with a fresh ``ExecutionContext``) whose
entry is the static test method of each role's unit. A case passes when
every role finishes without assertion failures or errors; a case whose
run cannot start fails with the run's error. The first failing role is
listed first and cancels its peers at once; a missing selection leaves
every role waiting, a proven deadlock that fails the case at once as a
deadlock-timeout.
"""

from __future__ import annotations

from . import surface as S
from .diagnostics import Code, Reporter
from .distributed import eval_distributed
from .projector import project_program
from .record import field, record
from .types import TVoid


@record
class TestCase:
    class_name: str
    method_name: str
    roles: list


@record
class CaseResult:
    case: TestCase
    passed: bool
    duration: float
    # (role, status, message); no role when the run could not start
    failures: list = field(default_factory=list)

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
            if not isinstance(checked.return_type(mi), TVoid):
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
    """Project the program and run each case in isolation."""
    reporter = reporter if reporter is not None else Reporter()
    if cases is None:
        cases, reporter = discover_tests(checked, reporter)
    local_program, reporter = project_program(checked, reporter)
    if reporter.has_errors():
        return [], reporter
    return [_run_case(local_program, case, deadline) for case in cases], reporter


def _run_case(local_program, case, deadline):
    """Runs ``case`` as a distributed run of its own: a ``@Test`` method is
    a static, parameterless entry."""
    report = eval_distributed(local_program, case.class_name, case.roles, case.method_name,
                              deadline=deadline)
    failures = [(r, o.status, o.error) for r, o in report.outcomes.items() if o.status != "ok"]
    if report.status != "ok" and not failures:  # the run never started
        failures = [(None, report.status, report.error)]
    return CaseResult(case, not failures, report.duration, failures)


def summarize(results):
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark} {r.name} ({r.duration:.3f}s)")
        for role, status, message in r.failures:
            where = "" if role is None else f"{role}: "
            lines.append(f"     {where}{status}: {message}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} cases passed")
    return "\n".join(lines)
