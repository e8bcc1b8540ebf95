"""Compiler metrics: size and timing columns for a set of programs.

Line counts skip blank and comment-only lines. Conditional counts include
both if and switch statements. Timings are means over configurable warmup
and measured iterations of checking and of projection.
"""

from __future__ import annotations

import time

from . import surface as S
from .checker import check_program
from .diagnostics import Reporter
from .lexer import lex
from .pipeline import front_end, prelude_names
from .projector import project_program
from .printer import render_unit
from .record import record
from .span import SourceFile

CSV_HEADER = "program,choral_loc,roles,conditionals,local_loc,expansion_pct,typecheck_ms,projection_ms"


@record
class MetricsRow:
    program: str
    choral_loc: int
    roles: int
    conditionals: int
    local_loc: int
    expansion_pct: int
    typecheck_ms: float
    projection_ms: float

    def csv(self):
        return (f"{self.program},{self.choral_loc},{self.roles},{self.conditionals},"
                f"{self.local_loc},{self.expansion_pct},"
                f"{self.typecheck_ms:.3f},{self.projection_ms:.3f}")


def count_loc(text):
    """The lines on which a token starts: blank and comment-only lines,
    as the lexer reads comments, do not count."""
    source = SourceFile("<loc>", text)
    return len({source.line_col(t.start)[0] for t in lex(source) if t.kind != "eof"})


def count_conditionals(program, skip=()):
    return sum(isinstance(node, (S.If, S.Switch))
               for decl in program.decls if decl.name not in skip for node in S.walk(decl))


def max_roles(program, skip=()):
    return max((len(d.roles) for d in program.decls if d.name not in skip), default=0)


def _mean_ms(fn, warmup, measured):
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(measured):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * sum(times) / max(len(times), 1)


def collect_metrics(paths, warmup=50, measured=200, reporter=None):
    """One MetricsRow per file that checks and projects cleanly."""
    reporter = reporter if reporter is not None else Reporter()
    rows = []
    skip = prelude_names()
    for path in paths:
        from pathlib import Path

        path = Path(path)
        text = path.read_text()
        program, perr = front_end([(str(path), text)])
        if perr.has_errors():
            for d in perr.items:
                reporter.add(d)
            continue
        checked, cerr = check_program(program, Reporter(), skip)
        if cerr.has_errors():
            for d in cerr.items:
                reporter.add(d)
            continue
        units, jerr = project_program(checked, Reporter())
        if jerr.has_errors():
            for d in jerr.items:
                reporter.add(d)
            continue

        local_loc = sum(count_loc(render_unit(u)) for u in units.units)
        choral_loc = count_loc(text)

        def run_check():
            check_program(program, Reporter(), skip)

        def run_project():
            project_program(checked, Reporter())

        typecheck_ms = _mean_ms(run_check, warmup, measured)
        projection_ms = _mean_ms(run_project, warmup, measured)
        rows.append(MetricsRow(
            program=path.stem,
            choral_loc=choral_loc,
            roles=max_roles(program, skip),
            conditionals=count_conditionals(program, skip),
            local_loc=local_loc,
            expansion_pct=round((local_loc - choral_loc) / choral_loc * 100) if choral_loc else 0,
            typecheck_ms=typecheck_ms,
            projection_ms=projection_ms,
        ))
    return rows, reporter


def to_csv(rows):
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"
