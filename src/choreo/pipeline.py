"""End-to-end front end: prelude loading plus parsing (which desugars) and
checking."""

from __future__ import annotations

import functools
from pathlib import Path

from .checker import check_program
from .diagnostics import Reporter
from .parser import parse_program
from .span import SourceFile

_PRELUDE_PATH = Path(__file__).with_name("prelude.chor")


@functools.lru_cache(maxsize=1)
def _prelude_state():
    text = _PRELUDE_PATH.read_text()
    reporter = Reporter()
    program, reporter = parse_program([("<prelude>", text)], reporter)
    if reporter.has_errors():
        raise RuntimeError(
            "prelude failed to parse:\n"
            + "\n".join(d.render() for d in reporter.errors))
    return program


def load_prelude():
    """The prelude declarations as a parsed program fragment."""
    return _prelude_state()


def prelude_names():
    return frozenset(d.name for d in load_prelude().decls)


def front_end(sources, reporter=None):
    """Parse one program from (name, text) pairs, behind the prelude
    declarations."""
    reporter = reporter if reporter is not None else Reporter()
    program, reporter = parse_program(sources, reporter)
    program.decls = list(load_prelude().decls) + program.decls
    return program, reporter


def compile_sources(sources, reporter=None):
    """Full front end plus checking; returns (the checked program, Reporter)."""
    reporter = reporter if reporter is not None else Reporter()
    program, reporter = front_end(sources, reporter)
    if reporter.has_errors():
        return None, reporter
    checked, reporter = check_program(program, reporter, prelude_names())
    return checked, reporter


def compile_files(paths, reporter=None):
    sources = []
    for p in paths:
        p = Path(p)
        sources.append(SourceFile(str(p), p.read_text()))
    return compile_sources(sources, reporter)
