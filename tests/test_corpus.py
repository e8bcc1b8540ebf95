"""Corpus-wide guarantees: the prelude, positives, and the negative suite."""

import pytest

from choreo.corpus import negative_entries, positive_entries
from choreo.diagnostics import Code, Reporter, Severity
from choreo.differential import differential_run
from choreo.pipeline import compile_files, load_prelude, prelude_names
from choreo.projector import project_program
from choreo.types import TSym, app, pretty


def test_prelude_parses_and_checks():
    from conftest import compile_ok

    checked = compile_ok("class Anchor@A { }")
    # No prelude declaration produced an error during compilation.
    for name in ("Object", "String", "List", "SymChannel", "TestUtils", "Assert"):
        assert checked.decl_info(name) is not None


def test_prelude_hierarchy_facts():
    from conftest import compile_ok

    checked = compile_ok("class Probe@(A, B)<T@X> { SymChannel@(A, B)<T> ch; }")
    ck = checked._checker
    info = checked.decl_info("Probe")
    a, b = info.role_vars
    t = info.ftps[0].var
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
        assert ck.is_subtype(sub, sup), (pretty(sub), pretty(sup))
    assert not ck.is_subtype(app(TSym("SymChannel"), b, a, t), sym)


@pytest.mark.parametrize("prog", positive_entries(), ids=lambda p: p.name)
def test_positive_corpus_checks_projects_and_complies(prog):
    checked, reporter = compile_files([prog.path])
    assert not reporter.has_errors(), "\n".join(d.render() for d in reporter.errors)
    units, reporter = project_program(checked, reporter)
    assert not reporter.has_errors(), "\n".join(d.render() for d in reporter.errors)
    for run in prog.runs:
        cmp = differential_run(checked, run.entry_class, run.entry_method,
                               run.args, run.channels, run.deadline,
                               local_program=units)
        assert cmp.equal, f"{prog.name} / {run.name}: {cmp.summary()}"


@pytest.mark.parametrize("path,expected", negative_entries(),
                         ids=lambda v: getattr(v, "stem", ""))
def test_negative_corpus_expected_diagnostics(path, expected):
    checked, reporter = compile_files([path])
    if expected.get("phase") == "project":
        assert not reporter.has_errors()
        _, reporter = project_program(checked, reporter)
    errors = reporter.errors
    assert errors, f"{path.name} produced no errors"
    matching = [d for d in errors
                if d.code.value == expected["code"] and d.span.line == expected["line"]]
    assert matching, (
        f"{path.name}: wanted {expected['code']} at line {expected['line']}, got "
        + "; ".join(f"{d.code.value}@{d.span.line}" for d in errors))
    if "role" in expected:
        assert f"'{expected['role']}'" in matching[0].message
    # No spurious errors of other codes at the same span.
    span = matching[0].span
    for d in errors:
        if (d.span.start, d.span.end) == (span.start, span.end):
            assert d.code.value == expected["code"], d.render()


NEGATIVE_POSITIONS = {
    "bad_selection": [("BadSelectionAnnotation", 2, 5)],
    "cyclic_symchannel": [("CyclicInheritance", 1, 39)],
    "illegal_overload": [("IllegalOverload", 4, 5)],
    "role_aliasing": [("RoleAliasing", 2, 12)],
    "role_mismatch": [("TypeMismatch", 4, 34)],
    "role_set_change": [("RoleSetMismatch", 1, 57)],
    "type_mismatch": [("TypeMismatch", 3, 23)],
    "wrong_consume": [("MergeFailure", 7, 9)],
}


def test_negative_corpus_diagnostic_positions():
    """Every diagnostic of the negative corpus, with its line and column."""
    found = {}
    for path, _ in negative_entries():
        checked, reporter = compile_files([path])
        if not reporter.has_errors():
            _, reporter = project_program(checked, reporter)
        found[path.stem] = [(d.code.value, d.span.line, d.span.col) for d in reporter.items]
    assert found == NEGATIVE_POSITIONS


def test_positive_unit_counts_match_roles(corpus_compiled):
    for name, (_, checked, units) in corpus_compiled.items():
        for info in checked.table.values():
            if info.is_prelude:
                continue
            got = [u for u in units.units if u.source_name == info.name]
            assert len(got) == len(info.role_names)
