import importlib.util
import sys

import pytest

from choreo.corpus import corpus_root, positive_entries
from choreo.diagnostics import Reporter
from choreo.pipeline import compile_files, compile_sources
from choreo.projector import project_program
from choreo.types import reduce_type, substitute


def compile_text(text, name="test.chor"):
    checked, reporter = compile_sources([(name, text)])
    return checked, reporter


def compile_ok(text, name="test.chor"):
    checked, reporter = compile_text(text, name)
    assert not reporter.has_errors(), "\n".join(d.render() for d in reporter.errors)
    return checked


def supertypes(checker, t):
    """Every supertype of the normal type ``t``, ``t`` first: the entries of
    its declaration's ``supertype_closure``, instantiated at ``t``."""
    return [reduce_type(substitute(checker.self_type(sup), checker.instantiate(subst, actuals)))
            for sup, subst, actuals in checker.supertype_instances(t)]


@pytest.fixture(scope="session")
def corpus_compiled():
    """name -> (CorpusProgram, Checker, LocalProgram); all must build."""
    out = {}
    for prog in positive_entries():
        checked, reporter = compile_files([prog.path])
        assert not reporter.has_errors(), (
            prog.name + ":\n" + "\n".join(d.render() for d in reporter.errors))
        units, reporter = project_program(checked, reporter)
        assert not reporter.has_errors(), (
            prog.name + ":\n" + "\n".join(d.render() for d in reporter.errors))
        out[prog.name] = (prog, checked, units)
    return out


@pytest.fixture
def recursion_limit_1000():
    """Python's default recursion limit, which library callers have, for one
    test; the limit it replaces is restored afterwards."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def perfbench_gen():
    """The benchmark's input generators, ``perfbench/gen.py``, read as they
    are."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", corpus_root().parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen
