"""The scripts under ``tools/``."""

import importlib.util
import subprocess
import sys
import types

import pytest

import choreo
from choreo.corpus import corpus_root
from choreo.local import LNil, stm_list

ROOT = corpus_root().parent


def load_ab():
    spec = importlib.util.spec_from_file_location("tools_ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_ab_compares_this_checkout_with_itself_for_one_round():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT), "--rounds", "1",
         "--workload", "compile"],
        capture_output=True, text=True, timeout=300, check=True).stdout
    lines = out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["compile", "compile"], ["compile", "oracle"], ["compile", "run"]]
    for line in lines:
        assert " ratio " in line and line.endswith(" inputs x 1 rounds"), line


def test_ab_times_the_startup_of_this_checkout_against_itself_for_two_rounds():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT), "--rounds", "2",
         "--startup"],
        capture_output=True, text=True, timeout=300, check=True).stdout
    lines = out.splitlines()
    assert [line.split()[:2] for line in lines] == [["startup", "import"], ["startup", "prelude"]]
    for line in lines:
        assert " ratio " in line and line.endswith(" 2 process pairs"), line


def test_ab_builds_the_inputs_of_every_workload():
    ab = load_ab()
    gen = ab.load_gen()
    names = {w: [item.name for item in ab.workload_inputs(w, gen, 1)]
             for w in ("compile", "stream", "sort")}
    assert len(names["stream"]) == 20 and len(names["sort"]) == 15
    assert names["sort"][:2] == ["Mergesort/9", "Quicksort/11"]
    assert "MergeSort/0" in names["compile"] and "DistAuth20" in names["compile"]
    negative = [name for name in names["compile"] if name.startswith("negative/")]
    assert len(negative) == 8 and "negative/wrong_consume" in negative


def change_side(**modules):
    """A stand-in for the change's package: this checkout's modules, with
    those named replaced."""
    change = types.SimpleNamespace(**{name: getattr(choreo, name) for name in (
        "diagnostics", "distributed", "interpreter", "pipeline", "printer", "projector")})
    for name, attrs in modules.items():
        setattr(change, name, types.SimpleNamespace(**attrs))
    return change


def test_ab_stops_when_the_two_sides_render_differently():
    ab = load_ab()
    item = ab.workload_inputs("compile", ab.load_gen(), 1)[0]
    change = change_side(printer={"render_unit": lambda unit: ""})
    with pytest.raises(SystemExit, match=f"ab: {item.name}: the two sides render differently"):
        ab.measure({"parent": choreo, "change": change}, [item], 1)


def test_ab_stops_when_the_two_sides_project_differently():
    ab = load_ab()
    item = ab.workload_inputs("compile", ab.load_gen(), 1)[0]

    def project_without_closing_nils(checked, reporter):
        # A chain that ends in None renders as one that ends in LNil() does.
        units, reporter = choreo.projector.project_program(checked, reporter)
        for unit in units.units:
            for method in getattr(unit.decl, "methods", []):
                last = stm_list(method.body)[-1:]
                if last and getattr(last[0], "cont", None) == LNil():
                    last[0].cont = None
        return units, reporter

    change = change_side(projector={"project_program": project_without_closing_nils})
    with pytest.raises(SystemExit,
                       match=f"ab: {item.name}: the two sides project to different units"):
        ab.measure({"parent": choreo, "change": change}, [item], 1)


def test_ab_times_only_the_compile_of_a_negative_program_and_compares_its_diagnostics():
    ab = load_ab()
    [item] = [item for item in ab.workload_inputs("compile", ab.load_gen(), 1)
              if item.name == "negative/type_mismatch"]
    times = ab.measure({"parent": choreo, "change": choreo}, [item], 2)
    assert {stage: len(times[item.name][stage]["change"]) for stage in ab.STAGES} == {
        "compile": 2, "oracle": 0, "run": 0}

    def compile_twice_reported(sources):
        checked, reporter = choreo.pipeline.compile_sources(sources)
        reporter.items.append(reporter.items[0])
        return checked, reporter

    change = change_side(pipeline={"compile_sources": compile_twice_reported})
    with pytest.raises(SystemExit, match=f"ab: {item.name}: the two sides give different "
                                         "diagnostics"):
        ab.measure({"parent": choreo, "change": change}, [item], 1)
