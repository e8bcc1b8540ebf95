"""The scripts under ``tools/``."""

import importlib.util
import re
import shutil
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


def test_ab_compares_this_checkout_with_itself_for_one_round(tmp_path):
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT), "--rounds", "1",
         "--workload", "compile"],
        capture_output=True, text=True, timeout=300, check=True).stdout
    *lines, count = out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["compile", "compile"], ["compile", "check"], ["compile", "project"],
        ["compile", "oracle"], ["compile", "run"]]
    src = sum(len(f.read_text().splitlines()) for f in (ROOT / "src" / "choreo").glob("*.py"))
    assert count == f"lines of src/choreo/*.py: parent {src}, change {src}"
    for line in lines:
        assert " ratio " in line and line.endswith(" inputs x 1 rounds"), line
        assert re.search(r"  p90\+ ratio \d+\.\d{3} \(\d+ inputs\)  ", line), line
        assert re.search(r"  by round \(q1 \d+\.\d{3}, q3 \d+\.\d{3}\)  \d+ inputs x", line), line
    # A checkout whose parser moves the span of every ``void`` gives every
    # compile input the same diagnostics, renders, units and reports as this
    # one; only its front-end trees differ.
    shutil.copytree(ROOT / "src" / "choreo", tmp_path / "src" / "choreo",
                    ignore=shutil.ignore_patterns("__pycache__"))
    parser = tmp_path / "src" / "choreo" / "parser.py"
    void = 'return S.TE(tok.span, "void", [], [], is_void=True)'
    assert void in parser.read_text()
    parser.write_text(parser.read_text().replace(void, void.replace("tok.span", "self.ts.peek().span")))
    moved = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(tmp_path), "--rounds", "1",
         "--workload", "compile"],
        capture_output=True, text=True, timeout=300)
    assert moved.returncode == 1 and moved.stdout == ""
    assert moved.stderr == "ab: BuyerSellerShipper/0: the two sides' front ends give different trees\n"


def test_ab_reports_the_ratio_of_the_slowest_inputs_apart():
    # Ten inputs, the slowest of which alone runs in half the parent's time:
    # the median ratio hides it, the p90+ ratio is its ratio.
    ab = load_ab()
    times = {f"in{i}": {stage: {"parent": [ms / 1e3], "change": [ms / 1e3]}
                        for stage in ab.STAGES} for i, ms in enumerate(range(1, 11))}
    times["in9"]["compile"]["change"] = [0.005]
    line = ab.report("compile", times, 1)[0]
    assert " ratio 1.000 (q1 1.000, q3 1.000)  p90+ ratio 0.500 (1 inputs)  " in line, line
    assert line.endswith("  10 inputs x 1 rounds"), line


def test_ab_reports_the_spread_of_the_ratio_from_round_to_round():
    # Three inputs whose change/parent ratio is the same in a round and
    # reads 0.9, 1.0, 1.1 and 1.2 in the four rounds: the quartiles over
    # inputs show no spread, those over rounds do.
    ab = load_ab()
    times = {f"in{i}": {stage: {"parent": [ms / 1e3] * 4,
                                "change": [ms * r / 1e3 for r in (0.9, 1.0, 1.1, 1.2)]}
                        for stage in ab.STAGES} for i, ms in enumerate((1, 2, 3))}
    line = ab.report("compile", times, 4)[0]
    assert " ratio 1.050 (q1 1.050, q3 1.050)  " in line, line
    assert "  by round (q1 0.975, q3 1.125)  3 inputs x 4 rounds" in line, line


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
    names = {w: [item.name for item in ab.workload_inputs(w, gen, 1)] for w in ab.WORKLOADS}
    assert len(names["stream"]) == 20 and len(names["sort"]) == 15
    assert names["roles"] == [f"DistAuth{n}/{i}" for n in (20, 40, 80, 160) for i in range(4)]
    assert [item.args["Client"][1] == gen.VALID_PASSWORD
            for item in ab.workload_inputs("roles", gen, 1)[:4]] == [True, False, True, False]
    assert names["sort"][:2] == ["Mergesort/9", "Quicksort/11"]
    assert "MergeSort/0" in names["compile"] and "DistAuth20" in names["compile"]
    negative = [name for name in names["compile"] if name.startswith("negative/")]
    assert len(negative) == 8 and "negative/wrong_consume" in negative


def test_ab_compares_the_roles_workload_of_this_checkout_with_itself():
    # The two smallest inputs only: one pair of DistAuth160 runs takes seconds.
    ab = load_ab()
    inputs = ab.workload_inputs("roles", ab.load_gen(), 1)[:2]
    lines = ab.report("roles", ab.measure({"parent": choreo, "change": choreo}, inputs, 1), 1)
    assert [line.split()[:2] for line in lines] == [["roles", stage] for stage in ab.STAGES]
    for line in lines:
        assert line.endswith("  2 inputs x 1 rounds"), line


def test_ab_prints_the_projection_growth_from_80_to_160_roles():
    # The change projects in 2 ms at both role counts; the parent in 1 ms at
    # 80 roles and in 4 ms at 160.
    ab = load_ab()
    times = {f"DistAuth{n}/{i}": {"project": {"parent": [ms / 1e3], "change": [2e-3]}}
             for n, ms in ((80, 1), (160, 4)) for i in range(2)}
    assert ab.growth_lines(times) == [
        "roles    project  80 roles: parent    1.000 ms  change    2.000 ms",
        "roles    project 160 roles: parent    4.000 ms  change    2.000 ms",
        "roles    project growth from 80 to 160 roles: parent 4.00x  change 1.00x"]
    assert ab.growth_lines({name: t for name, t in times.items() if "160" not in name}) == []


def change_side(**modules):
    """A stand-in for the change's package: this checkout's modules, with
    the attributes given for those named replaced."""
    change = types.SimpleNamespace(**{name: getattr(choreo, name) for name in (
        "diagnostics", "distributed", "interpreter", "pipeline", "printer", "projector",
        "surface", "testkit")})
    for name, attrs in modules.items():
        setattr(change, name, types.SimpleNamespace(**{**vars(getattr(choreo, name)), **attrs}))
    return change


def test_ab_stops_when_the_two_sides_render_differently():
    ab = load_ab()
    item = ab.workload_inputs("compile", ab.load_gen(), 1)[0]
    change = change_side(printer={"render_unit": lambda unit: ""})
    with pytest.raises(SystemExit, match=f"ab: {item.name}: the two sides render differently"):
        ab.measure({"parent": choreo, "change": change}, [item], 1)


def test_ab_stops_when_the_two_sides_test_kits_differ():
    ab = load_ab()
    [item] = [item for item in ab.workload_inputs("compile", ab.load_gen(), 1)
              if item.name.startswith("VitalsStreaming/")][:1]

    def run_tests_failing(checked):
        results, reporter = choreo.testkit.run_tests(checked)
        for r in results:
            r.passed = False
        return results, reporter

    change = change_side(testkit={"run_tests": run_tests_failing})
    with pytest.raises(SystemExit,
                       match="ab: VitalsStreaming: the two sides' test kits give different"):
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
    # A program that fails to check is not projected; one that fails to
    # project, as wrong_consume does, has its projection timed.
    item, projected = [item for item in ab.workload_inputs("compile", ab.load_gen(), 1)
                       if item.name in ("negative/type_mismatch", "negative/wrong_consume")]
    times = ab.measure({"parent": choreo, "change": choreo}, [item, projected], 2)
    assert {stage: len(times[item.name][stage]["change"]) for stage in ab.STAGES} == {
        "compile": 2, "check": 2, "project": 0, "oracle": 0, "run": 0}
    assert {stage: len(times[projected.name][stage]["change"]) for stage in ab.STAGES} == {
        "compile": 2, "check": 2, "project": 2, "oracle": 0, "run": 0}

    def compile_twice_reported(sources):
        checked, reporter = choreo.pipeline.compile_sources(sources)
        reporter.items.append(reporter.items[0])
        return checked, reporter

    change = change_side(pipeline={"compile_sources": compile_twice_reported})
    with pytest.raises(SystemExit, match=f"ab: {item.name}: the two sides give different "
                                         "diagnostics"):
        ab.measure({"parent": choreo, "change": change}, [item], 1)
