"""The scripts under ``tools/``."""

import importlib.util
import subprocess
import sys

from choreo.corpus import corpus_root

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
    assert [line.split()[:2] for line in lines] == [["compile", "oracle"], ["compile", "run"]]
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
