"""Projected units are Java: ``javac`` accepts the projections of the
programs whose units compile today.

Each program's units go into a package of their own, after the imports
Java's collections and functional interfaces need and an import of the
stub library ``java/choral/Stubs.java``: ``Unit``, both sides of the
prelude's channels and the test kit, as signatures only.
"""

import shutil
import subprocess
from pathlib import Path

import pytest
from conftest import perfbench_gen

from choreo.corpus import positive_entries
from choreo.pipeline import compile_sources
from choreo.printer import render_unit
from choreo.projector import project_program

STUBS = Path(__file__).parent / "java" / "choral" / "Stubs.java"
IMPORTS = "import java.util.*; import java.util.function.*; import choral.Stubs.*;\n"

# Positive corpus programs that javac rejects today, each for one defect:
# the first error javac reports.
KNOWN_DEFECTS = {
    # Mergesort_C: `Unit.id <= ch_BC.<Integer>com(rhs.get(0));`
    "MergeSort": "not a statement",
    # Courier_A/_B: `return <String>roundTrip(...)`, type arguments with no qualifier
    "RoundTrip": "illegal start of expression",
    # BuyerSellerShipper_Shipper: `parcel.length().toString()`, as Java's length() is an int
    "BuyerSellerShipper": "int cannot be dereferenced",
    # Karatsuba_A: `Integer base = Math.pow(...)`, as Java's pow returns a double
    "Karatsuba": "incompatible types: double cannot be converted to Integer",
    # VitalsStreaming_Gatherer: `content.patient().reverse()`; Java's String has no reverse()
    "VitalsStreaming": "cannot find symbol",
}


def project_into(folder, package, sources):
    """Write the projection of ``sources`` into ``folder`` as ``package``;
    returns the paths written."""
    checked, reporter = compile_sources(sources)
    units, reporter = project_program(checked, reporter)
    assert not reporter.has_errors(), package
    folder.mkdir(parents=True)
    paths = []
    for unit in units.units:
        path = folder / f"{unit.generated_name}.java"
        path.write_text(f"package {package};\n{IMPORTS}{render_unit(unit)}")
        paths.append(path)
    return paths


@pytest.mark.skipif(shutil.which("javac") is None, reason="no javac on PATH")
def test_javac_accepts_the_projections_that_compile_today(tmp_path):
    corpus = [p for p in positive_entries() if p.name not in KNOWN_DEFECTS]
    assert [p.name for p in corpus] == [
        "ConsumeItems", "DistAuth", "DistAuth10", "DistAuth5", "HelloRoles", "QuickSort"]
    assert KNOWN_DEFECTS.keys() <= {p.name for p in positive_entries()}
    gen = perfbench_gen()
    programs = [(f"corpus.{p.name.lower()}", [(str(p.path), p.path.read_text())])
                for p in corpus]
    programs += [(f"gen.distauth{n}", [(f"DistAuth{n}.chor", gen.distauth_source(n))])
                 for n in range(2, 21)]
    files = [STUBS]
    for package, sources in programs:
        files += project_into(tmp_path / "src" / package, package, sources)
    result = subprocess.run(["javac", "-d", str(tmp_path / "classes"), *map(str, files)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
