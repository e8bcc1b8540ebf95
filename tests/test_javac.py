"""Projected units are Java: ``javac`` accepts the projections of the
programs whose units compile today.

Each program's units go into a package of their own, after the imports
Java's collections and functional interfaces need and imports of the
package ``choral``. That package holds the stub library
``java/choral/Stubs.java`` (``Unit``, the test kit and the
``@SelectionMethod`` annotation, as signatures only) and the interface
``Channels``, whose members are the prelude's channel interfaces projected
at both roles. Where ``CI`` is set, a missing ``javac`` fails the test.
"""

import os
import shutil
import subprocess
from pathlib import Path

import pytest
from conftest import perfbench_gen

from choreo.corpus import positive_entries
from choreo.diagnostics import Reporter
from choreo.pipeline import compile_sources
from choreo.printer import render_unit
from choreo.projector import Projector, project_program

STUBS = Path(__file__).parent / "java" / "choral" / "Stubs.java"
IMPORTS = ("import java.util.*; import java.util.function.*; "
           "import choral.Stubs.*; import choral.Channels.*;\n")

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


def write_channels(folder):
    """Write ``choral/Channels.java`` into ``folder``: the prelude's channel
    interfaces, projected at each of their roles; returns its path."""
    checked, _ = compile_sources([("Empty.chor", "class Empty@A { }")])
    channels = [info for info in checked.table.values()
                if info.is_prelude and info.is_interface and info.name.endswith("Channel")]
    assert len(channels) == 8
    projector = Projector(checked, Reporter())
    units = [render_unit(unit) for info in channels for unit in projector.project_decl(info)]
    body = "".join("    " + line + "\n" for unit in units for line in unit.splitlines())
    path = folder / "choral" / "Channels.java"
    path.parent.mkdir(parents=True)
    path.write_text("package choral;\nimport choral.Stubs.*;\n"
                    f"public interface Channels {{\n{body}}}\n")
    return path


def test_javac_accepts_the_projections_that_compile_today(tmp_path):
    if shutil.which("javac") is None:
        if os.environ.get("CI"):
            pytest.fail("no javac on PATH; CI installs one")
        pytest.skip("no javac on PATH")
    corpus = [p for p in positive_entries() if p.name not in KNOWN_DEFECTS]
    assert [p.name for p in corpus] == [
        "ConsumeItems", "DistAuth", "DistAuth10", "DistAuth5", "HelloRoles", "QuickSort"]
    assert KNOWN_DEFECTS.keys() <= {p.name for p in positive_entries()}
    gen = perfbench_gen()
    programs = [(f"corpus.{p.name.lower()}", [(str(p.path), p.path.read_text())])
                for p in corpus]
    programs += [(f"gen.distauth{n}", [(f"DistAuth{n}.chor", gen.distauth_source(n))])
                 for n in range(2, 21)]
    files = [STUBS, write_channels(tmp_path / "src")]
    for package, sources in programs:
        files += project_into(tmp_path / "src" / package, package, sources)
    result = subprocess.run(["javac", "-d", str(tmp_path / "classes"), *map(str, files)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
