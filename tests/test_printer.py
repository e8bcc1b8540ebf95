"""The printer's bytes, pinned by SHA-256 digests.

The digests were recorded from the two printers that came before the one
printer of both trees: the surface printer for ``render_program`` and
``render_exp``, the local printer for ``render_unit`` and merge failures.
"""

import hashlib

from conftest import perfbench_gen

from choreo import surface as S
from choreo.corpus import corpus_root, positive_entries
from choreo.parser import parse_program
from choreo.pipeline import compile_sources, front_end
from choreo.printer import render_exp, render_program, render_unit
from choreo.projector import project_program


def digest(texts):
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()[:16]


def corpus_files():
    root = corpus_root()
    return sorted((p for kind in ("positive", "negative", "extra")
                   for p in (root / kind).glob("*.chor")), key=lambda p: p.name)


def surface_digests():
    """name -> digest of the parsed program, every expression in it, and the
    program after the front end (prelude, desugaring and list expansion)."""
    out = {}
    for path in corpus_files():
        sources = [(path.name, path.read_text())]
        program, reporter = parse_program(sources)
        assert not reporter.has_errors(), path.name
        exps = [render_exp(e) for d in program.decls for e in S.walk_exps(d)]
        full, _ = front_end(sources)
        out[path.stem] = digest([render_program(program), *exps, render_program(full)])
    return out


def unit_digests():
    """name -> digest of every unit, with and without courtesy wrappers, of
    the projection with and without annotations."""
    gen = perfbench_gen()
    programs = [(p.name, p.path.read_text()) for p in positive_entries()]
    programs += [(f"gen/DistAuth{n}", gen.distauth_source(n)) for n in range(2, 21)]
    out = {}
    for name, text in programs:
        checked, reporter = compile_sources([(name.split("/")[-1] + ".chor", text)])
        assert not reporter.has_errors(), name
        texts = []
        for annotate in (False, True):
            units, reporter = project_program(checked, annotate=annotate)
            assert not reporter.has_errors(), name
            for unit in units.units:
                texts += [unit.generated_name, render_unit(unit),
                          render_unit(unit, courtesy=True)]
        out[name] = digest(texts)
    return out


def diagnostic_digests():
    """name -> digest of the rendered diagnostics of each negative program,
    merge failures among them."""
    out = {}
    for path in sorted((corpus_root() / "negative").glob("*.chor")):
        checked, reporter = compile_sources([(path.name, path.read_text())])
        if not reporter.has_errors():
            _, reporter = project_program(checked, reporter)
        out[path.stem] = digest([d.render() for d in reporter.items])
    return out


SURFACE_DIGESTS = {
    "BuyerSellerShipper": "568cb9f6af14ca1a",
    "ConsumeItems": "ee05af672040e857",
    "DistAuth": "5ad00f434593f344",
    "DistAuth10": "22ad959d37d5f27f",
    "DistAuth5": "fa0ec5dbc3ffab11",
    "HelloRoles": "958aaf05160bc747",
    "Karatsuba": "6197774a48a12146",
    "MergeSort": "9dc254629732a5c7",
    "QuickSort": "bc6d04bfde39fd23",
    "RoundTrip": "3b323889782ab025",
    "VitalsStreaming": "e149c6f6ab2203cb",
    "VitalsStreamingNoop": "b7b77087f2bf169d",
    "bad_selection": "a55850bd9054672d",
    "cyclic_symchannel": "cf698c1fa50fccd4",
    "illegal_overload": "0b06c92146410744",
    "role_aliasing": "7840be9a7482c693",
    "role_mismatch": "3192ec93f8eab34f",
    "role_set_change": "ccce4949cacbe3d0",
    "type_mismatch": "7e9fb7492722ea1d",
    "wrong_consume": "2a08401a638ce120",
}

UNIT_DIGESTS = {
    "BuyerSellerShipper": "eeff6b29da122cd3",
    "ConsumeItems": "539a8ff0ce8dcef9",
    "DistAuth": "40c38c9ffd87bbd7",
    "DistAuth10": "c7c97bc8aa10a4a0",
    "DistAuth5": "6ab3ca446698dc79",
    "HelloRoles": "32946bceae653c20",
    "Karatsuba": "326cc6fe93047fbd",
    "MergeSort": "49b48c01c13a577c",
    "QuickSort": "7b72c54c562e8002",
    "RoundTrip": "a687f852c2a7de5d",
    "VitalsStreaming": "377cac8a8a34a485",
    "gen/DistAuth2": "d5468d41ae614faa",
    "gen/DistAuth3": "525547c4c0db123c",
    "gen/DistAuth4": "cf6ddd45db139475",
    "gen/DistAuth5": "6ab3ca446698dc79",
    "gen/DistAuth6": "7862351a85033620",
    "gen/DistAuth7": "3d44f4c64b075b1b",
    "gen/DistAuth8": "e0c4a4f24f405921",
    "gen/DistAuth9": "9e680c017f1f4bd5",
    "gen/DistAuth10": "c7c97bc8aa10a4a0",
    "gen/DistAuth11": "0409b3795a778840",
    "gen/DistAuth12": "47018e6f17be99fe",
    "gen/DistAuth13": "f329436f07a0dc3e",
    "gen/DistAuth14": "f43e2aa2bc0d0eac",
    "gen/DistAuth15": "a0e7405d2d277e3c",
    "gen/DistAuth16": "2aa0f096faa856f1",
    "gen/DistAuth17": "d8ea07ecaa6345fb",
    "gen/DistAuth18": "a461b7f74fb4c2d1",
    "gen/DistAuth19": "9cd2c8b175bfd6fd",
    "gen/DistAuth20": "dfae01b7487f4574",
}

DIAGNOSTIC_DIGESTS = {
    "bad_selection": "0fcfe57f9739b058",
    "cyclic_symchannel": "559c853bb3ba1ad3",
    "illegal_overload": "3625f74126382b79",
    "role_aliasing": "f7c17ce8add60b89",
    "role_mismatch": "aad90fd97237ba5b",
    "role_set_change": "f1a3ad54d270854d",
    "type_mismatch": "ce070f05e4eb80b1",
    "wrong_consume": "c14ff5be8187f9dc",
}


def test_render_program_and_render_exp_keep_their_bytes():
    assert surface_digests() == SURFACE_DIGESTS


def test_render_unit_keeps_its_bytes():
    assert unit_digests() == UNIT_DIGESTS


def test_diagnostics_and_merge_failures_keep_their_bytes():
    assert diagnostic_digests() == DIAGNOSTIC_DIGESTS
