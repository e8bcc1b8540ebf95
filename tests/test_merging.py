"""Merge and unit-normalisation properties.

Instances come from two sources: statement pairs harvested from the
conditionals of the corpus, of the negative program wrong_consume and of
DistAuth2..20 (both branch projections at every role that merges them, as
the projector gives them to ``merge_stm``) and randomly generated local
statements.
"""

import pytest
from conftest import compile_ok, perfbench_gen
from hypothesis import given, settings, strategies as st

from choreo import projector
from choreo.corpus import corpus_root
from choreo.diagnostics import Reporter
from choreo.differential import differential_run
from choreo.local import (
    LAssign, LBinary, LBlock, LCall, LExpStm, LFieldAcc, LIf, LLit, LName,
    LNew, LNil, LReturn, LStaticName, LSwitch, LThrow, LTE, LTryCatch, LUnit,
    LUnitCall, LVarDecl, stm_list,
)
from choreo.local_reader import parse_local_unit
from choreo.merging import MergeError, big_merge, merge_stm, normalize_exp, normalize_stm
from choreo.pipeline import compile_files
from choreo.printer import render_inline, render_unit
from choreo.projector import project_program


# ------------------------------------------------------------- harvesting

def harvest_branch_pairs(corpus_compiled, more=()):
    """The (then, else) projections of every conditional of the corpus
    programs and of the checked programs ``more``, at each role that merges
    them: the pairs that projecting the programs gives ``merge_stm``, as
    they are given."""
    pairs = []

    def recording(left, right):
        pairs.append((left, right))
        return merge_stm(left, right)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projector, "merge_stm", recording)
        for checked in [checked for _, checked, _ in corpus_compiled.values()] + list(more):
            project_program(checked, Reporter())
    return pairs


@pytest.fixture(scope="module")
def branch_pairs(corpus_compiled):
    gen = perfbench_gen()
    # wrong_consume checks, and its projection fails to merge at B.
    wrong_consume, _ = compile_files([corpus_root() / "negative" / "wrong_consume.chor"])
    pairs = harvest_branch_pairs(corpus_compiled, [wrong_consume] + [
        compile_ok(gen.distauth_source(n), f"DistAuth{n}.chor") for n in range(2, 21)])
    assert pairs, "corpus produced no mergeable conditionals"
    return pairs


def sort_switches(stm):
    """Canonical case order, for symmetry-up-to-case-order comparisons."""
    import copy

    if stm is None:
        return None
    stm = copy.copy(stm)
    if isinstance(stm, LSwitch):
        stm.cases = sorted(
            [(label, sort_switches(body)) for label, body in stm.cases],
            key=lambda it: it[0],
        )
        stm.default = sort_switches(stm.default)
    if isinstance(stm, LIf):
        stm.then = sort_switches(stm.then)
        stm.orelse = sort_switches(stm.orelse)
    if isinstance(stm, LBlock):
        stm.body = sort_switches(stm.body)
    if hasattr(stm, "cont"):
        stm.cont = sort_switches(stm.cont)
    return stm


def test_harvested_merge_idempotent_and_symmetric(branch_pairs):
    checked_instances = 0
    for left, right in branch_pairs:
        for side in (left, right):
            merged = merge_stm(side, side)
            assert merged == side, render_inline(side)
            checked_instances += 1
        try:
            ab = merge_stm(left, right)
        except MergeError:
            continue
        ba = merge_stm(right, left)
        assert sort_switches(ab) == sort_switches(ba)
        checked_instances += 1
    assert checked_instances >= 40


def test_harvested_normalize_idempotent(branch_pairs):
    # The projector builds its branches in unit-normal form, so the merge
    # needs no normalising pass before it.
    for left, right in branch_pairs:
        for side in (left, right):
            assert normalize_stm(side) == side, render_inline(side)


def test_harvested_merge_is_the_normalising_merge(branch_pairs):
    failures = 0
    for left, right in branch_pairs:
        try:
            merged = merge_stm(left, right)
        except MergeError:
            with pytest.raises(MergeError):
                big_merge([left, right])
            failures += 1
            continue
        assert big_merge([left, right]) == merged, render_inline(left)
    assert failures >= 1


# ----------------------------------------------------------- generated side

unit_atom = st.just(LUnit())
names = st.sampled_from(["x", "y", "ch", "acc"]).map(LName)
lits = st.sampled_from([1, 2, "a", True, None]).map(LLit)
atoms = st.one_of(unit_atom, names, lits)


def exps(depth=2):
    if depth == 0:
        return atoms
    sub = exps(depth - 1)
    return st.one_of(
        atoms,
        st.builds(LUnitCall, st.lists(sub, min_size=1, max_size=2)),
        st.builds(lambda s, a: LCall(s, [], "m", a), st.one_of(names), st.lists(sub, max_size=2)),
        st.builds(lambda a, b: LBinary(a, "+", b), sub, sub),
        st.builds(lambda s: LFieldAcc(s, "f"), st.one_of(names, st.just(LStaticName("K")))),
        st.builds(lambda a: LNew("Box", [], a), st.lists(sub, max_size=2)),
    )


def stms(depth=2):
    exp = exps(1)
    if depth == 0:
        return st.one_of(st.just(LNil()), st.builds(LReturn, st.one_of(st.none(), exp)))
    sub = stms(depth - 1)
    return st.one_of(
        st.just(LNil()),
        st.builds(LReturn, st.one_of(st.none(), exp)),
        st.builds(LExpStm, exp, sub),
        st.builds(lambda te, n, i, c: LVarDecl(LTE(te), n, i, c),
                  st.sampled_from(["Integer", "String"]),
                  st.sampled_from(["v", "w"]), st.one_of(st.none(), exp), sub),
        st.builds(LAssign, names, st.just("="), exp, sub),
        st.builds(LIf, exp, sub, sub, sub),
        st.builds(LBlock, sub, sub),
        st.builds(
            lambda labels, bodies, cont: LSwitch(
                LCall(LName("ch"), [], "select", [LUnit()]),
                list(zip(labels, bodies)),
                LThrow("unexpected selection label"),
                cont,
            ),
            st.lists(st.sampled_from(["GO", "STOP", "L", "R"]), min_size=1,
                     max_size=3, unique=True),
            st.lists(sub, min_size=3, max_size=3),
            sub,
        ),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stms())
def test_generated_normalize_idempotent(stm):
    once = normalize_stm(stm)
    assert normalize_stm(once) == once


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stms())
def test_generated_merge_idempotent(stm):
    normed = normalize_stm(stm)
    assert merge_stm(normed, normed) == normed


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stms(), stms())
def test_generated_merge_symmetric_up_to_case_order(a, b):
    a, b = normalize_stm(a), normalize_stm(b)
    try:
        ab = merge_stm(a, b)
    except MergeError:
        with pytest.raises(MergeError):
            merge_stm(b, a)
        return
    ba = merge_stm(b, a)
    assert sort_switches(ab) == sort_switches(ba)


# ---------------------------------------------------------- pinned examples

def test_unit_residue_merges_with_blank():
    # The dropped branch pair: Unit.id(Unit.id) against nothing.
    left = LExpStm(LUnitCall([LUnit()]), LNil())
    right = LNil()
    merged = big_merge([left, right])
    assert merged == LNil()


def test_switch_union_of_disjoint_cases():
    guard = LCall(LName("ch"), [], "select", [LUnit()])
    s1 = LSwitch(guard, [("OK", LExpStm(LCall(None, [], "onOk", []), LNil()))],
                 LThrow("unexpected selection label"), LNil())
    s2 = LSwitch(guard, [("KO", LExpStm(LCall(None, [], "onKo", []), LNil()))],
                 LThrow("unexpected selection label"), LNil())
    merged = merge_stm(s1, s2)
    assert [label for label, _ in merged.cases] == ["OK", "KO"]
    assert isinstance(merged.default, LThrow)


def test_switch_shared_cases_merge_bodies():
    guard = LCall(LName("ch"), [], "select", [LUnit()])
    body1 = LExpStm(LCall(None, [], "go", []), LNil())
    s1 = LSwitch(guard, [("GO", body1)], None, LNil())
    s2 = LSwitch(guard, [("GO", body1), ("STOP", LNil())], None, LNil())
    merged = merge_stm(s1, s2)
    assert dict(merged.cases)["GO"] == body1
    assert "STOP" in dict(merged.cases)


def test_distinct_atoms_fail_to_merge():
    with pytest.raises(MergeError):
        merge_stm(LReturn(LName("x")), LReturn(LName("y")))
    with pytest.raises(MergeError):
        merge_stm(LExpStm(LCall(None, [], "f", []), LNil()), LNil())


def test_var_decls_merge_on_identical_te_and_name():
    a = LVarDecl(LTE("Integer"), "x", LName("y"), LNil())
    b = LVarDecl(LTE("Integer"), "x", LName("y"), LNil())
    assert merge_stm(a, b) == a
    with pytest.raises(MergeError):
        merge_stm(a, LVarDecl(LTE("Integer"), "z", LName("y"), LNil()))


def test_normalize_examples():
    # A bare Unit.id statement vanishes.
    assert normalize_stm(LExpStm(LUnit(), LNil())) == LNil()
    # Unit.id(Unit.id(x)) collapses through the single-argument rule.
    exp = LUnitCall([LUnitCall([LName("x")])])
    assert normalize_exp(exp) == LName("x")
    assert normalize_exp(LUnitCall([LUnit()])) == LUnit()
    # Unit.id with one effectful and one discardable argument keeps the effect.
    call = LCall(LName("ch"), [], "com", [LUnit()])
    exp = LUnitCall([LName("z"), call])
    assert normalize_exp(exp) == call
    # Identifier paths, this, and null are discardable statements.
    for e in (LName("v"), LName("this"), LLit(None), LFieldAcc(LName("a"), "b")):
        assert normalize_stm(LExpStm(e, LNil())) == LNil()


def mismatches():
    """Pairs that do not merge, each with the two nodes its ``MergeError``
    names: the first pair found, parts in field order, whose classes, atoms
    or list lengths differ, or that is a node against None."""
    x, y, z = LName("x"), LName("y"), LName("z")
    out = []

    def pair(a, b, left, right):
        out.append((a, b, left, right))

    pair(a := LReturn(x), b := LNil(), a, b)  # different classes
    pair(LExpStm(a := LName("x"), LNil()), LExpStm(b := LLit(1), LNil()), a, b)
    pair(a := LBinary(x, "+", y), b := LBinary(x, "-", y), a, b)  # op
    pair(a := LAssign(x, "=", y, LNil()), b := LAssign(x, "+=", y, LNil()), a, b)
    pair(LReturn(a := LCall(x, [], "f", [y])), LReturn(b := LCall(x, [], "g", [y])), a, b)  # name
    pair(LReturn(a := LCall(x, [], "f", [])), LReturn(b := LCall(z, [], "g", [])), a, b)
    pair(LReturn(a := LFieldAcc(x, "f")), LReturn(b := LFieldAcc(x, "g")), a, b)
    pair(LReturn(a := LStaticName("K")), LReturn(b := LStaticName("J")), a, b)
    pair(a := LVarDecl(LTE("Integer"), "v", None, LNil()),
         b := LVarDecl(LTE("Integer"), "w", None, LNil()), a, b)
    pair(a := LVarDecl(LTE("Integer"), "v", None, LNil()),  # te
         b := LVarDecl(LTE("String"), "v", None, LNil()), a, b)
    pair(LReturn(a := LNew("Box", [LTE("Integer")], [])),
         LReturn(b := LNew("Box", [LTE("String")], [])), a, b)
    pair(LReturn(a := LCall(x, [], "f", [y])),  # argument counts
         LReturn(b := LCall(x, [], "f", [y, z])), a, b)
    pair(LReturn(a := LUnitCall([x, y])), LReturn(b := LUnitCall([x])), a, b)
    pair(LReturn(a := LNew("Box", [], [x])), LReturn(b := LNew("Box", [], [])), a, b)
    pair(LReturn(LCall(x, [], "f", [a := LLit(1)])),  # inside matching nodes
         LReturn(LCall(x, [], "f", [b := LLit(2)])), a, b)
    pair(LExpStm(x, a := LNil()), LExpStm(x, b := LExpStm(y, LNil())), a, b)
    pair(LIf(x, LNil(), a := LReturn(y), LNil()), LIf(x, LNil(), b := LNil(), LNil()), a, b)
    pair(LBlock(a := LThrow("s"), LNil()), LBlock(b := LThrow("t"), LNil()), a, b)
    handler = (LTE("Exception"), "e", LNil())
    pair(a := LTryCatch(LNil(), [handler], LNil()),  # handler type
         b := LTryCatch(LNil(), [(LTE("RuntimeException"), "e", LNil())], LNil()), a, b)
    pair(a := LTryCatch(LNil(), [handler], LNil()),  # handler name
         b := LTryCatch(LNil(), [(LTE("Exception"), "f", LNil())], LNil()), a, b)
    pair(a := LTryCatch(LNil(), [handler], LNil()), b := LTryCatch(LNil(), [], LNil()), a, b)
    pair(LTryCatch(LNil(), [(LTE("Exception"), "e", a := LReturn(x))], LNil()),
         LTryCatch(LNil(), [(LTE("Exception"), "e", b := LReturn(y))], LNil()), x, y)
    pair(LReturn(a := None), LReturn(b := x), a, b)  # None against a node
    pair(LReturn(a := x), LReturn(b := None), a, b)
    pair(LVarDecl(LTE("Integer"), "v", None, LNil()),
         LVarDecl(LTE("Integer"), "v", b := LLit(1), LNil()), None, b)
    pair(LReturn(LCall(a := None, [], "f", [])), LReturn(LCall(b := x, [], "f", [])), a, b)
    pair(a := None, b := LNil(), a, b)
    pair(LSwitch(LCall(LName("ch"), [], "select", [a := LUnit()]), [], None, LNil()),  # guards
         LSwitch(LCall(LName("ch"), [], "select", [b := LName("u")]), [], None, LNil()), a, b)
    pair(LSwitch(LCall(a := LName("ch"), [], "select", []), [("L", LNil())], None, LNil()),
         LSwitch(LCall(b := LName("dh"), [], "select", []), [("L", LNil())], None, LNil()), a, b)
    pair(LSwitch(a := LName("g"), [("L", LNil())], None, LNil()),
         LSwitch(b := LCall(None, [], "g", []), [("L", LNil())], None, LNil()), a, b)
    pair(LSwitch(x, [("L", a := LNil())], None, LNil()),  # a shared case's bodies
         LSwitch(x, [("L", b := LReturn(y))], None, LNil()), a, b)
    pair(LSwitch(x, [], a := LThrow("s"), LNil()),  # defaults
         LSwitch(x, [], b := LThrow("t"), LNil()), a, b)
    return out


def test_mismatches_name_the_nodes_that_differ():
    for a, b, left, right in mismatches():
        with pytest.raises(MergeError) as failed:
            merge_stm(a, b)
        assert failed.value.left is left and failed.value.right is right, render_inline(a)


def test_instance_budget(branch_pairs):
    # The property suite must cover at least 500 generated/harvested cases.
    generated = 300 + 300 + 200
    assert generated + len(branch_pairs) >= 500


# ------------------------------------------------------ long straight lines

@pytest.mark.parametrize("line", [
    'System@A.out.println("s"@A);', "Integer@A v{i} = {i}@A;", "x = x + 1@A;"])
def test_long_methods_project_and_read_back_at_the_default_recursion_limit(
        recursion_limit_1000, line):
    body = "".join(line.format(i=i) + "\n" for i in range(5000))
    checked = compile_ok(f"class D@A {{ Integer@A m(Integer@A x) {{\n{body}return x; }} }}")
    units, reporter = project_program(checked, Reporter())
    assert not reporter.items
    unit = units.unit("D")
    reparsed = parse_local_unit(render_unit(unit))
    assert len(stm_list(reparsed.decl.methods[0].body)) == 5001
    assert reparsed.decl == unit.decl
    assert differential_run(checked, "D", "m", {"A": [1]}, local_program=units).equal


def test_long_merged_branches_are_spliced_at_the_default_recursion_limit(recursion_limit_1000):
    # At B, which does not take the decision, the two branches merge into
    # one 2,000-statement chain, which the projection splices into the body.
    branch = "".join(f'System@B.out.println("{i}"@B);\n' for i in range(2000))
    checked = compile_ok(f"""class D@(A, B) {{ void m(Integer@A x) {{
        if (x > 0@A) {{\n{branch}}} else {{\n{branch}}}
        System@B.out.println("end"@B); }} }}""")
    units, reporter = project_program(checked, Reporter())
    assert not reporter.items
    chain = stm_list(units.unit("D_B").decl.methods[0].body)
    assert len(chain) == 2001 and chain[-1].exp.args == [LLit("end")]
    assert differential_run(checked, "D", "m", {"A": [1]}, local_program=units).equal


def test_long_units_read_back_at_the_default_recursion_limit(recursion_limit_1000):
    body = "".join(f'System.out.println("{i}");\n' for i in range(3000))
    unit = parse_local_unit(f"public class U {{ public static void go() {{\n{body}}} }}")
    assert len(stm_list(unit.decl.methods[0].body)) == 3000
