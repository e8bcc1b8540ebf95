"""Global and distributed evaluation, and the differential harness."""

import gc
import hashlib
import sys
import time

from conftest import compile_ok, compile_text, perfbench_gen

from choreo.corpus import corpus_root, positive_entries
from choreo.diagnostics import Code, Reporter
from choreo.differential import RunSpec, differential_run
from choreo.distributed import eval_distributed
from choreo.interpreter import eval_global
from choreo.local import (
    LCall, LClass, LExpStm, LMethod, LName, LNil, LTE, LParam, LUnit,
    LocalProgram, LocalUnit,
)
from choreo.local_reader import parse_local_unit
from choreo.pipeline import compile_sources
from choreo.printer import render_unit
from choreo.projector import project_program
from choreo.runtime import CHANNEL_CAPACITY, MAX_CALL_DEPTH


def project_ok(checked):
    units, reporter = project_program(checked, Reporter())
    assert not reporter.has_errors()
    return units


# ------------------------------------------------------------------ global

def test_global_hello_roles_transcripts(corpus_compiled):
    _, checked, _ = corpus_compiled["HelloRoles"]
    report = eval_global(checked, "HelloRoles", "sayHello")
    assert report.status == "ok"
    assert report.transcripts["A"] == ["Hello from A"]
    assert report.transcripts["B"] == ["Hello from B"]


def test_global_mergesort_endpoints(corpus_compiled):
    _, checked, _ = corpus_compiled["MergeSort"]
    chans = {"ch_AB": "x", "ch_BC": "y", "ch_CA": "z"}
    report = eval_global(checked, "Mergesort", "sort", {"A": [[15, 3, 14]]}, chans)
    assert report.status == "ok"
    assert report.returns["A"] == ["list", 3, 14, 15]
    assert report.returns["B"] == "unit"
    assert report.returns["C"] == "unit"


def test_global_karatsuba_value(corpus_compiled):
    _, checked, _ = corpus_compiled["Karatsuba"]
    chans = {"ch_AB": "x", "ch_BC": "y", "ch_CA": "z"}
    report = eval_global(checked, "Karatsuba", "multiply", {"A": [1234, 5678]}, chans)
    assert report.status == "ok"
    assert report.returns["A"] == 7006652


def test_global_evaluator_is_deterministic(corpus_compiled):
    _, checked, _ = corpus_compiled["DistAuth"]
    chans = {"ch_Client_IP": "a", "ch_Service_IP": "b"}
    r1 = eval_global(checked, "DistAuth", "login", {"Client": ["alice", "pwd123"]}, chans)
    r2 = eval_global(checked, "DistAuth", "login", {"Client": ["alice", "pwd123"]}, chans)
    assert r1.returns == r2.returns
    assert r1.transcripts == r2.transcripts
    assert r1.status == r2.status == "ok"


# ------------------------------------------------------------- distributed

def test_distributed_mergesort_three_workers(corpus_compiled):
    _, checked, units = corpus_compiled["MergeSort"]
    chans = {"ch_AB": "x", "ch_BC": "y", "ch_CA": "z"}
    report = eval_distributed(units, "Mergesort", ["A", "B", "C"], "sort",
                              {"A": [[15, 3, 14]]}, chans, deadline=10)
    assert report.status == "ok"
    assert report.returns["A"] == ["list", 3, 14, 15]
    assert len(report.outcomes) == 3


def test_distributed_dist_auth_both_or_neither(corpus_compiled):
    _, checked, units = corpus_compiled["DistAuth"]
    chans = {"ch_Client_IP": "a", "ch_Service_IP": "b"}
    ok = eval_distributed(units, "DistAuth", ["Client", "Service", "IP"], "login",
                          {"Client": ["alice", "pwd123"]}, chans, deadline=10)
    assert ok.status == "ok"
    client = dict(ok.returns["Client"][2])
    service = dict(ok.returns["Service"][2])
    assert client["left"][0] == "optional" and client["left"][1] is not None
    assert service["right"][0] == "optional" and service["right"][1] is not None
    assert client["left"][1] == service["right"][1]  # equal tokens

    bad = eval_distributed(units, "DistAuth", ["Client", "Service", "IP"], "login",
                           {"Client": ["alice", "wrong"]}, chans, deadline=10)
    assert bad.status == "ok"
    assert dict(bad.returns["Client"][2])["left"] == ("optional", None)
    assert dict(bad.returns["Service"][2])["right"] == ("optional", None)


def test_hand_built_mismatched_units_deadlock():
    # Both sides try to receive: no data ever flows, and the run proves the
    # deadlock as soon as both block, long before the deadline.
    def receiver_unit(name):
        body = LExpStm(LCall(LName("ch"), [], "com", [LUnit()]), LNil())
        method = LMethod([], ["public", "static"], [], LTE("void"), "go",
                         [LParam(LTE("SymChannel", [LTE("Object")]), "ch")], body)
        return LocalUnit(name, "Broken", name.split("_")[1],
                         LClass([], [], name, [], None, [], [], [], [method]))

    program = LocalProgram([receiver_unit("Broken_A"), receiver_unit("Broken_B")])
    started = time.monotonic()
    report = eval_distributed(program, "Broken", ["A", "B"], "go", {},
                              {"ch": "only"}, deadline=10)
    assert time.monotonic() - started < 1.0
    assert report.status == "deadlock-timeout"
    assert report.error == "deadlock: A receives on 'only'; B receives on 'only'"
    assert {o.status for o in report.outcomes.values()} == {"deadlock-timeout"}


def test_partial_deadlock_is_proven_while_another_role_computes():
    # A and B wait on each other; C, which would compute past the deadline,
    # cannot free them, and the run stops as soon as both wait.
    receive = "public static void go(SymChannel<Object> ch) { ch.<Object>com(Unit.id); }"
    program = LocalProgram([
        parse_local_unit(f"public class Stuck_{r} {{ {receive} }}") for r in "AB"])
    program.units.append(parse_local_unit("""
    public class Stuck_C {
        public static void go(Unit ch) { work(22); }
        static void work(Integer n) { if (n > 0) { work(n - 1); work(n - 1); } }
    }"""))
    started = time.monotonic()
    report = eval_distributed(program, "Stuck", ["A", "B", "C"], "go", {},
                              {"ch": "k"}, deadline=10)
    assert time.monotonic() - started < 1.0
    assert report.status == "deadlock-timeout"
    assert report.error == "deadlock: A receives on 'k'; B receives on 'k'"


def test_builtin_callback_cannot_wait_on_a_channel():
    program = LocalProgram([parse_local_unit(text) for text in ("""
    public class Cb_A {
        public static void go(SymChannel<Object> ch) { Optional.of(1).ifPresent(new Take(ch)); }
    }""", """
    public class Cb_B {
        public static void go(SymChannel<Object> ch) { ch.<Integer>com(Unit.id); }
    }""", """
    public class Take {
        SymChannel<Object> ch;
        public Take(SymChannel<Object> ch) { this.ch = ch; }
        public void accept(Integer x) { ch.<Integer>com(Unit.id); }
    }""")])
    report = eval_distributed(program, "Cb", ["A", "B"], "go", {}, {"ch": "k"}, deadline=10)
    assert report.status == "error"
    assert report.error.startswith(
        "A: ChoreoRuntimeError: A receives on 'k' inside a builtin's callback")


def test_builtin_callback_runs_a_method_of_the_program_in_both_evaluators():
    checked = compile_ok("""
    class Show@R implements Consumer@R<String> {
        public void accept(String@R item) { System@R.out.println(item); }
    }
    class Cb@A {
        public static void go(String@A s) { Optional@A.<String>of(s).ifPresent(new Show@A()); }
    }
    """)
    cmp = differential_run(checked, "Cb", "go", {"A": ["hi"]}, local_program=project_ok(checked))
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.transcripts == {"A": ["hi"]}


def test_read_back_units_run_as_the_projected_ones(corpus_compiled):
    for name, cls, roles, method, args, chans in [
        ("MergeSort", "Mergesort", ["A", "B", "C"], "sort", {"A": [[15, 3, 14, 2]]},
         {"ch_AB": "x", "ch_BC": "y", "ch_CA": "z"}),
        ("DistAuth", "DistAuth", ["Client", "Service", "IP"], "login",
         {"Client": ["alice", "pwd123"]}, {"ch_Client_IP": "a", "ch_Service_IP": "b"}),
    ]:
        _, _, units = corpus_compiled[name]
        read_back = LocalProgram([parse_local_unit(render_unit(u), u.generated_name)
                                  for u in units.units])
        want, got = (eval_distributed(p, cls, roles, method, args, chans, deadline=10)
                     for p in (units, read_back))
        assert want.status == "ok"
        assert (got.status, got.error, got.returns, got.transcripts) == (
            want.status, want.error, want.returns, want.transcripts), name


def test_deep_recursion_runs_at_the_default_recursion_limit(corpus_compiled):
    _, checked, units = corpus_compiled["ConsumeItems"]
    items = [f"item{i}" for i in range(20000)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        reports = [eval_global(checked, "ConsumeItems", "run", {"A": [items]}, {"ch": "deep"}),
                   eval_distributed(units, "ConsumeItems", ["A", "B"], "run",
                                    {"A": [items]}, {"ch": "deep"}, deadline=60)]
    finally:
        sys.setrecursionlimit(limit)
    for report in reports:
        assert report.status == "ok", report.error
        assert report.transcripts["B"] == items


def test_endless_recursion_stops_at_the_call_depth_bound():
    checked = compile_ok("class Spin@A { static void go(Integer@A n) { go(n); } }")
    reports = [eval_global(checked, "Spin", "go", {"A": [0]}),
               eval_distributed(project_ok(checked), "Spin", ["A"], "go", {"A": [0]},
                                deadline=20)]
    for report in reports:
        assert report.status == "error"
        assert f"call depth exceeds {MAX_CALL_DEPTH} calls" in report.error


def test_a_run_leaves_no_cyclic_garbage(corpus_compiled):
    runs = [("MergeSort", "Mergesort", ["A", "B", "C"], "sort", {"A": [[15, 3, 14, 2]]},
             {"ch_AB": "x", "ch_BC": "y", "ch_CA": "z"}),
            ("DistAuth5", "DistAuth5", ["Client", "S1", "S2", "S3", "IP"], "login",
             {"Client": ["alice", "pwd123"]},
             {f"ch_{r}_IP": r for r in ("Client", "S1", "S2", "S3")})]
    for name, cls, roles, method, args, chans in runs:
        _, checked, units = corpus_compiled[name]
        for run in (lambda: eval_global(checked, cls, method, args, chans),
                    lambda: eval_distributed(units, cls, roles, method, args, chans,
                                             deadline=10)):
            gc.collect()
            gc.disable()
            try:
                report = run()
                garbage = gc.collect()
            finally:
                gc.enable()
            assert report.status == "ok", report.error
            assert garbage == 0, name


def test_a_compile_leaves_no_cyclic_garbage():
    sources = [[(str(prog.path), prog.path.read_text())] for prog in positive_entries()]
    gc.collect()
    gc.disable()
    try:
        for srcs in sources:
            checked, reporter = compile_sources(srcs)
            units, reporter = project_program(checked, reporter)
            assert not reporter.has_errors()
            for unit in units.units:
                render_unit(unit)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


def test_peer_crash_mid_stream_cancels_the_sender_at_once():
    # B fails after its first receive while A has more to send than a
    # channel holds: A is cancelled instead of waiting out the deadline.
    sends = "\n".join(f"        ch.<Integer>com({i}@A);"
                      for i in range(1, CHANNEL_CAPACITY + 5))
    checked = compile_ok(f"""
    class Crash@(A, B) {{
        public static void go(DiDataChannel@(A, B)<Integer> ch) {{
            Integer@B first = ch.<Integer>com(0@A);
            Assert@B.assertTrue("crashed after one"@B, false@B);
    {sends}
        }}
    }}
    """)
    started = time.monotonic()
    report = eval_distributed(project_ok(checked), "Crash", ["A", "B"], "go", {},
                              {"ch": "crash"}, deadline=10)
    assert time.monotonic() - started < 1.0
    assert report.status == "error"
    assert report.error.startswith("B: AssertionFailure: crashed after one")
    assert list(report.outcomes) == ["B", "A"]
    assert report.outcomes["A"].error == "cancelled: B failed"


def test_both_evaluators_wire_a_channel_named_parameter_alike():
    # 'first' is named in channels and its role also has a manifest value:
    # the name wins in both evaluators, and the value goes to 'second'.
    checked = compile_ok("""
    class Pick@A {
        public static String@A pick(String@A first, String@A second) {
            return second;
        }
    }
    """)
    cmp = differential_run(checked, "Pick", "pick", {"A": ["x"]}, {"first": "k"},
                           local_program=project_ok(checked))
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.returns == {"A": "x"}


def test_worker_error_carries_role_and_message(corpus_compiled):
    _, checked, units = corpus_compiled["MergeSort"]
    # Missing channel wiring is a configuration error: a report that names
    # the first role whose unit cannot be wired, as the oracle reports it.
    report = eval_distributed(units, "Mergesort", ["A", "B", "C"], "sort",
                              {"A": [[1]]}, {}, deadline=1)
    assert report.status == "error"
    assert report.error == ("A: constructor parameter 'ch_AB' of 'Mergesort_A' "
                            "has no channel wiring")
    assert report.outcomes == {}
    oracle = eval_global(checked, "Mergesort", "sort", {"A": [[1]]}, {})
    assert oracle.status == "error"
    assert oracle.error == "constructor parameter 'ch_AB' of 'Mergesort' has no channel wiring"


def test_eval_global_reports_python_exceptions():
    """The oracle returns a report for a failure that is not a choreography
    error, here a float division by zero."""
    checked = compile_ok("""
    class Div@A {
        public static Double@A div(Integer@A n) {
            return Math@A.floor(n) / Math@A.floor(0@A);
        }
    }
    """)
    report = eval_global(checked, "Div", "div", {"A": [3]})
    assert report.status == "error"
    assert report.error == "ZeroDivisionError: float division by zero"


# ------------------------------------------------------------- differential

def test_unknown_entry_is_an_error_report_in_both_evaluators():
    checked = compile_ok("class H@A { public static void main() { } }")
    units = project_ok(checked)
    for report, error in [
        (eval_global(checked, "Nope", "main"), "unknown entry class 'Nope'"),
        (eval_global(checked, "H", "nope"), "'H' has no method 'nope'"),
        (eval_distributed(units, "Nope", ["A"], "main"), "missing projected unit 'Nope'"),
        (eval_distributed(units, "H", ["A"], "nope"), "'H' has no method 'nope'"),
    ]:
        assert (report.status, report.error) == ("error", error)


def test_static_entry_wires_no_constructor_in_either_evaluator():
    checked = compile_ok("""
    class K@A {
        Integer@A n;
        public K(Integer@A n) { this.n = n; }
        public static Integer@A go(Integer@A x) { return x; }
    }
    """)
    cmp = differential_run(checked, "K", "go", {"A": [5]})
    assert cmp.equal, cmp.summary()
    assert cmp.distributed_report.returns == {"A": 5}


def test_dispatch_table_covers_every_statement_and_expression_class():
    # S.Chain is desugared before checking, so no evaluator meets it.
    import inspect

    from choreo import local as L
    from choreo import surface as S
    from choreo.interpreter import COMPILE

    classes = [c for module, bases in ((S, (S.Stm, S.Exp)), (L, (L.LStm, L.LExp)))
               for _, c in inspect.getmembers(module, inspect.isclass)
               if issubclass(c, bases) and c not in bases and c is not S.Chain]
    assert len(classes) == 36  # 17 of the surface, 19 of the local language
    assert [c.__name__ for c in classes if c not in COMPILE] == []


def test_unqualified_static_call_is_projected():
    checked = compile_ok("""
    class H@A {
        static void hello() { System@A.out.println("hi"@A); }
        public static void main() { hello(); }
    }
    """)
    cmp = differential_run(checked, "H", "main")
    assert cmp.equal, cmp.summary()
    assert cmp.distributed_report.transcripts == {"A": ["hi"]}
    spin = project_ok(compile_ok("class Spin@A { static void go() { go(); } }"))
    assert "go();" in render_unit(spin.unit("Spin"))


FORMS = """
enum Mode@R { ON, OFF }

class Base@A {
    Integer@A total;
    public Base(Integer@A start) { this.total = start; }
}

class Forms@A extends Base@A {
    public Forms() { super(30@A); }

    Boolean@A say(String@A word, Boolean@A b) {
        System@A.out.println(word);
        return b;
    }

    Integer@A pick(Mode@A mode, Integer@A n) {
        switch (mode) {
            case ON -> { if (n > 0@A) { return n * 2@A; } }
            case OFF -> { return 0@A; }
        }
        return 1@A;
    }

    Integer@A work(Integer@A n) {
        Integer@A x = n;
        x += 7@A;
        total += x;
        if (true@A || say("never"@A, true@A)) { System@A.out.println("yes"@A); }
        if (false@A && say("never"@A, true@A)) { System@A.out.println("no"@A); }
        if (say("loud"@A, true@A) && say("both"@A, true@A)) {
            try { total += pick(Mode@A.ON, x); } catch (Exception@A e) { total = 0@A; }
        }
        if (say("right"@A, false@A) || false@A) { total = 0@A; }
        return total;
    }

    public static Integer@A go(Integer@A n) {
        Forms@A f = new Forms@A();
        return f.work(n);
    }
}
"""


def test_every_statement_form_runs_alike_in_both_evaluators():
    # Compound assignment on a local and a field, short-circuit operators
    # whose right operand prints, an enum switch, a try body, a return from
    # a nested block and a super(...) constructor; the second run reuses
    # the bodies the first compiled.
    checked = compile_ok(FORMS)
    units = project_ok(checked)
    for _ in range(2):
        cmp = differential_run(checked, "Forms", "go", {"A": [3]}, local_program=units)
        assert cmp.equal, cmp.summary()
        assert cmp.global_report.returns == {"A": 60}
        assert cmp.global_report.transcripts == {"A": ["yes", "loud", "both", "right"]}
    assert checked.facts.bodies and units.facts.bodies


CELLS = """
class Cell@A {
    Integer@A n;
    public Cell(Integer@A n) { this.n = n; return; }
    Cell@A bump() { n += 1@A; return this; }
    static Cell@A make(Integer@A n) { return new Cell@A(n); }
    public static Cell@A go(Integer@A n) {
        Cell@A c = make(n).bump();
        return make(make(c.n).bump().n).bump();
    }
}
"""


def test_compiled_bodies_keep_fields_constructors_and_effects():
    # A field assigned by its bare name, a constructor that returns, a field
    # read off a call, and a unit call whose arguments print.
    cmp = differential_run(compile_ok(CELLS), "Cell", "go", {"A": [3]})
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.returns == {"A": ("object", "Cell", (("n", 6),))}
    program = LocalProgram([parse_local_unit("""
    public class U {
        public static void go() { Unit.id(System.out.println(1), System.out.println(2)); }
    }""")])
    report = eval_distributed(program, "U", ["A"], "go")
    assert (report.status, report.transcripts) == ("ok", {"A": ["1", "2"]})


def test_a_read_back_assignment_to_a_call_is_a_runtime_error():
    # The checker rejects such a target in a choreography; a local unit read
    # back from text is not checked, so the run reports it.
    program = LocalProgram([parse_local_unit("""
    public class U {
        static Integer f() { return 1; }
        public static void go() { f() = 1; }
    }""")])
    report = eval_distributed(program, "U", ["A"], "go")
    assert (report.status, report.error) == (
        "error", "A: ChoreoRuntimeError: unsupported assignment target")


# Per run, the first 16 hex digits of the SHA-256 of the repr of both
# evaluators' (status, error, returns, transcripts), sorted by role. They
# were recorded with the two-tier evaluator, which walked a method's first
# seven calls and compiled its eighth, and whose second tier was checked
# against the walker on each of these runs.
RECORDED = {
    "BuyerSellerShipper/0": "b458dea4c5d54b60",
    "BuyerSellerShipper/1": "aa9b6ecf237292a5",
    "BuyerSellerShipper/2": "566ab2949cbf2682",
    "ConsumeItems/0": "1bc10a182922b726",
    "ConsumeItems/1": "a071860418dd6702",
    "DistAuth/0": "31e64b600fae7295",
    "DistAuth/1": "9ff71e90293fe2da",
    "DistAuth10/0": "0bd06ed9754f00db",
    "DistAuth10/1": "c2d9f328acc0d011",
    "DistAuth5/0": "61c1c425a0109a10",
    "DistAuth5/1": "a79b98f68c7e81da",
    "HelloRoles/0": "c9bec97aa203e4cc",
    "Karatsuba/0": "d7501025f3be2fbc",
    "Karatsuba/1": "5adae696a5c7c8a9",
    "MergeSort/0": "b650a7a6def39dee",
    "MergeSort/1": "0c4d4892f911f20a",
    "MergeSort/2": "3baf4362ec8972ff",
    "QuickSort/0": "af5499f35bcaa53f",
    "QuickSort/1": "b0423ac3d5527949",
    "RoundTrip/0": "7222e07cc09fb681",
    "VitalsStreaming/0": "49f097b0e11dba2c",
    "DistAuth2/True": "1862e3e5aab6e442",
    "DistAuth2/False": "d89f087f789d75b4",
    "DistAuth6/True": "ba6e9379cf4e31df",
    "DistAuth6/False": "259cf248e7888da7",
    "DistAuth12/True": "4397e6456441d98f",
    "DistAuth12/False": "4775a926847cda9a",
    "DistAuth20/True": "5063f2278ee5725a",
    "DistAuth20/False": "7c2c8154810f89b4",
    "QuickSort/20": "4c4739e4216f5689",
    "ConsumeItems/30": "e07bfd97b66fd581",
}


def report_digest(reports):
    seen = repr([(r.status, r.error, sorted(r.returns.items()), sorted(r.transcripts.items()))
                 for r in reports])
    return hashlib.sha256(seen.encode()).hexdigest()[:16]


def test_runs_report_what_the_two_tier_evaluator_reported():
    """Every corpus manifest run, DistAuthN logins as the benchmark generates
    them, a QuickSort and a stream, each run twice on one compiled program in
    both evaluators."""
    gen = perfbench_gen()
    cases = [(f"{prog.path.stem}/{i}", prog.path.read_text(), run)
             for prog in positive_entries() for i, run in enumerate(prog.runs)]
    cases += [(f"DistAuth{n}/{valid}", gen.distauth_source(n),
               RunSpec(**gen.distauth_run(n, valid)))
              for n in (2, 6, 12, 20) for valid in (True, False)]
    sort_channels = {"ch_AB": "ab", "ch_BC": "bc", "ch_CA": "ca"}
    cases += [
        ("QuickSort/20", (corpus_root() / "positive" / "QuickSort.chor").read_text(),
         RunSpec("Quicksort", "sort", {"A": [[(i * 7) % 13 - 6 for i in range(20)]]},
                 sort_channels)),
        ("ConsumeItems/30", (corpus_root() / "positive" / "ConsumeItems.chor").read_text(),
         RunSpec("ConsumeItems", "run", {"A": [[f"item{i}" for i in range(30)]]},
                 {"ch": "items"})),
    ]
    assert sorted(name for name, _, _ in cases) == sorted(RECORDED)
    for name, text, run in cases:
        checked = compile_ok(text)
        units = project_ok(checked)
        roles = checked.decl_info(run.entry_class).role_names
        for _ in range(2):  # the second run reuses the compiled bodies
            reports = [eval_global(checked, run.entry_class, run.entry_method, run.args,
                                   run.channels),
                       eval_distributed(units, run.entry_class, roles, run.entry_method,
                                        run.args, run.channels, run.deadline)]
            assert reports[0].status == "ok", name
            assert report_digest(reports) == RECORDED[name], name


def test_a_method_is_compiled_once_at_its_first_call():
    checked = compile_ok("""
    class Twice@A {
        static Integer@A used(Integer@A n) { return n + 1@A; }
        static Integer@A unused(Integer@A n) { return n; }
        public static Integer@A go(Integer@A n) { return used(used(n)); }
    }
    """)
    units = project_ok(checked)
    seen = []
    for _ in range(2):
        cmp = differential_run(checked, "Twice", "go", {"A": [1]}, local_program=units)
        assert cmp.equal, cmp.summary()
        assert cmp.global_report.returns == {"A": 3}
        seen.append((dict(checked.facts.bodies), dict(units.facts.bodies)))
    assert seen[0] == seen[1]  # the same steps: the second run compiled nothing
    methods = {mi.name: mi.node for mi in checked.decl_info("Twice").methods}
    local = {m.name: m for m in units.unit("Twice").decl.methods}
    for facts, nodes in ((checked.facts, methods), (units.facts, local)):
        assert sorted(facts.bodies) == sorted(id(nodes[name]) for name in ("used", "go"))
        assert id(nodes["unused"]) not in facts.bodies


COMPOUND = """
class Acc@A {
    Integer@A total;
    public Acc() { this.total = 1@A; }
    Integer@A bump() { total = 100@A; return 5@A; }
    Acc@A pick() { System@A.out.println("pick"@A); return this; }
    Integer@A said() { System@A.out.println("said"@A); return 5@A; }
    Integer@A onName() { total += bump(); return total; }
    Integer@A onField() { pick().total += bump(); return total; }
    Integer@A onFieldSet() { pick().total = said(); return total; }
    public static Integer@A byName() { return new Acc@A().onName(); }
    public static Integer@A byField() { return new Acc@A().onField(); }
    public static Integer@A byFieldSet() { return new Acc@A().onFieldSet(); }
}
"""


def test_compound_assignment_reads_its_target_before_its_right_operand():
    # Java (JLS 15.26.2): ``total += bump()`` reads total (1) before bump()
    # sets it to 100 and returns 5, so it stores 6, not 105. A field
    # target's receiver is evaluated once, and first (JLS 15.26.1).
    checked = compile_ok(COMPOUND)
    for entry, returns, transcripts in (("byName", 6, {}), ("byField", 6, {"A": ["pick"]}),
                                        ("byFieldSet", 5, {"A": ["pick", "said"]})):
        cmp = differential_run(checked, "Acc", entry)
        assert cmp.equal, cmp.summary()
        for report in (cmp.global_report, cmp.distributed_report):
            assert (report.status, report.returns, report.transcripts) == (
                "ok", {"A": returns}, transcripts), entry


RECEIVER_FIRST = """
class C@A {
    C@A pick() { System@A.out.println("receiver"@A); return this; }
    Integer@A bump() { System@A.out.println("argument"@A); return 7@A; }
    Integer@A take(Integer@A x) { return x; }
    public static Integer@A main() { C@A c = new C@A(); return c.pick().take(c.bump()); }
}
"""


def test_a_call_evaluates_its_receiver_before_its_arguments():
    # Java (JLS 15.12.4): the target reference is evaluated, then the
    # arguments.
    cmp = differential_run(compile_ok(RECEIVER_FIRST), "C", "main")
    assert cmp.equal, cmp.summary()
    for report in (cmp.global_report, cmp.distributed_report):
        assert (report.status, report.returns, report.transcripts) == (
            "ok", {"A": 7}, {"A": ["receiver", "argument"]})


def test_differential_hello(corpus_compiled):
    _, checked, units = corpus_compiled["HelloRoles"]
    cmp = differential_run(checked, "HelloRoles", "sayHello", local_program=units)
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.transcripts == cmp.distributed_report.transcripts


def test_differential_reports_minimal_diff_on_mismatch(corpus_compiled):
    from choreo.differential import compare_reports
    from choreo.interpreter import ExecutionReport

    g = ExecutionReport({"A": 1}, {"A": ["x"]}, 0.0, "ok")
    d = ExecutionReport({"A": 2}, {"A": ["x"]}, 0.0, "ok")
    cmp = compare_reports(["A"], g, d)
    assert not cmp.equal
    assert any("return value at A" in s for s in cmp.diffs)


def test_differential_randomized_mergesort(corpus_compiled):
    import random

    _, checked, units = corpus_compiled["MergeSort"]
    chans = {"ch_AB": "x", "ch_BC": "y", "ch_CA": "z"}
    rng = random.Random(1234)
    for _ in range(8):
        data = [rng.randrange(1000) for _ in range(rng.randrange(0, 16))]
        cmp = differential_run(checked, "Mergesort", "sort", {"A": [data]}, chans,
                               local_program=units)
        assert cmp.equal, cmp.summary()
        assert cmp.distributed_report.returns["A"] == ["list"] + sorted(data)


def test_prelude_value_examples():
    checked = compile_ok("""
    class P@A {
        static Boolean@A emptyness() {
            return Optional@A.<String>empty().isPresent();
        }
        static List@A<Integer> splitHead(List@A<Integer> xs) {
            return xs.subList(0@A, 1@A);
        }
        static Double@A half(Integer@A n) {
            return Math@A.floor(n / 2@A);
        }
    }
    """)
    r = eval_global(checked, "P", "emptyness")
    assert r.returns["A"] is False
    r = eval_global(checked, "P", "splitHead", {"A": [[15, 3]]})
    assert r.returns["A"] == ["list", 15]
    r = eval_global(checked, "P", "half", {"A": [3]})
    assert r.returns["A"] == 1.0


EXCHANGE = """
public class Exchange@(A, B) {
    public static String@A swap(BiChannel@(A, B)<Integer, String> ch, Integer@A n) {
        Integer@B doubled = ch.<Integer>com(n) * 2@B;
        System@B.out.println(doubled);
        return ch.<String>com("doubled"@B);
    }
}
"""


def test_twice_inherited_interface_serves_both_directions():
    """BiChannel@(A, B)<T, R> extends DiChannel twice, as DiChannel@(A, B)<T>
    and DiChannel@(B, A)<R>; com works each way at its own type."""
    renders = []
    for _ in range(2):
        checked = compile_ok(EXCHANGE)
        units = project_ok(checked)
        renders.append([render_unit(u) for u in units.units])
    assert renders[0] == renders[1]
    cmp = differential_run(checked, "Exchange", "swap", {"A": [21]}, {"ch": "ex"},
                           local_program=units)
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.returns["A"] == "doubled"
    assert cmp.global_report.transcripts["B"] == ["42"]


def test_twice_inherited_interface_keeps_each_direction_typed():
    _, reporter = compile_text(EXCHANGE.replace("ch.<Integer>com(n)", 'ch.<String>com("21"@A)'))
    mismatch = [d for d in reporter.errors if d.code is Code.TypeMismatch]
    assert [(d.span.line, d.message, d.expecting, d.found) for d in mismatch] == [
        (4, "Incompatible type argument:", "Integer@Y", "String@Y")]


# ------------------------------------------------------- dispatch failures

FAILING = """
class C@A {
    static Integer@A f;
    public static String@A listText() { return new ArrayList@A<Integer>().toString(); }
    public static Integer@A field() { return C@A.f; }
    public static Integer@A firstFails() {
        String@A s = new ArrayList@A<Integer>().toString();
        return C@A.f;
    }
}
"""


def test_dispatch_failures_the_checker_lets_through_read_alike_in_both_evaluators():
    # A list has no toString in the runtime, and C.f is no static field it
    # knows. In the last entry the first statement fails, so the unknown
    # field after it is never read: its error waits until it runs.
    checked = compile_ok(FAILING)
    units = project_ok(checked)
    for entry, message in (("listText", "no method 'toString' on []"),
                           ("field", "unknown static field 'C.f'"),
                           ("firstFails", "no method 'toString' on []")):
        cmp = differential_run(checked, "C", entry, local_program=units)
        assert (cmp.global_report.status, cmp.global_report.error) == ("error", message)
        assert (cmp.distributed_report.status, cmp.distributed_report.error) == (
            "error", f"A: ChoreoRuntimeError: {message}"), entry


def run_local(*texts, channels=None):
    """Runs ``U.go`` of the local units ``texts`` as the one role A."""
    program = LocalProgram([parse_local_unit(text) for text in texts])
    return eval_distributed(program, "U", ["A"], "go", {}, channels or {}, deadline=10)


def test_dispatch_failures_of_local_units_name_the_call():
    enum = "public enum E { L, R }"
    for body, message in (
        ('"abc".nope();', "no method 'nope' on 'abc'"),
        ("Integer x = E.Z;", "unknown static field 'E.Z'"),
        ("Integer x = Nowhere.f;", "unknown static field 'Nowhere.f'"),
        ("Math.nope(1);", "unknown static call 'Math.nope'"),
        ("Nowhere.f(1);", "unknown static call 'Nowhere.f'"),
        ('"abc".nope(); Integer x = Nowhere.f;', "no method 'nope' on 'abc'"),
        ("E x = E.L; Integer y = Nowhere.f;", "unknown static field 'Nowhere.f'"),
    ):
        report = run_local(f"public class U {{ public static void go() {{ {body} }} }}", enum)
        assert (report.status, report.error) == ("error", f"A: ChoreoRuntimeError: {message}"), body


def test_a_channel_has_only_com_and_select():
    report = run_local(
        "public class U { public static void go(SymChannel<Object> ch) { ch.size(); } }",
        channels={"ch": "k"})
    assert report.status == "error"
    assert report.error.startswith("A: ChoreoRuntimeError: no method 'size' on ChannelEndpoint(")


BUILTIN_NAMES = """
class Bag@A implements List@A<Integer> {
    ArrayList@A<Integer> items;
    public Bag() { this.items = new ArrayList@A<Integer>(); }
    public Integer@A size() { return items.size() + 100@A; }
    public Integer@A get(Integer@A i) { return items.get(i) * 10@A; }
    public Boolean@A add(Integer@A x) { items.add(x); return false@A; }
    public Boolean@A equals(Object@A other) { return true@A; }
}
class Names@(A, B) {
    static Integer@A count(List@A<Integer> c) { return c.size() + c.get(0@A); }
    public static Integer@B go(SymChannel@(A, B)<Object> ch, Integer@A n) {
        ArrayList@A<Integer> xs = new ArrayList@A<Integer>();
        Bag@A bag = new Bag@A();
        System@A.out.println(xs.add(n));
        System@A.out.println(bag.add(n));
        bag.add(n + 1@A);
        System@A.out.println(count(bag));
        System@A.out.println(count(xs));
        System@A.out.println(bag.equals(xs));
        System@A.out.println(n.equals(5@A));
        return ch.<Integer>com(bag.size());
    }
}
"""


def test_methods_of_the_program_with_builtin_names_run_as_written():
    # Bag's size, get, add and equals are its own, not a list's; the call
    # sites in count see a Bag on one call and a list on the next.
    checked = compile_ok(BUILTIN_NAMES)
    units = project_ok(checked)
    for _ in range(2):
        cmp = differential_run(checked, "Names", "go", {"A": [4]}, {"ch": "k"},
                               local_program=units)
        assert cmp.equal, cmp.summary()
        for report in (cmp.global_report, cmp.distributed_report):
            assert (report.status, report.returns, report.transcripts) == (
                "ok", {"A": "unit", "B": 102},
                {"A": ["true", "false", "142", "5", "true", "false"]})
