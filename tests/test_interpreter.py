"""Global and distributed evaluation, and the differential harness."""

import gc
import hashlib
import sys
import time

import pytest

from conftest import compile_ok, compile_text, perfbench_gen

from choreo.corpus import corpus_root, positive_entries
from choreo.diagnostics import Code, Reporter
from choreo.differential import RunSpec, differential_run
from choreo.distributed import eval_distributed
from choreo.interpreter import GlobalChannel, eval_global
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


SPIN = """
class Spin@A {
    void viaReceiver(Spin@A r, Integer@A n) {
        if (n > 0@A) { r.viaReceiver(r, n - 1@A); r.viaReceiver(r, n - 1@A); }
    }
    void unqualified(Integer@A n) {
        if (n > 0@A) { unqualified(n - 1@A); unqualified(n - 1@A); }
    }
    void endless(Spin@A r) { r.endless(r); }
    public static void byReceiver(Integer@A n) { Spin@A s = new Spin@A(); s.viaReceiver(s, n); }
    public static void byName(Integer@A n) { new Spin@A().unqualified(n); }
    public static void forever() { Spin@A s = new Spin@A(); s.endless(s); }
}
"""


def test_the_deadline_stops_a_worker_recursing_through_calls_on_objects():
    # 2^60 calls, never deeper than 61: only the deadline can stop them.
    checked = compile_ok(SPIN)
    units = project_ok(checked)
    for entry in ("byReceiver", "byName"):
        started = time.monotonic()
        report = eval_distributed(units, "Spin", ["A"], entry, {"A": [60]}, deadline=0.3)
        assert (report.status, report.error) == ("deadlock-timeout", "A: deadline exceeded"), entry
        assert time.monotonic() - started < 2.0


def test_the_call_depth_bound_stops_the_oracle_recursing_through_a_receiver():
    report = eval_global(compile_ok(SPIN), "Spin", "forever")
    assert (report.status, report.error) == (
        "error", f"call depth exceeds {MAX_CALL_DEPTH} calls")


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
    # Each program is also run once by the oracle, whose facts the checked
    # program keeps, before it is dropped.
    programs = [([(str(prog.path), prog.path.read_text())], prog.runs[0])
                for prog in positive_entries()]
    gc.collect()
    gc.disable()
    try:
        for srcs, run in programs:
            checked, reporter = compile_sources(srcs)
            units, reporter = project_program(checked, reporter)
            assert not reporter.has_errors()
            for unit in units.units:
                render_unit(unit)
            report = eval_global(checked, run.entry_class, run.entry_method, run.args,
                                 run.channels)
            assert report.status == "ok", report.error
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
    error, here the prelude's Integer ``Math.pow`` of zero to a negative
    power."""
    checked = compile_ok("""
    class Pow@A {
        public static Integer@A pow(Integer@A n) {
            return Math@A.pow(0@A, 0@A - n);
        }
    }
    """)
    report = eval_global(checked, "Pow", "pow", {"A": [3]})
    assert report.status == "error"
    assert report.error.startswith("ZeroDivisionError: ")


DOUBLES = """
class D@A {
    public static Double@A go() {
        Double@A inf = 1.0@A / 0.0@A;
        System@A.out.println(inf);
        System@A.out.println((0.0@A - 1.0@A) / 0.0@A);
        System@A.out.println(1.0@A / ((0.0@A - 1.0@A) * 0.0@A));
        System@A.out.println(0.0@A / 0.0@A);
        System@A.out.println(1.0@A % 0.0@A);
        System@A.out.println(inf % 2.0@A);
        System@A.out.println((0.0@A - 5.5@A) % 2.0@A);
        System@A.out.println(5.5@A % (0.0@A - 2.0@A));
        System@A.out.println(5.5@A % inf);
        System@A.out.println((0.0@A - 1.0@A) * 0.0@A);
        System@A.out.println(10000000000000000.0@A);
        System@A.out.println(0.0001@A);
        System@A.out.println(12345678.0@A);
        System@A.out.println(10000000.0@A);
        System@A.out.println(9999999.0@A);
        System@A.out.println(0.001@A);
        System@A.out.println(0.1@A + 0.2@A);
        System@A.out.println(0.0@A - 123456789.125@A);
        System@A.out.println("x"@A + inf.toString());
        return inf;
    }
}
"""


def test_doubles_divide_and_print_as_java_does():
    # Each line is what the same expression prints in Java (JDK 17).
    checked = compile_ok(DOUBLES)
    cmp = differential_run(checked, "D", "go", local_program=project_ok(checked))
    assert cmp.equal, cmp.summary()
    assert "panic:" not in str(cmp.distributed_report.error)
    assert cmp.global_report.returns == {"A": float("inf")}
    assert cmp.global_report.transcripts == {"A": [
        "Infinity", "-Infinity", "-Infinity", "NaN", "NaN", "NaN", "-1.5", "1.5", "5.5",
        "-0.0", "1.0E16", "1.0E-4", "1.2345678E7", "1.0E7", "9999999.0", "0.001",
        "0.30000000000000004", "-1.23456789125E8", "xInfinity"]}


def test_floor_and_int_value_of_any_double_are_javas():
    # Each line is what the same expression prints in Java (JDK 17):
    # floor keeps NaN, the infinities and a signed zero, and intValue
    # narrows by JLS 5.1.3.
    checked = compile_ok("""
    class F@A {
        public static void go() {
            Double@A inf = 1.0@A / 0.0@A;
            Double@A nan = 0.0@A / 0.0@A;
            Double@A negInf = (0.0@A - 1.0@A) / 0.0@A;
            Double@A big = 10000000000.0@A;
            Double@A neg = 0.0@A - 2.7@A;
            System@A.out.println(Math@A.floor((0.0@A - 1.0@A) * 0.0@A));
            System@A.out.println(Math@A.floor(inf));
            System@A.out.println(Math@A.floor(nan));
            System@A.out.println(nan.intValue());
            System@A.out.println(inf.intValue());
            System@A.out.println(negInf.intValue());
            System@A.out.println(big.intValue());
            System@A.out.println(neg.intValue());
        }
    }
    """)
    cmp = differential_run(checked, "F", "go", local_program=project_ok(checked))
    assert cmp.equal, cmp.summary()
    assert cmp.distributed_report.status == "ok"
    assert cmp.global_report.transcripts == {"A": [
        "-0.0", "Infinity", "NaN", "0", "2147483647", "-2147483648", "2147483647", "-2"]}


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


MISSING_ARGUMENT = """
class M@A {
    public M() { System@A.out.println("built"@A); }
    public void t(Integer@A x) { System@A.out.println(x); }
}
"""


def test_eval_global_reports_a_missing_argument_before_the_run_starts():
    checked = compile_ok(MISSING_ARGUMENT)
    report = eval_global(checked, "M", "t")
    assert (report.status, report.error) == (
        "error", "entry parameter 'x' at A has no value in the arguments")
    assert report.transcripts.get("A", []) == []
    assert eval_global(checked, "M", "t", {"A": [5]}).transcripts == {"A": ["built", "5"]}


def test_eval_distributed_reports_a_missing_argument_before_the_run_starts():
    units = project_ok(compile_ok(MISSING_ARGUMENT))
    report = eval_distributed(units, "M", ["A"], "t", {"A": []})
    assert (report.status, report.error, report.outcomes) == (
        "error", "A: entry parameter 'x' at A has no value in the arguments", {})
    assert report.transcripts.get("A", []) == []
    assert eval_distributed(units, "M", ["A"], "t", {"A": [5]}).transcripts == {
        "A": ["built", "5"]}


def test_a_multi_role_entry_parameter_without_channel_wiring_is_refused_by_both():
    checked = compile_ok("""
    class M@(A, B) {
        public static void t(SymChannel@(A, B)<Object> ch) { ch.<Integer>com(1@A); }
    }
    """)
    cmp = differential_run(checked, "M", "t")
    g, d = cmp.global_report, cmp.distributed_report
    assert (g.status, g.error, g.transcripts) == (
        "error", "entry parameter 'ch' at A, B has no channel wiring", {})
    assert (d.status, d.error, d.transcripts) == (
        "error", "A: entry parameter 'ch' at A has no value in the arguments", {})


def test_operands_that_call_run_in_both_evaluators():
    # An assignment whose value calls inside an operator, a sum whose left or
    # right operand is such a sum, and a field of a call's result.
    checked = compile_ok("""
    class G@A {
        Integer@A v;
        public G(Integer@A v) { this.v = v; }
        static Integer@A f(Integer@A x) { return x + 1@A; }
        static G@A make(Integer@A x) { return new G@A(x); }
        public static Integer@A go(Integer@A x) {
            Integer@A a = 0@A;
            a = f(x) + 1@A;
            Integer@A b = (f(x) + 1@A) + 2@A;
            Integer@A c = 1@A + (2@A + f(x));
            Integer@A d = make(x).v;
            System@A.out.println(a);
            System@A.out.println(b);
            System@A.out.println(c);
            System@A.out.println(d);
            return a + b + c + d;
        }
    }
    """)
    cmp = differential_run(checked, "G", "go", {"A": [5]})
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.returns == {"A": 30}
    assert cmp.global_report.transcripts == {"A": ["7", "9", "9", "5"]}


def test_differential_run_of_an_unknown_entry_class_is_a_mismatch():
    checked = compile_ok("class H@A { public static void main() { } }")
    cmp = differential_run(checked, "Nope", "main")
    assert (cmp.equal, cmp.diffs) == (False, ["unknown entry class 'Nope'"])


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


def test_a_super_constructor_runs_at_the_roles_its_own_extends_clause_passes():
    # Mid passes its roles to Base swapped, and Top passes its own to Mid as
    # they are: Base's P is Top's Q, so "base" prints at Q in both evaluators.
    checked = compile_ok("""
    class Base@(P, Q) {
        public Base(Integer@Q x) { System@P.out.println("base"@P); }
    }
    class Mid@(P, Q) extends Base@(Q, P) {
        public Mid(Integer@P x) { super(x); }
    }
    class Top@(P, Q) extends Mid@(P, Q) {
        public Top(Integer@P x) { super(x); }
    }
    class Main@(P, Q) {
        public static void main(Integer@P y) { new Top@(P, Q)(y); }
    }
    """)
    cmp = differential_run(checked, "Main", "main", {"P": [1]}, local_program=project_ok(checked))
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.transcripts == {"Q": ["base"]}


def test_dispatch_table_covers_every_statement_and_expression_class():
    import inspect

    from choreo import local as L
    from choreo import surface as S
    from choreo.interpreter import COMPILE

    classes = [c for module, bases in ((S, (S.Stm, S.Exp)), (L, (L.LStm, L.LExp)))
               for _, c in inspect.getmembers(module, inspect.isclass)
               if issubclass(c, bases) and c not in bases]
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
    public static String@A iteratorText() { return new ArrayList@A<Integer>().iterator().toString(); }
}
"""


def test_dispatch_failures_the_checker_lets_through_read_alike_in_both_evaluators():
    # The checker gives an interface such as Iterator the methods of Object,
    # which the prelude's Iterator does not declare and an iterator has not
    # in the runtime.
    checked = compile_ok(FAILING)
    units = project_ok(checked)
    message = "no method 'toString' on IteratorV(items=[], index=0)"
    cmp = differential_run(checked, "C", "iteratorText", local_program=units)
    assert (cmp.global_report.status, cmp.global_report.error) == ("error", message)
    assert (cmp.distributed_report.status, cmp.distributed_report.error) == (
        "error", f"A: ChoreoRuntimeError: {message}")


OBJECT_METHODS = """
class C@A {
    public static Boolean@A go() {
        ArrayList@A<Integer> xs = new ArrayList@A<Integer>();
        xs.add(1@A);
        System@A.out.println(new ArrayList@A<Integer>().toString());
        System@A.out.println(xs.toString());
        System@A.out.println(Optional@A.<Integer>of(2@A).toString());
        System@A.out.println(Optional@A.<String>of("a"@A).toString());
        System@A.out.println(Optional@A.<Integer>empty().toString());
        System@A.out.println(Optional@A.<Integer>empty().equals(Optional@A.<Integer>empty()));
        System@A.out.println(new Exception@A("e"@A).toString());
        System@A.out.println(System@A.out.toString());
        System@A.out.println(System@A.out.equals(System@A.out));
        return xs.equals(xs);
    }
}
"""


def test_every_builtin_value_has_the_methods_of_object():
    # toString gives what println prints; equals is the == of values.
    checked = compile_ok(OBJECT_METHODS)
    cmp = differential_run(checked, "C", "go", local_program=project_ok(checked))
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.returns == {"A": True}
    assert cmp.global_report.transcripts == {"A": [
        "[]", "[1]", "Optional[2]", "Optional[a]", "Optional.empty", "true", "java.lang.Exception: e",
        "PrintStreamV(role='A')", "true"]}


def test_a_null_string_prints_and_joins_as_java_does():
    checked = compile_ok("""
    class C@A {
        public static String@A go() {
            String@A s = null@A;
            System@A.out.println(s);
            System@A.out.println("x"@A + s);
            System@A.out.println(s + "x"@A);
            return s + "!"@A;
        }
    }
    """)
    cmp = differential_run(checked, "C", "go", local_program=project_ok(checked))
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.returns == {"A": "null!"}
    assert cmp.global_report.transcripts == {"A": ["null", "xnull", "nullx"]}


@pytest.mark.parametrize("body", [
    "Integer@A x = null@A; Integer@A y = 1@A; return x + y;",
    "Integer@A x = null@A; if (x < 2@A) { return 1@A; } return 0@A;",
    # Java joins two null Strings into "nullnull"; a value does not carry
    # its static type, so both evaluators take this ``+`` as arithmetic.
    "String@A s = null@A; String@A t = null@A; System@A.out.println(s + t); return 0@A;",
    # Java unboxes a Boolean guard and both operands of '&', '|', '&&' and '||'.
    "Boolean@A b = null@A; if (b) { return 1@A; } return 0@A;",
    "Boolean@A b = null@A; if (b & true@A) { return 1@A; } return 0@A;",
    "Boolean@A b = null@A; Boolean@A c = true@A | b; return 0@A;",
    "Boolean@A b = null@A; Boolean@A c = true@A && b; return 0@A;",
    "Boolean@A b = null@A; Boolean@A c = false@A || b; return 0@A;",
    # A right operand that calls takes the evaluators' other path.
    "Boolean@A c = true@A && nothing(); return 0@A;",
    "if (false@A || nothing()) { return 1@A; } return 0@A;",
])
def test_a_null_operand_is_a_null_pointer_exception_in_both_evaluators(body):
    checked = compile_ok("class C@A { static Boolean@A nothing() { return null@A; } "
                         "public static Integer@A go() { %s } }" % body)
    cmp = differential_run(checked, "C", "go", local_program=project_ok(checked))
    reports = (cmp.global_report, cmp.distributed_report)
    assert [r.status for r in reports] == ["error", "error"]
    for report in reports:
        assert "NullPointerException" in report.error and "panic:" not in report.error


# A right operand that calls prints; one that does not divides by zero.
@pytest.mark.parametrize("guard", ["b && f()", "b || f()", "b && 1@A / 0@A == 0@A",
                                   "b || 1@A / 0@A == 0@A"])
def test_a_null_left_operand_of_a_conditional_operator_stops_before_the_right_one(guard):
    checked = compile_ok(
        'class C@A { static Boolean@A f() { System@A.out.println("right"@A); return true@A; } '
        "public static Integer@A go() { Boolean@A b = null@A; if (%s) { return 1@A; } "
        "return 0@A; } }" % guard)
    cmp = differential_run(checked, "C", "go", local_program=project_ok(checked))
    for report in (cmp.global_report, cmp.distributed_report):
        assert report.status == "error" and "NullPointerException" in report.error, report
        assert report.transcripts.get("A", []) == [], report


@pytest.mark.parametrize("body,returns", [
    ("String@A go() { String@A s = null@A; return s; }", {"A": "null", "B": "unit"}),
    ("void go() { System@A.out.println(\"x\"@A); return; }", {"A": "unit", "B": "unit"}),
    ("void go() { }", {"A": "unit", "B": "unit"}),
])
def test_a_null_return_observes_apart_from_a_void_one(body, returns):
    checked = compile_ok("class C@(A, B) { public static %s }" % body)
    cmp = differential_run(checked, "C", "go", local_program=project_ok(checked))
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.returns == cmp.distributed_report.returns == returns


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
        ('"abc".nope(); Nowhere.f(1);', "no method 'nope' on 'abc'"),
        ('"abc".nope(); new Nowhere();', "no method 'nope' on 'abc'"),
        ("new Nowhere();", "unknown local class 'Nowhere'"),
    ):
        report = run_local(f"public class U {{ public static void go() {{ {body} }} }}", enum)
        assert (report.status, report.error) == ("error", f"A: ChoreoRuntimeError: {message}"), body
    # An operand that never runs never fails.
    report = run_local("public class U { public static void go() { "
                       "Boolean b = false && Nowhere.g(); System.out.println(b); } }")
    assert (report.status, report.transcripts) == ("ok", {"A": ["false"]})


def test_a_selection_switch_without_the_label_takes_its_default_throw():
    # B's generated default arm runs when A selects a label B has no case
    # for: B fails with the throw's message, and A, which only selected, ends.
    units = [parse_local_unit(text) for text in ("public enum E { L, R }", """
    public class U_A {
        public static void go(SymChannel<Object> ch) { ch.<E>select(E.R); }
    }""", """
    public class U_B {
        public static void go(SymChannel<Object> ch) {
            switch (ch.<E>select(Unit.id)) {
                case L -> { System.out.println("left"); }
                default -> { throw new RuntimeException("unexpected selection label"); }
            }
        }
    }""")]
    report = eval_distributed(LocalProgram(units), "U", ["A", "B"], "go", {}, {"ch": "k"},
                              deadline=10)
    assert (report.status, report.error) == (
        "error", "B: ChoreoRuntimeError: unexpected selection label")
    assert report.outcomes["A"].status == "ok"
    assert report.transcripts == {}


def test_a_channel_has_only_com_and_select():
    report = run_local(
        "public class U { public static void go(SymChannel<Object> ch) { ch.size(); } }",
        channels={"ch": "k"})
    assert (report.status, report.error) == ("error", "A: ChoreoRuntimeError: no method "
                                             "'size' on ChannelEndpoint(key='k', side=0, claimant='A')")
    assert repr(GlobalChannel("k")) == "GlobalChannel(key='k')"


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


PER_SITE = """
class Base@A {
    public void hello() { System@A.out.println("base"@A); }
    public void go() { hello(); }
}
class Sub1@A extends Base@A {
    public void hello() { System@A.out.println("one"@A); }
}
class Sub2@A extends Base@A {
    public void hello() { System@A.out.println("two"@A); }
}
class Calls@A {
    static void call(Base@A b) { b.hello(); }
    public static void run() {
        call(new Sub1@A());
        call(new Sub2@A());
        call(new Base@A());
        new Sub1@A().go();
        new Sub2@A().go();
    }
}
"""


def test_a_call_site_dispatches_on_the_class_of_each_receiver():
    # b.hello() sees three classes at one site, and the hello() of the
    # inherited go() two; the second run reuses the compiled sites.
    checked = compile_ok(PER_SITE)
    units = project_ok(checked)
    for _ in range(2):
        cmp = differential_run(checked, "Calls", "run", local_program=units)
        assert cmp.equal, cmp.summary()
        assert cmp.global_report.transcripts == {"A": ["one", "two", "base", "one", "two"]}


MISSING = """
class Named@A {
    public String@A toString() { return "named"@A; }
}
class Plain@A { }
class Show@A {
    static String@A show(Object@A o) { return o.toString(); }
    public static String@A run() {
        System@A.out.println(show(new Named@A()));
        return show(new Plain@A());
    }
}
"""


def test_a_call_site_that_finds_no_method_fails_on_every_call():
    # o.toString() runs Named's, then finds none on a Plain, in each run.
    checked = compile_ok(MISSING)
    units = project_ok(checked)
    message = "'Plain' has no method 'toString/0'"
    for _ in range(2):
        cmp = differential_run(checked, "Show", "run", local_program=units)
        assert (cmp.global_report.status, cmp.global_report.error) == ("error", message)
        assert (cmp.distributed_report.status, cmp.distributed_report.error) == (
            "error", f"A: ChoreoRuntimeError: {message}")
        for report in (cmp.global_report, cmp.distributed_report):
            assert report.transcripts == {"A": ["named"]}


SAME_ARITY = """
class C@A {
    public C() { }
    %s void f(Integer@A x) { System@A.out.println("int"@A); }
    %s void f(String@A x) { System@A.out.println("string"@A); }
    public static void go() { %s }
}
"""


def test_same_arity_overloads_on_an_object_dispatch_by_parameter_types():
    calls = 'new C@A().f("s"@A); new C@A().f(1@A);'
    checked = compile_ok(SAME_ARITY % ("public", "public", calls))
    cmp = differential_run(checked, "C", "go")
    for report in (cmp.global_report, cmp.distributed_report):
        assert (report.status, report.transcripts) == ("ok", {"A": ["string", "int"]})


def test_same_arity_static_overloads_dispatch_by_parameter_types():
    checked = compile_ok(SAME_ARITY % ("static", "static", 'f("s"@A); f(1@A);'))
    cmp = differential_run(checked, "C", "go")
    for report in (cmp.global_report, cmp.distributed_report):
        assert (report.status, report.transcripts) == ("ok", {"A": ["string", "int"]})


def test_same_arity_constructors_run_the_one_the_checker_resolved():
    checked = compile_ok("""
    class C@A {
        public C(Integer@A x) { System@A.out.println("int"@A); }
        public C(String@A x) { System@A.out.println("string"@A); }
        public static void go() { new C@A("s"@A); new C@A(1@A); }
    }
    """)
    cmp = differential_run(checked, "C", "go")
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.transcripts == {"A": ["string", "int"]}


def test_an_inherited_overload_beside_an_override_runs_as_in_java():
    # C overrides only f(String); f(1) runs B's f(Integer), as Java's
    # method table does, not the first f of C's.
    checked = compile_ok("""
    class B@A {
        public void f(Integer@A x) { System@A.out.println("b-int"@A); }
        public void f(String@A x) { System@A.out.println("b-string"@A); }
    }
    class C@A extends B@A {
        public void f(String@A x) { System@A.out.println("c-string"@A); }
        public static void go() { new C@A().f("s"@A); new C@A().f(1@A); }
    }
    """)
    cmp = differential_run(checked, "C", "go")
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.transcripts == {"A": ["c-string", "b-int"]}


def test_an_inherited_method_runs_at_the_roles_its_superclass_binds():
    # Sub passes its roles to Base swapped, so Base's X is Sub's B.
    checked = compile_ok("""
    class Base@(X, Y) {
        public void hello() { System@X.out.println("x"@X); }
    }
    class Sub@(A, B) extends Base@(B, A) {
        public static void go() { new Sub@(A, B)().hello(); }
    }
    """)
    cmp = differential_run(checked, "Sub", "go")
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.transcripts == {"B": ["x"]}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: both calls resolve to the one "
                   "DiDataChannel.com, so they share its slot and run one override")
def test_each_com_of_a_class_over_a_bidatachannel_runs_its_own_override():
    # Both implements DiDataChannel@(A, B)<Integer> and DiDataChannel@(B,
    # A)<String> with one com each; in Java each call runs its own once.
    checked = compile_ok("""
    class Both@(A, B) implements BiDataChannel@(A, B)<Integer, String> {
        BiDataChannel@(A, B)<Integer, String> ch;
        public Both(BiDataChannel@(A, B)<Integer, String> ch) { this.ch = ch; }
        public <S@Y extends Integer@Y> S@B com(S@A m) {
            System@B.out.println("ab"@B);
            return ch.<S>com(m);
        }
        public <S@Y extends String@Y> S@A com(S@B m) {
            System@A.out.println("ba"@A);
            return ch.<S>com(m);
        }
    }
    class Use@(A, B) {
        public static void go(BiDataChannel@(A, B)<Integer, String> ch) {
            BiDataChannel@(A, B)<Integer, String> w = new Both@(A, B)(ch);
            System@B.out.println(w.<Integer>com(5@A));
            System@A.out.println(w.<String>com("s"@B));
        }
    }
    """)
    cmp = differential_run(checked, "Use", "go", channels={"ch": "k"}, deadline=1)
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.transcripts == {"A": ["ba", "s"], "B": ["ab", "5"]}


def test_a_read_back_call_of_an_overloaded_name_and_arity_is_reported():
    # A unit read back from text carries no slots, so a call finds its
    # method by name and arity; two of them are reported, not the first run.
    overloads = ("void f(Integer x) { System.out.println(1); } "
                 "void f(String x) { System.out.println(2); }")
    for call in ("f(1);", "new U().f(1);"):
        report = run_local(f"public class U {{ {overloads} public void go() {{ {call} }} }}")
        assert (report.status, report.error, report.transcripts) == (
            "error", "A: ChoreoRuntimeError: 'U' has 2 methods 'f/1'", {}), call


@pytest.mark.parametrize("text, printed", [
    # B's g calls B's static h, which C's h hides rather than overrides.
    ("""class B@A {
            static void h() { System@A.out.println("b"@A); }
            public void g() { h(); }
        }
        class C@A extends B@A {
            static void h() { System@A.out.println("c"@A); }
            public static void go() { new C@A().g(); }
        }""", ["b"]),
    # B's constructor calls init on the C that it makes, so C's init runs.
    ("""class B@A {
            public B() { init(); }
            public void init() { System@A.out.println("b"@A); }
        }
        class C@A extends B@A {
            public C() { super(); }
            public void init() { System@A.out.println("c"@A); }
            public static void go() { new C@A(); }
        }""", ["c"]),
], ids=["static-hidden", "virtual-in-super-constructor"])
def test_an_unqualified_call_in_an_inherited_body_runs_as_in_java(text, printed):
    cmp = differential_run(compile_ok(text), "C", "go")
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.transcripts == {"A": printed}


def test_a_read_back_override_runs_the_nearest_method():
    # Read back, U and B each hold one f/0; U's overrides B's, as up
    # ``extends`` the nearest class that declares the name and arity wins.
    base = 'public class B { public void f() { System.out.println("b"); } }'
    for call in ("f();", "new U().f();"):
        report = run_local(
            'public class U extends B { public void f() { System.out.println("u"); } '
            f"public void go() {{ {call} }} }}", base)
        assert (report.status, report.transcripts) == ("ok", {"A": ["u"]}), call


def test_an_interface_method_that_a_superclass_implements_runs_in_both_evaluators():
    # C's table maps I's g to B's g, a method that no table of B names.
    checked = compile_ok("""
    interface I@A { void g(); }
    class B@A { public void g() { System@A.out.println("b"@A); } }
    class C@A extends B@A implements I@A {
        public static void go() { I@A i = new C@A(); i.g(); }
    }
    """)
    cmp = differential_run(checked, "C", "go")
    assert cmp.equal, cmp.summary()
    assert cmp.global_report.transcripts == {"A": ["b"]}
