"""Channel claims and endpoint semantics, and the scheduler that runs
every role of a run on one thread."""

import time
from collections import Counter

import pytest

from choreo.builtins import Console
from choreo.distributed import eval_distributed, run_workers
from choreo.local import LocalProgram
from choreo.local_reader import parse_local_unit
from choreo.runtime import (
    CHANNEL_CAPACITY, UNIT, AssertionFailure, ChannelEndpoint, ChoreoRuntimeError,
    DeadlockTimeout, EnumV, ExecutionContext, ListV, OptionalV,
    assert_builtin, is_unit,
)


def make_pair(deadline=5.0):
    ctx = ExecutionContext(deadline)
    return ctx, ctx.claim("k", "A"), ctx.claim("k", "B")


def run_units(context, entries, *texts):
    """Runs hand-written local units through ``run_workers``; ``entries``
    maps each role to (unit, entry method name, constructor args, method
    args), and the entry is the unit's method of that name and arity."""
    console = Console()
    program = LocalProgram([parse_local_unit(t) for t in texts])
    entries = {role: (unit, next(m for m in program.unit(unit).decl.methods
                                 if m.name == name and len(m.params) == len(args)), ctor, args)
               for role, (unit, name, ctor, args) in entries.items()}
    return run_workers(program, context, console, entries), console


def static_unit(name, body, params="", extra=""):
    return f"public class {name} {{ public static void go({params}) {{ {body} }} {extra} }}"


CLAIM_K = 'SymChannel<Object> ch = TestUtils.newLocalChannel("k"); '
RECEIVE_K = CLAIM_K + "ch.<Object>com(Unit.id);"
# Longer than any deadline below: 2^22 calls, at most 22 deep.
WORK = "static void work(Integer n) { if (n > 0) { work(n - 1); work(n - 1); } }"


def test_two_roles_obtain_connected_endpoints():
    ctx, a, b = make_pair()
    a.send_data(5)
    assert b.receive_data() == 5


def test_same_role_claiming_twice_gets_same_endpoint():
    ctx = ExecutionContext(None)
    e1 = ctx.claim("key", "Device")
    e2 = ctx.claim("key", "Device")
    assert e1 is e2


def test_three_roles_on_one_key_is_an_error():
    ctx, a, b = make_pair()
    with pytest.raises(ChoreoRuntimeError):
        ctx.claim("k", "C")


def test_registry_linearisability_under_concurrent_claims():
    # Both roles claim the key in their own bodies, in turns on one thread.
    ctx = ExecutionContext(5.0)
    claim = 'SymChannel<Object> ch = TestUtils.newLocalChannel("shared"); '
    outcomes, console = run_units(
        ctx, {"A": ("Claim_A", "go", [], []), "B": ("Claim_B", "go", [], [])},
        static_unit("Claim_A", claim + "ch.<Integer>com(7);"),
        static_unit("Claim_B", claim + "System.out.println(ch.<Integer>com(Unit.id));"))
    assert {o.status for o in outcomes.values()} == {"ok"}
    assert console.transcripts() == {"B": ["7"]}
    a, b = ctx.claim("shared", "A"), ctx.claim("shared", "B")
    assert a.pair is b.pair
    assert a.side != b.side


def test_per_direction_fifo_order():
    ctx, a, b = make_pair()
    sent = list(range(10))
    for v in sent:
        a.send_data(v)
    assert [b.receive_data() for _ in sent] == sent


def test_value_fidelity_for_prelude_values():
    ctx, a, b = make_pair()
    payload = ListV([1, "two", OptionalV(True, 3), EnumV("Choice", "GO")])
    a.send_data(payload)
    got = b.receive_data()
    assert got is payload  # in-memory channels move values without marshalling


def test_string_round_trip():
    ctx, a, b = make_pair()
    a.send_data("Hello")
    assert b.receive_data() == "Hello"


def test_com_direction_from_payload():
    # A payload argument sends; the injected unit receives.
    ctx, a, b = make_pair()
    assert is_unit(a.com("msg"))
    assert b.com() == "msg"
    b.com("reply")
    assert a.com(UNIT) == "reply"


def test_select_round_trips_equal_label():
    ctx, a, b = make_pair()
    a.select(EnumV("Choice", "GO"))
    got = b.select(UNIT)
    assert got == EnumV("Choice", "GO")


def test_select_rejects_non_enum_payload():
    ctx, a, b = make_pair()
    with pytest.raises(ChoreoRuntimeError):
        a.send_label("GO")


def test_label_vs_data_protocol_violation():
    ctx, a, b = make_pair()
    a.send_data(1)
    with pytest.raises(ChoreoRuntimeError):
        b.receive_label()


def test_receive_hits_deadline():
    # B waits on a channel while A computes past the deadline: the deadline,
    # checked at every call, stops A, and A's failure cancels B.
    ctx = ExecutionContext(0.3)
    started = time.monotonic()
    outcomes, _ = run_units(
        ctx, {"B": ("Wait_B", "go", [], []), "A": ("Work_A", "go", [], [])},
        static_unit("Wait_B", RECEIVE_K), static_unit("Work_A", "work(22);", extra=WORK))
    assert 0.3 <= time.monotonic() - started < 2.0
    assert ctx.failure == ("A", "deadlock-timeout", "deadline exceeded")
    assert list(outcomes) == ["A", "B"]
    assert (outcomes["B"].status, outcomes["B"].error) == ("error", "cancelled: A failed")


def test_closed_peer_error():
    ctx, a, b = make_pair(deadline=5.0)
    ctx.finish("A")
    started = time.monotonic()
    with pytest.raises(DeadlockTimeout) as exc:
        b.receive_data()
    assert time.monotonic() - started < 1.0
    assert str(exc.value) == "deadlock: B receives on 'k'"


def test_receive_drains_a_finished_peer_first():
    ctx, a, b = make_pair(deadline=5.0)
    a.send_data(1)
    ctx.finish("A")
    assert b.receive_data() == 1
    with pytest.raises(DeadlockTimeout):
        b.receive_data()


def test_first_failure_cancels_a_blocked_peer():
    ctx = ExecutionContext(5.0)
    started = time.monotonic()
    outcomes, _ = run_units(
        ctx, {"B": ("Wait_B", "go", [], []), "A": ("Fail_A", "go", [], [])},
        static_unit("Wait_B", RECEIVE_K),
        static_unit("Fail_A", 'Assert.assertTrue("boom", false);'))
    assert time.monotonic() - started < 1.0
    assert ctx.failure == ("A", "error", "AssertionFailure: boom")
    assert list(outcomes) == ["A", "B"]
    assert (outcomes["B"].status, outcomes["B"].error) == ("error", "cancelled: A failed")


def test_deadlock_names_every_pending_operation():
    ctx = ExecutionContext(5.0)
    started = time.monotonic()
    outcomes, _ = run_units(
        ctx, {"A": ("Wait_A", "go", [], []), "B": ("Wait_B", "go", [], [])},
        static_unit("Wait_A", RECEIVE_K), static_unit("Wait_B", RECEIVE_K))
    assert time.monotonic() - started < 1.0
    message = "deadlock: A receives on 'k'; B receives on 'k'"
    assert {r: (o.status, o.error) for r, o in outcomes.items()} == {
        "A": ("deadlock-timeout", message), "B": ("deadlock-timeout", message)}
    assert ctx.failure == (None, "deadlock-timeout", message)


def test_pipeline_under_fast_switching_keeps_order_and_proves_no_deadlock():
    # Six roles forward numbers down a chain of full channels, so that
    # every role waits often on both sides while the others run.
    roles = [f"R{i}" for i in range(6)]
    count = 20 * CHANNEL_CAPACITY
    ctx = ExecutionContext(30.0)
    links = [(ctx.claim(f"l{i}", a), ctx.claim(f"l{i}", b))
             for i, (a, b) in enumerate(zip(roles, roles[1:]))]
    chan = "SymChannel<Object>"
    more = f"if (n < {count}) {{ "
    first = static_unit("Pipe_R0", "send(out, 0);", f"{chan} out",
                        f"static void send({chan} out, Integer n) {{ {more}"
                        "out.<Integer>com(n); send(out, n + 1); } }")
    middle = [static_unit(f"Pipe_{r}", "fwd(inp, out, 0);", f"{chan} inp, {chan} out",
                          f"static void fwd({chan} inp, {chan} out, Integer n) {{ {more}"
                          "out.<Integer>com(inp.<Integer>com(Unit.id)); fwd(inp, out, n + 1); } }")
              for r in roles[1:-1]]
    last = static_unit("Pipe_R5", "recv(inp, 0);", f"{chan} inp",
                       f"static void recv({chan} inp, Integer n) {{ {more}"
                       "System.out.println(inp.<Integer>com(Unit.id)); recv(inp, n + 1); } }")
    entries = {"R0": ("Pipe_R0", "go", [], [links[0][0]])}
    entries.update({r: (f"Pipe_{r}", "go", [], [links[i][1], links[i + 1][0]])
                    for i, r in enumerate(roles[1:-1])})
    entries["R5"] = ("Pipe_R5", "go", [], [links[-1][1]])
    outcomes, console = run_units(ctx, entries, first, *middle, last)
    assert {o.status for o in outcomes.values()} == {"ok"}
    assert ctx.failure is None
    assert console.transcripts() == {"R5": [str(n) for n in range(count)]}


def test_send_blocks_when_buffer_full():
    # A direction holds CHANNEL_CAPACITY messages. A send past that waits
    # for the receiver, and when the receiver has finished it never can.
    ctx, a, b = make_pair(deadline=5.0)
    for i in range(CHANNEL_CAPACITY):
        a.send_data(i)
    with pytest.raises(DeadlockTimeout):
        a.send_data("overflow")

    ctx = ExecutionContext(5.0)
    sends = "".join(f"ch.<Integer>com({i});" for i in range(CHANNEL_CAPACITY + 1))
    started = time.monotonic()
    outcomes, _ = run_units(
        ctx, {"A": ("Send_A", "go", [], []), "B": ("Idle_B", "go", [], [])},
        static_unit("Send_A", CLAIM_K + sends), static_unit("Idle_B", CLAIM_K))
    assert time.monotonic() - started < 1.0
    assert outcomes["B"].status == "ok"
    assert (outcomes["A"].status, outcomes["A"].error) == (
        "deadlock-timeout", "deadlock: A sends on 'k'")
    assert len(ctx.claim("k", "A").pair.queues[0]) == CHANNEL_CAPACITY


def test_a_bound_receive_of_a_label_that_finds_data_is_a_protocol_violation():
    # A runs first, so B's select finds the data at once (the compiled
    # receive); with B first, it waits and then finds it.
    send = static_unit("Send_A", CLAIM_K + "ch.<Integer>com(1);")
    select = static_unit("Select_B", CLAIM_K + "ch.<Choice>select(Unit.id);")
    message = "ChoreoRuntimeError: protocol violation on 'k': expected label, got data"
    for order in (["A", "B"], ["B", "A"]):
        ctx = ExecutionContext(5.0)
        units = {"A": ("Send_A", "go", [], []), "B": ("Select_B", "go", [], [])}
        outcomes, _ = run_units(ctx, {r: units[r] for r in order}, send, select)
        assert ctx.failure == ("B", "error", message)
        assert outcomes["A"].status == "ok"


def test_com_of_an_object_of_the_program_runs_its_own_method():
    # ``obj.com(Unit.id)`` binds a receive, whose receiver is no endpoint:
    # the call runs the class's own com, and the role never waits.
    echo = 'public class Echo { public String com(Unit x) { return "own com"; } }'
    ctx = ExecutionContext(5.0)
    outcomes, console = run_units(
        ctx, {"A": ("Own_A", "go", [], [])},
        static_unit("Own_A", "Echo e = new Echo(); System.out.println(e.com(Unit.id));"), echo)
    assert outcomes["A"].status == "ok"
    assert console.transcripts() == {"A": ["own com"]}


def test_a_com_of_a_unit_value_receives():
    # Projection writes a receive as ``com(Unit.id)``; a message that is
    # unit only when it runs, as at the end of a ``>> ch::com`` chain, also
    # receives.
    ctx = ExecutionContext(5.0)
    outcomes, console = run_units(
        ctx, {"A": ("Send_A", "go", [], []), "B": ("Take_B", "go", [], [UNIT])},
        static_unit("Send_A", CLAIM_K + "ch.<Integer>com(7);"),
        static_unit("Take_B", CLAIM_K + "System.out.println(ch.<Integer>com(u));", "Unit u"))
    assert {o.status for o in outcomes.values()} == {"ok"}
    assert console.transcripts() == {"B": ["7"]}


@pytest.mark.parametrize("operation", ["<Integer>com", "<Choice>select"])
def test_a_channel_operation_with_no_argument_is_no_method_of_an_endpoint(operation):
    # The prelude's com and select take one argument, and every call that
    # projection writes has one.
    ctx = ExecutionContext(5.0)
    outcomes, console = run_units(
        ctx, {"A": ("Send_A", "go", [], []), "B": ("Take_B", "go", [], [])},
        static_unit("Send_A", CLAIM_K + "ch.<Integer>com(1);"),
        static_unit("Take_B", CLAIM_K + f"System.out.println(ch.{operation}());"))
    failed, status, message = ctx.failure
    assert (failed, status) == ("B", "error")
    no_method = f"ChoreoRuntimeError: no method '{operation.split('>')[1]}' on ChannelEndpoint("
    assert message.startswith(no_method), message
    assert outcomes["B"].status == "error" and console.transcripts() == {}


def test_a_send_into_a_full_direction_waits_for_the_receiver():
    # A runs first, and its 17th send waits until B has received; if B
    # waits on another channel from A instead, the two wait on each other
    # and the run is proven a deadlock.
    sends = "".join(f"ch.<Integer>com({i});" for i in range(CHANNEL_CAPACITY + 1))
    receives = "".join("System.out.println(ch.<Integer>com(Unit.id));"
                       for _ in range(CHANNEL_CAPACITY + 1))
    ctx = ExecutionContext(5.0)
    outcomes, console = run_units(
        ctx, {"A": ("Send_A", "go", [], []), "B": ("Take_B", "go", [], [])},
        static_unit("Send_A", CLAIM_K + sends), static_unit("Take_B", CLAIM_K + receives))
    assert {o.status for o in outcomes.values()} == {"ok"}
    assert console.transcripts() == {"B": [str(i) for i in range(CHANNEL_CAPACITY + 1)]}

    ctx = ExecutionContext(5.0)
    started = time.monotonic()
    outcomes, _ = run_units(
        ctx, {"A": ("Send_A", "go", [], []), "B": ("Wait_B", "go", [], [])},
        static_unit("Send_A", CLAIM_K + sends),
        static_unit("Wait_B", CLAIM_K + 'TestUtils.newLocalChannel("k2").<Integer>com(Unit.id);'))
    assert time.monotonic() - started < 1.0
    message = "deadlock: A sends on 'k'; B receives on 'k2'"
    assert ctx.failure == (None, "deadlock-timeout", message)
    assert {r: (o.status, o.error) for r, o in outcomes.items()} == {
        "A": ("deadlock-timeout", message), "B": ("deadlock-timeout", message)}


def test_every_message_is_one_send_and_one_receive_call(corpus_compiled, monkeypatch):
    # The benchmark's runtime.messages and runtime.labels count the calls
    # of these four methods; each message makes one call of a send and one
    # of a receive, whatever path the operation takes.
    calls = Counter()
    for name in ("send_data", "send_label", "receive_data", "receive_label"):
        def counted(self, *args, name=name, method=getattr(ChannelEndpoint, name)):
            calls[name] += 1
            return method(self, *args)
        monkeypatch.setattr(ChannelEndpoint, name, counted)
    _, _, units = corpus_compiled["MergeSort"]
    report = eval_distributed(units, "Mergesort", ["A", "B", "C"], "sort", {"A": [[15, 3, 14]]},
                              {"ch_AB": "x", "ch_BC": "y", "ch_CA": "z"}, deadline=10)
    assert (report.status, report.returns["A"]) == ("ok", ["list", 3, 14, 15])
    assert calls == {"send_label": 34, "receive_label": 34, "send_data": 12, "receive_data": 12}


def test_assert_builtin():
    assert assert_builtin(True, "x") is UNIT
    with pytest.raises(AssertionFailure) as exc:
        assert_builtin(False, "bad pseudonymisation")
    assert "bad pseudonymisation" in str(exc.value)
    with pytest.raises(ChoreoRuntimeError):
        assert_builtin("yes", "msg")
