"""Channel registry and endpoint semantics, and the scheduler that runs
every role of a run on one thread."""

import time

import pytest

from choreo.builtins import Console
from choreo.distributed import run_workers
from choreo.local import LocalProgram
from choreo.local_reader import parse_local_unit
from choreo.runtime import (
    CHANNEL_CAPACITY, UNIT, AssertionFailure, ChannelRegistry, ChoreoRuntimeError,
    DeadlockTimeout, EnumV, ExecutionContext, ListV, OptionalV,
    assert_builtin, is_unit, new_local_channel,
)


def make_pair(deadline=5.0):
    ctx = ExecutionContext(deadline)
    reg = ChannelRegistry(ctx)
    return reg, reg.claim("k", "A"), reg.claim("k", "B"), ctx


def run_units(registry, entries, *texts):
    """Runs hand-written local units through ``run_workers``; ``entries``
    maps each role to (unit, entry method, constructor args, method args)."""
    console = Console()
    program = LocalProgram([parse_local_unit(t) for t in texts])
    return run_workers(program, registry, console, entries), console


def static_unit(name, body, params="", extra=""):
    return f"public class {name} {{ public static void go({params}) {{ {body} }} {extra} }}"


RECEIVE_K = ('SymChannel<Object> ch = TestUtils.newLocalChannel("k"); '
             'ch.<Object>com(Unit.id);')
# Longer than any deadline below: 2^22 calls, at most 22 deep.
WORK = "static void work(Integer n) { if (n > 0) { work(n - 1); work(n - 1); } }"


def test_two_roles_obtain_connected_endpoints():
    reg, a, b, _ = make_pair()
    a.send_data(5)
    assert b.receive_data() == 5


def test_same_role_claiming_twice_gets_same_endpoint():
    reg = ChannelRegistry(ExecutionContext(None))
    e1 = new_local_channel(reg, "key", "Device")
    e2 = new_local_channel(reg, "key", "Device")
    assert e1 is e2


def test_three_roles_on_one_key_is_an_error():
    reg, a, b, _ = make_pair()
    with pytest.raises(ChoreoRuntimeError):
        reg.claim("k", "C")


def test_registry_linearisability_under_concurrent_claims():
    # Both roles claim the key in their own bodies, in turns on one thread.
    reg = ChannelRegistry(ExecutionContext(5.0))
    claim = 'SymChannel<Object> ch = TestUtils.newLocalChannel("shared"); '
    outcomes, console = run_units(
        reg, {"A": ("Claim_A", "go", [], []), "B": ("Claim_B", "go", [], [])},
        static_unit("Claim_A", claim + "ch.<Integer>com(7);"),
        static_unit("Claim_B", claim + "System.out.println(ch.<Integer>com(Unit.id));"))
    assert {o.status for o in outcomes.values()} == {"ok"}
    assert console.transcripts() == {"B": ["7"]}
    a, b = reg.claim("shared", "A"), reg.claim("shared", "B")
    assert a.pair is b.pair
    assert a.side != b.side


def test_per_direction_fifo_order():
    reg, a, b, _ = make_pair()
    sent = list(range(10))
    for v in sent:
        a.send_data(v)
    assert [b.receive_data() for _ in sent] == sent


def test_value_fidelity_for_prelude_values():
    reg, a, b, _ = make_pair()
    payload = ListV([1, "two", OptionalV(True, 3), EnumV("Choice", "GO")])
    a.send_data(payload)
    got = b.receive_data()
    assert got is payload  # in-memory channels move values without marshalling


def test_string_round_trip():
    reg, a, b, _ = make_pair()
    a.send_data("Hello")
    assert b.receive_data() == "Hello"


def test_com_direction_from_payload():
    # A payload argument sends; the injected unit receives.
    reg, a, b, _ = make_pair()
    assert is_unit(a.com("msg"))
    assert b.com() == "msg"
    b.com("reply")
    assert a.com(UNIT) == "reply"


def test_select_round_trips_equal_label():
    reg, a, b, _ = make_pair()
    a.select(EnumV("Choice", "GO"))
    got = b.select(UNIT)
    assert got == EnumV("Choice", "GO")


def test_select_rejects_non_enum_payload():
    reg, a, b, _ = make_pair()
    with pytest.raises(ChoreoRuntimeError):
        a.send_label("GO")


def test_label_vs_data_protocol_violation():
    reg, a, b, _ = make_pair()
    a.send_data(1)
    with pytest.raises(ChoreoRuntimeError):
        b.receive_label()


def test_receive_hits_deadline():
    # B waits on a channel while A computes past the deadline: the deadline,
    # checked at every statement, stops A, and A's failure cancels B.
    ctx = ExecutionContext(0.3)
    started = time.monotonic()
    outcomes, _ = run_units(
        ChannelRegistry(ctx), {"B": ("Wait_B", "go", [], []), "A": ("Work_A", "go", [], [])},
        static_unit("Wait_B", RECEIVE_K), static_unit("Work_A", "work(22);", extra=WORK))
    assert 0.3 <= time.monotonic() - started < 2.0
    assert ctx.failure == ("A", "deadlock-timeout", "deadline exceeded")
    assert list(outcomes) == ["A", "B"]
    assert (outcomes["B"].status, outcomes["B"].error) == ("error", "cancelled: A failed")


def test_closed_peer_error():
    reg, a, b, ctx = make_pair(deadline=5.0)
    ctx.start(["A", "B"])
    ctx.finish("A")
    started = time.monotonic()
    with pytest.raises(DeadlockTimeout) as exc:
        b.receive_data()
    assert time.monotonic() - started < 1.0
    assert str(exc.value) == "deadlock: B receives on 'k'"


def test_receive_drains_a_finished_peer_first():
    reg, a, b, ctx = make_pair(deadline=5.0)
    ctx.start(["A", "B"])
    a.send_data(1)
    ctx.finish("A")
    assert b.receive_data() == 1
    with pytest.raises(DeadlockTimeout):
        b.receive_data()


def test_first_failure_cancels_a_blocked_peer():
    ctx = ExecutionContext(5.0)
    started = time.monotonic()
    outcomes, _ = run_units(
        ChannelRegistry(ctx), {"B": ("Wait_B", "go", [], []), "A": ("Fail_A", "go", [], [])},
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
        ChannelRegistry(ctx), {"A": ("Wait_A", "go", [], []), "B": ("Wait_B", "go", [], [])},
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
    reg = ChannelRegistry(ctx)
    links = [(reg.claim(f"l{i}", a), reg.claim(f"l{i}", b))
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
    outcomes, console = run_units(reg, entries, first, *middle, last)
    assert {o.status for o in outcomes.values()} == {"ok"}
    assert ctx.failure is None
    assert console.transcripts() == {"R5": [str(n) for n in range(count)]}


def test_send_blocks_when_buffer_full():
    # A direction holds CHANNEL_CAPACITY messages. A send past that waits
    # for the receiver, and when the receiver has finished it never can.
    reg, a, b, _ = make_pair(deadline=5.0)
    for i in range(CHANNEL_CAPACITY):
        a.send_data(i)
    with pytest.raises(DeadlockTimeout):
        a.send_data("overflow")

    ctx = ExecutionContext(5.0)
    reg = ChannelRegistry(ctx)
    sends = "".join(f"ch.<Integer>com({i});" for i in range(CHANNEL_CAPACITY + 1))
    claim = 'SymChannel<Object> ch = TestUtils.newLocalChannel("k"); '
    started = time.monotonic()
    outcomes, _ = run_units(
        reg, {"A": ("Send_A", "go", [], []), "B": ("Idle_B", "go", [], [])},
        static_unit("Send_A", claim + sends), static_unit("Idle_B", claim))
    assert time.monotonic() - started < 1.0
    assert outcomes["B"].status == "ok"
    assert (outcomes["A"].status, outcomes["A"].error) == (
        "deadlock-timeout", "deadlock: A sends on 'k'")
    assert len(reg.claim("k", "A").pair.queues[0]) == CHANNEL_CAPACITY


def test_assert_builtin():
    assert assert_builtin(True, "x") is UNIT
    with pytest.raises(AssertionFailure) as exc:
        assert_builtin(False, "bad pseudonymisation")
    assert "bad pseudonymisation" in str(exc.value)
    with pytest.raises(ChoreoRuntimeError):
        assert_builtin("yes", "msg")
