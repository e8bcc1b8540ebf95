"""Channel registry and endpoint semantics."""

import sys
import threading
import time

import pytest

from choreo.runtime import (
    UNIT, AssertionFailure, Cancelled, ChannelRegistry, ChoreoRuntimeError,
    DeadlockTimeout, EnumV, ExecutionContext, ListV, OptionalV,
    assert_builtin, is_unit, new_local_channel,
)


def make_pair(deadline=5.0):
    ctx = ExecutionContext(deadline)
    reg = ChannelRegistry(ctx)
    return reg, reg.claim("k", "A"), reg.claim("k", "B"), ctx


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
    ctx = ExecutionContext(None)
    reg = ChannelRegistry(ctx)
    results = {}
    def claim(role):
        results[role] = reg.claim("shared", role)
    threads = [threading.Thread(target=claim, args=(r,)) for r in ("A", "B")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results["A"].pair is results["B"].pair
    assert results["A"].side != results["B"].side


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
    reg, a, b, _ = make_pair(deadline=0.3)
    with pytest.raises(DeadlockTimeout):
        b.receive_data()


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
    reg, a, b, ctx = make_pair(deadline=5.0)
    ctx.start(["A", "B"])
    got = {}

    def receive():
        try:
            b.receive_data()
        except ChoreoRuntimeError as e:
            got["error"] = e

    t = threading.Thread(target=receive)
    started = time.monotonic()
    t.start()
    time.sleep(0.05)
    ctx.finish("A", "error", "AssertionFailure: boom")
    t.join(2.0)
    assert not t.is_alive()
    assert time.monotonic() - started < 1.0
    assert isinstance(got["error"], Cancelled)
    assert str(got["error"]) == "A failed"
    assert ctx.failure == ("A", "error", "AssertionFailure: boom")


def test_deadlock_names_every_pending_operation():
    ctx = ExecutionContext(5.0)
    reg = ChannelRegistry(ctx)
    a, b = reg.claim("k", "A"), reg.claim("k", "B")
    ctx.start(["A", "B"])
    errors = {}

    def receive(role, ep):
        try:
            ep.receive_data()
        except DeadlockTimeout as e:
            errors[role] = str(e)

    threads = [threading.Thread(target=receive, args=r) for r in (("A", a), ("B", b))]
    started = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join(2.0)
    assert not any(t.is_alive() for t in threads)
    assert time.monotonic() - started < 1.0
    message = "deadlock: A receives on 'k'; B receives on 'k'"
    assert errors == {"A": message, "B": message}
    assert ctx.failure == (None, "deadlock-timeout", message)


def test_pipeline_under_fast_switching_keeps_order_and_proves_no_deadlock():
    # Six roles forward numbers down a chain of full channels, so that
    # every role blocks often on both sides while the others run.
    from choreo.runtime import CHANNEL_CAPACITY

    roles = [f"R{i}" for i in range(6)]
    count = 20 * CHANNEL_CAPACITY
    ctx = ExecutionContext(30.0)
    reg = ChannelRegistry(ctx)
    links = [(reg.claim(f"l{i}", a), reg.claim(f"l{i}", b))
             for i, (a, b) in enumerate(zip(roles, roles[1:]))]
    ctx.start(roles)
    received, errors = [], []

    def work(i):
        try:
            for n in range(count):
                value = n if i == 0 else links[i - 1][1].receive_data()
                if i < len(links):
                    links[i][0].send_data(value)
                else:
                    received.append(value)
            ctx.finish(roles[i])
        except ChoreoRuntimeError as e:
            errors.append(e)
            ctx.finish(roles[i], "error", str(e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(roles))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and ctx.failure is None
    assert received == list(range(count))


def test_send_blocks_when_buffer_full():
    reg, a, b, _ = make_pair(deadline=0.4)
    from choreo.runtime import CHANNEL_CAPACITY

    for i in range(CHANNEL_CAPACITY):
        a.send_data(i)
    with pytest.raises(DeadlockTimeout):
        a.send_data("overflow")


def test_assert_builtin():
    assert assert_builtin(True, "x") is UNIT
    with pytest.raises(AssertionFailure) as exc:
        assert_builtin(False, "bad pseudonymisation")
    assert "bad pseudonymisation" in str(exc.value)
    with pytest.raises(ChoreoRuntimeError):
        assert_builtin("yes", "msg")
