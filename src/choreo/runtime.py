"""Runtime values, channel semantics and the state of one run (``ExecutionContext``).

Runtime values use native Python types where they fit (int, float, bool,
str); the remaining variants are small classes (unit singleton, enum labels,
lists, optionals, exceptions). A channel carries one tagged FIFO per
direction, each holding at most ``CHANNEL_CAPACITY`` messages; ``com`` on an
endpoint sends when given a payload and receives when given the unit value,
which is exactly the shape projection produces (receivers always pass the
injected ``Unit.id``). Labels sent by ``select`` are received as equal labels.

All roles of a run take turns on one thread (``distributed.run_workers``).
The run's ``ExecutionContext`` holds its channels, from which each role
claims its endpoints. A role waits when a send finds its direction full or
a receive finds it empty; the context records the pending operation and
stops the run at its first failure, or as soon as a deadlock is proven.
The evaluator core both evaluators share (``interpreter.Evaluator.run``)
makes each method call a generator that runs the method's body, compiled
into closures at its first call, and ``drive`` runs them on an explicit
stack of at most ``MAX_CALL_DEPTH`` calls.
"""

from __future__ import annotations

import time
from collections import deque
from types import GeneratorType

from .record import field, record

CHANNEL_CAPACITY = 16
# Calls on one stack of either evaluator: far above any real recursion, it
# stops one that never ends at a few hundred MB, before memory runs out.
MAX_CALL_DEPTH = 200_000


class ChoreoRuntimeError(Exception):
    pass


class AssertionFailure(ChoreoRuntimeError):
    pass


class DeadlockTimeout(ChoreoRuntimeError):
    """A proven deadlock, or the deadline passed."""


# ----------------------------------------------------------------- values

class UnitValue:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unit.id"


UNIT = UnitValue()


@record(frozen=True)
class EnumV:
    type_name: str
    case: str

    def __repr__(self):
        return f"{self.type_name}.{self.case}"


@record
class ListV:
    items: list = field(default_factory=list)

    def __repr__(self):
        return repr(self.items)


@record
class OptionalV:
    present: bool
    value: object = None

    def __repr__(self):
        return f"Optional({self.value!r})" if self.present else "Optional.empty"


@record
class IteratorV:
    items: list
    index: int = 0


@record
class ExceptionV:
    class_name: str
    message: str


def is_unit(v):
    return v is UNIT


def observe_value(value, observe_object):
    """A value as the differential harness compares it, in either evaluator.

    ``observe_object(value)`` is the evaluator's own case: the observation
    of one of its objects, or None when ``value`` is not one.
    """
    if value is None:
        return "null"
    if is_unit(value):
        return "unit"
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, EnumV):
        return ("enum", value.type_name, value.case)
    if isinstance(value, ListV):
        return ["list"] + [observe_value(v, observe_object) for v in value.items]
    if isinstance(value, OptionalV):
        return ("optional",
                observe_value(value.value, observe_object) if value.present else None)
    if isinstance(value, ExceptionV):
        return ("exception", value.class_name, value.message)
    if hasattr(value, "com"):
        return ("channel",)
    seen = observe_object(value)
    return seen if seen is not None else ("opaque", repr(value))


def observed_object(name, fields, observe):
    """An object's observation: its name and its (name, value) fields that
    ``observe`` does not see as unit."""
    seen = {}
    for fname, v in fields:
        obs = observe(v)
        if obs != "unit":
            seen[fname] = obs
    return ("object", name, tuple(sorted(seen.items())))


# ------------------------------------------------------------ one run

def drive(stack, value=None):
    """Runs the generators on ``stack``, each called by the one below it,
    until the top one waits on a channel or the stack is empty. A generator
    yields a generator to call it, and is sent its value, or yields an
    ``(endpoint, sending)`` pair to wait. Returns the wait, or None and the
    bottom generator's value. Both evaluators run their calls this way."""
    while stack:
        try:
            request = stack[-1].send(value)
        except StopIteration as stop:
            stack.pop()
            value = stop.value
            continue
        if type(request) is not GeneratorType:
            return request, None
        if len(stack) >= MAX_CALL_DEPTH:
            raise ChoreoRuntimeError(f"call depth exceeds {MAX_CALL_DEPTH} calls")
        stack.append(request)
        value = None
    return None, value


class ExecutionContext:
    """The state of one run: the deadline, its channels (each key's pair of
    directions and the endpoint each claimant holds), the finished roles,
    each waiting role's pending operation and the run's first failure."""

    def __init__(self, deadline_seconds=10.0):
        self.deadline = (time.monotonic() + deadline_seconds
                         if deadline_seconds is not None else None)
        # (role, status, message) of the first failure; no role for a deadlock.
        self.failure = None
        self.finished = set()
        self.pending = {}  # waiting role -> (endpoint, sending)
        self._pairs = {}
        self._endpoints = {}

    def claim(self, key, claimant):
        """``claimant``'s endpoint of the channel ``key``, made at its first
        claim; a key connects at most two roles."""
        if not key:
            raise ChoreoRuntimeError("channel keys must be nonempty")
        pair = self._pairs.get(key)
        if pair is None:
            pair = self._pairs[key] = _Pair(key)
        if (key, claimant) in self._endpoints:
            return self._endpoints[(key, claimant)]
        if len(pair.claimants) >= 2:
            raise ChoreoRuntimeError(
                f"channel '{key}' already connects two roles "
                f"({', '.join(pair.claimants)}); it cannot serve '{claimant}'")
        side = len(pair.claimants)
        pair.claimants.append(claimant)
        ep = self._endpoints[(key, claimant)] = ChannelEndpoint(pair, side, claimant)
        return ep

    def finish(self, role, status="ok", message=None):
        """``role`` has stopped; any status but ok stops the whole run."""
        self.finished.add(role)
        if status != "ok" and self.failure is None:
            self.failure = (role, status, message)
        for waiting in list(self.pending):
            self._prove_deadlock(waiting)

    def waits(self, role, endpoint, sending):
        """``role`` waits until ``endpoint`` can send (or receive)."""
        self.pending[role] = (endpoint, sending)
        self._prove_deadlock(role)

    def _prove_deadlock(self, role):
        """Stops the run if the chain of waits from ``role``, each on the
        other claimant of its channel, loops back or ends at a role that
        has finished: none of them can ever proceed."""
        chain = []
        while role not in chain:
            if role not in self.pending:
                if role not in self.finished:
                    return
                break  # a finished peer
            endpoint, sending = self.pending[role]
            if endpoint.ready(sending):
                return
            chain.append(role)
            role = endpoint.peer()
        self.deadlock(chain)

    def deadlock(self, roles):
        """Stops the run: none of ``roles`` can ever proceed."""
        ops = "; ".join(f"{r} {self.pending[r][0].operation(self.pending[r][1])}"
                        for r in sorted(roles))
        if self.failure is None:
            self.failure = (None, "deadlock-timeout", f"deadlock: {ops}")


class _Pair:
    """The two directions behind one channel key, a FIFO each."""

    def __init__(self, key):
        self.key = key
        self.queues = (deque(), deque())
        self.claimants = []  # role names, in claim order


@record
class ChannelEndpoint:
    """One side of a point-to-point in-memory channel. An operation that
    is not ``ready`` raises when called: no other role can run while this
    one waits, so it would never proceed. The interpreter waits first."""

    pair: _Pair
    side: int  # 0 or 1; this side sends on queues[side]
    claimant: str

    def __repr__(self):
        return (f"ChannelEndpoint(key={self.pair.key!r}, side={self.side}, "
                f"claimant={self.claimant!r})")

    def ready(self, sending):
        """Whether a send (or a receive) can proceed at once."""
        if sending:
            return len(self.pair.queues[self.side]) < CHANNEL_CAPACITY
        return len(self.pair.queues[1 - self.side]) > 0

    def peer(self):
        """The other role on this channel, or None while it has one."""
        claimants = self.pair.claimants
        return claimants[1 - self.side] if len(claimants) == 2 else None

    def operation(self, sending):
        return f"{'sends' if sending else 'receives'} on '{self.pair.key}'"

    def send_data(self, value):
        out = self.pair.queues[self.side]
        if len(out) >= CHANNEL_CAPACITY:
            raise DeadlockTimeout(f"deadlock: {self.claimant} {self.operation(True)}")
        out.append(("data", value))
        return UNIT

    def receive_data(self):
        inq = self.pair.queues[1 - self.side]
        if not inq:
            raise DeadlockTimeout(f"deadlock: {self.claimant} {self.operation(False)}")
        kind, value = inq.popleft()
        if kind != "data":
            raise ChoreoRuntimeError(
                f"protocol violation on '{self.pair.key}': expected data, got {kind}")
        return value

    def send_label(self, label):
        if not isinstance(label, EnumV):
            raise ChoreoRuntimeError("select requires an enumerated label")
        out = self.pair.queues[self.side]
        if len(out) >= CHANNEL_CAPACITY:
            raise DeadlockTimeout(f"deadlock: {self.claimant} {self.operation(True)}")
        out.append(("label", label))
        return label

    def receive_label(self):
        inq = self.pair.queues[1 - self.side]
        if not inq:
            raise DeadlockTimeout(f"deadlock: {self.claimant} {self.operation(False)}")
        kind, value = inq.popleft()
        if kind != "label":
            raise ChoreoRuntimeError(
                f"protocol violation on '{self.pair.key}': expected label, got {kind}")
        return value

    # The com/select surface used by the interpreters: a unit argument means
    # this side is the receiver.
    def com(self, message=UNIT):
        if is_unit(message):
            return self.receive_data()
        return self.send_data(message)

    def select(self, label=UNIT):
        if is_unit(label):
            return self.receive_label()
        return self.send_label(label)


def assert_builtin(cond, message):
    """Returns unit when cond holds, raises an assertion failure otherwise."""
    if cond is True:
        return UNIT
    if cond is False:
        raise AssertionFailure(message)
    raise ChoreoRuntimeError("assertTrue requires a boolean condition")
