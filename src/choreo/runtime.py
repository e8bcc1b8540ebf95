"""Runtime values, channel semantics and the shared state of one run.

Runtime values use native Python types where they fit (int, float, bool,
str); the remaining variants are small classes (unit singleton, enum labels,
lists, optionals, exceptions). A channel carries one tagged FIFO per
direction, each holding at most ``CHANNEL_CAPACITY`` messages; ``com`` on an
endpoint sends when given a payload and receives when given the unit value,
which is exactly the shape projection produces (receivers always pass the
injected ``Unit.id``). Labels sent by ``select`` are received as equal labels.

An ``ExecutionContext`` owns one lock for its run, and every channel
direction waits on a condition of that lock. A send to a full direction or a
receive from an empty one waits until it can proceed, the deadline passes,
or the run stops. The run stops at its first failure, which cancels every
other role, and as soon as every live role waits on an operation that cannot
proceed: that is a deadlock, reported with each role's pending operation.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

CHANNEL_CAPACITY = 16


class ChoreoRuntimeError(Exception):
    pass


class AssertionFailure(ChoreoRuntimeError):
    pass


class DeadlockTimeout(ChoreoRuntimeError):
    """A proven deadlock, or the deadline passed."""


class Cancelled(ChoreoRuntimeError):
    """Another role's failure stopped the run."""


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


@dataclass(frozen=True)
class EnumV:
    type_name: str
    case: str

    def __repr__(self):
        return f"{self.type_name}.{self.case}"


@dataclass
class ListV:
    items: list = field(default_factory=list)

    def __repr__(self):
        return repr(self.items)


@dataclass
class OptionalV:
    present: bool
    value: object = None

    def __repr__(self):
        return f"Optional({self.value!r})" if self.present else "Optional.empty"


@dataclass
class IteratorV:
    items: list
    index: int = 0


@dataclass
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
    if is_unit(value) or value is None:
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

class ExecutionContext:
    """The shared state of one run, guarded by ``lock``: the deadline, the
    live roles, each blocked role's pending operation and the run's first
    failure.

    Only roles passed to ``start`` are live; a run with none (a bare
    registry) is never proven deadlocked and waits for its deadline.
    """

    def __init__(self, deadline_seconds=10.0):
        self.deadline = (time.monotonic() + deadline_seconds
                         if deadline_seconds is not None else None)
        self.lock = threading.Lock()
        # (role, status, message) of the first failure; role None for a
        # proven deadlock, which no single role caused.
        self.failure = None
        self._live = set()
        self._pending = {}  # blocked role -> (operation, ready)
        self._conditions = []

    def condition(self):
        """A new condition of the run's lock; call with the lock held."""
        cond = threading.Condition(self.lock)
        self._conditions.append(cond)
        return cond

    def start(self, roles):
        with self.lock:
            self._live.update(roles)

    def finish(self, role, status="ok", message=None):
        """``role`` has stopped; any status but ok stops the whole run."""
        with self.lock:
            self._live.discard(role)
            if status != "ok":
                self._stop(role, status, message)
            else:
                self._prove_deadlock()

    def _stop(self, role, status, message):
        if self.failure is None:
            self.failure = (role, status, message)
            for cond in self._conditions:
                cond.notify_all()

    def _prove_deadlock(self):
        live = self._live
        if not live or not live <= self._pending.keys():
            return
        if any(self._pending[r][1]() for r in live):
            return  # woken, but not yet running again
        ops = "; ".join(f"{r} {self._pending[r][0]}" for r in sorted(live))
        self._stop(None, "deadlock-timeout", f"deadlock: {ops}")

    def check(self, waiting=None):
        """Raises once the run has stopped or its deadline has passed."""
        if self.failure is not None:
            role, _, message = self.failure
            if role is None:
                raise DeadlockTimeout(message)
            raise Cancelled(f"{role} failed")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlockTimeout("deadline exceeded"
                                  + (f" while {waiting}" if waiting else ""))

    def wait(self, cond, role, operation, ready):
        """Waits on ``cond``, whose lock the caller holds, until ``ready()``.

        ``operation`` says what ``role`` waits for, as a deadlock report
        names it.
        """
        self._pending[role] = (operation, ready)
        try:
            self._prove_deadlock()
            while not ready():
                self.check(f"{role} {operation}")
                cond.wait(None if self.deadline is None
                          else self.deadline - time.monotonic())
        finally:
            del self._pending[role]


class _Pair:
    """The two directions behind one registry key: a FIFO and a condition
    of the run's lock each."""

    def __init__(self, key, context):
        self.key = key
        self.queues = (deque(), deque())
        self.conditions = (context.condition(), context.condition())
        self.claimants = []  # role names, in claim order


@dataclass
class ChannelEndpoint:
    """One side of a point-to-point in-memory channel."""

    pair: _Pair
    side: int  # 0 or 1; this side sends on queues[side]
    claimant: str
    context: ExecutionContext

    def _put(self, item):
        out, cond = self.pair.queues[self.side], self.pair.conditions[self.side]
        with cond:
            if len(out) >= CHANNEL_CAPACITY:
                self.context.wait(cond, self.claimant, f"sends on '{self.pair.key}'",
                                  lambda: len(out) < CHANNEL_CAPACITY)
            out.append(item)
            if len(out) == 1:  # the receiver may be waiting
                cond.notify()

    def _get(self):
        side = 1 - self.side
        inq, cond = self.pair.queues[side], self.pair.conditions[side]
        with cond:
            if not inq:
                self.context.wait(cond, self.claimant, f"receives on '{self.pair.key}'",
                                  lambda: len(inq) > 0)
            item = inq.popleft()
            if len(inq) == CHANNEL_CAPACITY - 1:  # the sender may be waiting
                cond.notify()
            return item

    def send_data(self, value):
        self._put(("data", value))
        return UNIT

    def receive_data(self):
        kind, value = self._get()
        if kind != "data":
            raise ChoreoRuntimeError(
                f"protocol violation on '{self.pair.key}': expected data, got {kind}")
        return value

    def send_label(self, label):
        if not isinstance(label, EnumV):
            raise ChoreoRuntimeError("select requires an enumerated label")
        self._put(("label", label))
        return label

    def receive_label(self):
        kind, value = self._get()
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


class ChannelRegistry:
    """Shared key -> channel map; each role claims its own endpoint."""

    def __init__(self, context: ExecutionContext = None):
        self.context = context if context is not None else ExecutionContext(None)
        self._pairs = {}
        self._endpoints = {}

    def claim(self, key, claimant):
        if not key:
            raise ChoreoRuntimeError("channel keys must be nonempty")
        with self.context.lock:
            pair = self._pairs.get(key)
            if pair is None:
                pair = self._pairs[key] = _Pair(key, self.context)
            if (key, claimant) in self._endpoints:
                return self._endpoints[(key, claimant)]
            if len(pair.claimants) >= 2:
                raise ChoreoRuntimeError(
                    f"channel '{key}' already connects two roles "
                    f"({', '.join(pair.claimants)}); it cannot serve '{claimant}'")
            side = len(pair.claimants)
            pair.claimants.append(claimant)
            ep = ChannelEndpoint(pair, side, claimant, self.context)
            self._endpoints[(key, claimant)] = ep
            return ep

    def keys(self):
        with self.context.lock:
            return sorted(self._pairs)


def new_local_channel(registry, key, claimant):
    """First caller creates the channel; both roles obtain their endpoints."""
    return registry.claim(key, claimant)


def assert_builtin(cond, message):
    """Returns unit when cond holds, raises an assertion failure otherwise."""
    if cond is True:
        return UNIT
    if cond is False:
        raise AssertionFailure(message)
    raise ChoreoRuntimeError("assertTrue requires a boolean condition")
