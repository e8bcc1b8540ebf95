"""Prelude value semantics shared by the global and distributed evaluators.

Hosts the lifted single-role types (strings, numbers, lists, iterators,
optionals, console printing, math helpers) plus the test-kit statics. Both
interpreters plug in callbacks for the pieces that differ: invoking a
functional object, claiming a channel from the registry, and console output.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .runtime import (
    UNIT, ChannelEndpoint, ChoreoRuntimeError, EnumV, ExceptionV, IteratorV,
    ListV, OptionalV, SocketChannelEndpoint, assert_builtin, is_unit,
)


class Console:
    """Per-role transcripts; safe for concurrent appends."""

    def __init__(self):
        import threading

        self._lines = {}
        self._lock = threading.Lock()

    def write(self, role, line):
        with self._lock:
            self._lines.setdefault(role, []).append(line)

    def transcript(self, role):
        with self._lock:
            return list(self._lines.get(role, []))

    def transcripts(self):
        with self._lock:
            return {r: list(ls) for r, ls in self._lines.items()}


@dataclass
class PrintStreamV:
    console: Console
    role: str


def display(value):
    if value is True:
        return "true"
    if value is False:
        return "false"
    if is_unit(value):
        return "unit"
    if isinstance(value, EnumV):
        return value.case
    if isinstance(value, ListV):
        return "[" + ", ".join(display(v) for v in value.items) + "]"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def java_div(a, b):
    """Integer division truncating toward zero."""
    if b == 0:
        raise ChoreoRuntimeError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def java_rem(a, b):
    return a - java_div(a, b) * b


def value_equals(a, b):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        return a == b
    if type(a) is not type(b):
        return False
    if isinstance(a, (str, bool, EnumV)):
        return a == b
    if isinstance(a, ListV):
        return len(a.items) == len(b.items) and all(
            value_equals(x, y) for x, y in zip(a.items, b.items))
    if isinstance(a, OptionalV):
        return a.present == b.present and (not a.present or value_equals(a.value, b.value))
    return a is b


_ARITH_AND_COMPARE = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


def binary_value(op, left, right):
    """Value of a strict binary operator, shared by both evaluators."""
    if op == "==":
        return value_equals(left, right)
    if op == "!=":
        return not value_equals(left, right)
    # Unit residue from projection: evaluate for effects, produce unit.
    if is_unit(left) or is_unit(right):
        return UNIT
    if op in ("&", "|"):
        return (left and right) if op == "&" else (left or right)
    if op == "+" and isinstance(left, str):
        return left + right
    if op == "/" and isinstance(left, int) and not isinstance(left, bool):
        return java_div(left, right)
    if op == "%" and isinstance(left, int) and not isinstance(left, bool):
        return java_rem(left, right)
    return _ARITH_AND_COMPARE[op](left, right)


@dataclass
class Builtins:
    console: Console
    # invoke(receiver, method, args) -> value; used for functional objects.
    invoke: object = None
    # claim_channel(key) -> endpoint; used by TestUtils.newLocalChannel.
    claim_channel: object = None

    # ---------------------------------------------------------- instances

    def try_call_method(self, receiver, name, args):
        """Dispatch on a builtin receiver; returns (True, value) on a hit."""
        if isinstance(receiver, str):
            return self._string_method(receiver, name, args)
        if isinstance(receiver, bool):
            if name == "equals":
                return True, value_equals(receiver, args[0])
            if name == "toString":
                return True, display(receiver)
            return False, None
        if isinstance(receiver, int):
            return self._int_method(receiver, name, args)
        if isinstance(receiver, float):
            return self._float_method(receiver, name, args)
        if isinstance(receiver, ListV):
            return self._list_method(receiver, name, args)
        if isinstance(receiver, IteratorV):
            if name == "hasNext":
                return True, receiver.index < len(receiver.items)
            if name == "next":
                if receiver.index >= len(receiver.items):
                    raise ChoreoRuntimeError("iterator exhausted")
                v = receiver.items[receiver.index]
                receiver.index += 1
                return True, v
            return False, None
        if isinstance(receiver, OptionalV):
            if name == "isPresent":
                return True, receiver.present
            if name == "get":
                if not receiver.present:
                    raise ChoreoRuntimeError("Optional.get on an empty optional")
                return True, receiver.value
            if name == "ifPresent":
                if receiver.present:
                    self.invoke(args[0], "accept", [receiver.value])
                return True, UNIT
            return False, None
        if isinstance(receiver, EnumV):
            if name == "equals":
                return True, value_equals(receiver, args[0])
            if name == "toString":
                return True, receiver.case
            return False, None
        if isinstance(receiver, PrintStreamV):
            if name == "println":
                self.console.write(receiver.role, display(args[0]))
                return True, UNIT
            return False, None
        if isinstance(receiver, (ChannelEndpoint, SocketChannelEndpoint)) or hasattr(
            receiver, "com"
        ):
            if name == "com":
                return True, receiver.com(args[0] if args else UNIT)
            if name == "select":
                return True, receiver.select(args[0] if args else UNIT)
            return False, None
        if isinstance(receiver, ExceptionV):
            if name == "getMessage":
                return True, receiver.message
            return False, None
        return False, None

    def _string_method(self, s, name, args):
        if name == "length":
            return True, len(s)
        if name == "isEmpty":
            return True, len(s) == 0
        if name == "startsWith":
            return True, s.startswith(args[0])
        if name == "concat":
            return True, s + args[0]
        if name == "substring":
            begin, end = args
            if not (0 <= begin <= end <= len(s)):
                raise ChoreoRuntimeError(f"substring({begin}, {end}) out of range")
            return True, s[begin:end]
        if name == "reverse":
            return True, s[::-1]
        if name == "equals":
            return True, value_equals(s, args[0])
        if name == "toString":
            return True, s
        return False, None

    def _int_method(self, v, name, args):
        if name == "intValue":
            return True, v
        if name == "toString":
            return True, str(v)
        if name == "equals":
            return True, value_equals(v, args[0])
        return False, None

    def _float_method(self, v, name, args):
        if name == "intValue":
            return True, int(v)
        if name == "toString":
            return True, repr(v)
        if name == "equals":
            return True, value_equals(v, args[0])
        return False, None

    def _list_method(self, lst, name, args):
        if name == "size":
            return True, len(lst.items)
        if name == "isEmpty":
            return True, len(lst.items) == 0
        if name == "get":
            idx = args[0]
            if not 0 <= idx < len(lst.items):
                raise ChoreoRuntimeError(f"list index {idx} out of range")
            return True, lst.items[idx]
        if name == "subList":
            begin, end = args
            if not (0 <= begin <= end <= len(lst.items)):
                raise ChoreoRuntimeError(f"subList({begin}, {end}) out of range")
            return True, ListV(list(lst.items[begin:end]))
        if name == "add":
            lst.items.append(args[0])
            return True, True
        if name == "addAll":
            lst.items.extend(args[0].items)
            return True, True
        if name == "iterator":
            return True, IteratorV(list(lst.items))
        return False, None

    # ------------------------------------------------------------ statics

    def try_static_call(self, class_name, name, args, claimant=None):
        base = class_name.split("_")[0] if class_name.startswith("TestUtils") else class_name
        if class_name == "Optional":
            if name == "of":
                return True, OptionalV(True, args[0])
            if name == "empty":
                return True, OptionalV(False)
            return False, None
        if class_name == "Double":
            if name == "valueOf":
                return True, float(args[0])
            return False, None
        if class_name == "Math":
            if name == "floor":
                return True, float(math.floor(args[0]))
            if name == "min":
                return True, min(args[0], args[1])
            if name == "pow":
                return True, args[0] ** args[1]
            return False, None
        if class_name == "Assert":
            if name == "assertTrue":
                message, cond = args
                return True, assert_builtin(cond, message)
            return False, None
        if base == "TestUtils":
            if name == "newLocalChannel":
                keys = [a for a in args if isinstance(a, str)]
                if not keys:
                    raise ChoreoRuntimeError("newLocalChannel needs a key string")
                return True, self.claim_channel(keys[0])
            return False, None
        return False, None

    def construct(self, class_name, args):
        """Builtin constructors; returns (True, value) on a hit."""
        if class_name == "ArrayList":
            return True, ListV([])
        if class_name in ("Exception", "RuntimeException"):
            return True, ExceptionV(class_name, args[0] if args else "")
        return False, None


def exception_matches(value, catch_class):
    if not isinstance(value, ExceptionV):
        return False
    if value.class_name == catch_class:
        return True
    return catch_class == "Exception" and value.class_name == "RuntimeException"
