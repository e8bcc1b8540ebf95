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
    UNIT, ChoreoRuntimeError, EnumV, ExceptionV, IteratorV,
    ListV, OptionalV, assert_builtin, is_unit,
)


class Console:
    """Per-role transcripts."""

    def __init__(self):
        self._lines = {}

    def write(self, role, line):
        self._lines.setdefault(role, []).append(line)

    def transcripts(self):
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


def _slice(seq, args, what):
    begin, end = args
    if not (0 <= begin <= end <= len(seq)):
        raise ChoreoRuntimeError(f"{what}({begin}, {end}) out of range")
    return seq[begin:end]


def _list_get(lst, idx):
    if not 0 <= idx < len(lst.items):
        raise ChoreoRuntimeError(f"list index {idx} out of range")
    return lst.items[idx]


def _list_add(lst, items):
    lst.items.extend(items)
    return True


def _next(it):
    if it.index >= len(it.items):
        raise ChoreoRuntimeError("iterator exhausted")
    it.index += 1
    return it.items[it.index - 1]


def _optional_get(opt):
    if not opt.present:
        raise ChoreoRuntimeError("Optional.get on an empty optional")
    return opt.value


def _if_present(builtins, opt, consumer):
    if opt.present:
        builtins.invoke(consumer, "accept", [opt.value])
    return UNIT


def _println(builtins, stream, value):
    builtins.console.write(stream.role, display(value))
    return UNIT


# (exact receiver type, method name) -> fn(builtins, receiver, args).
_METHODS = {
    (str, "length"): lambda b, s, a: len(s),
    (str, "isEmpty"): lambda b, s, a: len(s) == 0,
    (str, "startsWith"): lambda b, s, a: s.startswith(a[0]),
    (str, "concat"): lambda b, s, a: s + a[0],
    (str, "substring"): lambda b, s, a: _slice(s, a, "substring"),
    (str, "reverse"): lambda b, s, a: s[::-1],
    (str, "toString"): lambda b, s, a: s,
    (bool, "toString"): lambda b, v, a: display(v),
    (int, "intValue"): lambda b, v, a: v,
    (int, "toString"): lambda b, v, a: str(v),
    (float, "intValue"): lambda b, v, a: int(v),
    (float, "toString"): lambda b, v, a: repr(v),
    (ListV, "size"): lambda b, lst, a: len(lst.items),
    (ListV, "isEmpty"): lambda b, lst, a: len(lst.items) == 0,
    (ListV, "get"): lambda b, lst, a: _list_get(lst, a[0]),
    (ListV, "subList"): lambda b, lst, a: ListV(list(_slice(lst.items, a, "subList"))),
    (ListV, "add"): lambda b, lst, a: _list_add(lst, [a[0]]),
    (ListV, "addAll"): lambda b, lst, a: _list_add(lst, a[0].items),
    (ListV, "iterator"): lambda b, lst, a: IteratorV(list(lst.items)),
    (IteratorV, "hasNext"): lambda b, it, a: it.index < len(it.items),
    (IteratorV, "next"): lambda b, it, a: _next(it),
    (OptionalV, "isPresent"): lambda b, opt, a: opt.present,
    (OptionalV, "get"): lambda b, opt, a: _optional_get(opt),
    (OptionalV, "ifPresent"): lambda b, opt, a: _if_present(b, opt, a[0]),
    (EnumV, "toString"): lambda b, e, a: e.case,
    (PrintStreamV, "println"): lambda b, stream, a: _println(b, stream, a[0]),
    (ExceptionV, "getMessage"): lambda b, e, a: e.message,
}
_METHODS.update(((t, "equals"), lambda b, v, a: value_equals(v, a[0]))
                for t in (str, bool, int, float, EnumV))


def method_table(extra=()):
    """Method name -> exact receiver type -> fn(evaluator, receiver, args):
    the builtin methods and the ``((type, name), fn)`` pairs ``extra``. Each
    evaluator class builds its own at import; it never changes."""
    table = {}
    for (cls, name), fn in [*_METHODS.items(), *extra]:
        table.setdefault(name, {})[cls] = fn
    return table


NO_METHODS = {}  # the table entry of a name no builtin has; never changed


def _new_local_channel(builtins, args):
    keys = [a for a in args if isinstance(a, str)]
    if not keys:
        raise ChoreoRuntimeError("newLocalChannel needs a key string")
    return builtins.claim_channel(keys[0])


# (class name, static method name) -> fn(builtins, args); a projected
# TestUtils_<role> is looked up as TestUtils.
_STATICS = {
    ("Optional", "of"): lambda b, a: OptionalV(True, a[0]),
    ("Optional", "empty"): lambda b, a: OptionalV(False),
    ("Double", "valueOf"): lambda b, a: float(a[0]),
    ("Math", "floor"): lambda b, a: float(math.floor(a[0])),
    ("Math", "min"): lambda b, a: min(a[0], a[1]),
    ("Math", "pow"): lambda b, a: a[0] ** a[1],
    ("Assert", "assertTrue"): lambda b, a: assert_builtin(a[1], a[0]),
    ("TestUtils", "newLocalChannel"): _new_local_channel,
}


class Builtins:
    """The prelude's methods and statics for one evaluator, which supplies
    ``invoke(receiver, method, args)`` for functional objects and
    ``claim_channel(key)`` for ``newLocalChannel``, or overrides them."""

    invoke = claim_channel = None
    METHODS = method_table()

    def __init__(self, console, invoke=None, claim_channel=None):
        self.console = console
        if invoke is not None:
            self.invoke = invoke
        if claim_channel is not None:
            self.claim_channel = claim_channel

    # ---------------------------------------------------------- instances

    def try_call_method(self, receiver, name, args):
        """The class's ``METHODS`` entry for ``name`` on the type of
        ``receiver``; returns (True, value) on a hit."""
        fn = self.METHODS.get(name, NO_METHODS).get(type(receiver))
        if fn is not None:
            return True, fn(self, receiver, args)
        return False, None

    # ------------------------------------------------------------ statics

    def try_static_call(self, class_name, name, args):
        """A builtin static call; returns (True, value) on a hit."""
        base = class_name.split("_")[0] if class_name.startswith("TestUtils") else class_name
        fn = _STATICS.get((base, name))
        if fn is None:
            return False, None
        return True, fn(self, args)

    def construct(self, class_name, args):
        """Builtin constructors; returns (True, value) on a hit."""
        if class_name == "ArrayList":
            return True, ListV([])
        if class_name in ("Exception", "RuntimeException"):
            return True, ExceptionV(class_name, args[0] if args else "")
        return False, None
