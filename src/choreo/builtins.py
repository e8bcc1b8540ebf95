"""Prelude value semantics shared by the global and distributed evaluators.

Hosts the lifted single-role types (strings, numbers, lists, iterators,
optionals, console printing, math helpers) plus the test-kit statics. Both
evaluators subclass ``Builtins`` and supply the pieces that differ:
invoking a functional object and claiming a channel for ``newLocalChannel``.
"""

from __future__ import annotations

import math
import operator

from .record import field, record
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


@record
class PrintStreamV:
    console: Console = field(repr=False)
    role: str


def display(value):
    """A value as Java prints it, in ``println`` and string concatenation."""
    if value is None:
        return "null"
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
    if isinstance(value, OptionalV):
        return f"Optional[{display(value.value)}]" if value.present else "Optional.empty"
    if isinstance(value, ExceptionV):
        # Made without a message (null), it prints as its class name alone.
        name = f"java.lang.{value.class_name}"
        return name if value.message is None else f"{name}: {value.message}"
    if isinstance(value, float):
        return double_text(value)
    return str(value)


def double_text(x):
    """``Double.toString``: plain in [1e-3, 1e7), else ``d.dddEn``, with
    the fewest digits, and at least one after the point, that give ``x``
    back."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if x == 0 or 1e-3 <= abs(x) < 1e7:
        return repr(x)  # plain there, with a digit after the point
    # As many significant digits as the shortest repr has, and at least two.
    digits = repr(x).partition("e")[0].replace("-", "").replace(".", "").strip("0")
    mantissa, _, exponent = f"{x:.{max(len(digits), 2) - 1}e}".partition("e")
    return f"{mantissa}E{int(exponent)}"


def java_div(a, b):
    """Integer division truncating toward zero."""
    if b == 0:
        raise ChoreoRuntimeError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def java_rem(a, b):
    return a - java_div(a, b) * b


def double_div(a, b):
    """``/`` on doubles: by zero it gives an infinity, or NaN for 0/0."""
    if b == 0:
        if a == 0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


def double_rem(a, b):
    """``%`` on doubles truncates, as ``fmod`` does; NaN where it has no
    value."""
    if b == 0 or math.isinf(a):
        return math.nan
    return math.fmod(a, b)


def value_equals(a, b):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        return a == b
    if type(a) is not type(b):
        return False
    if isinstance(a, (str, bool, EnumV, PrintStreamV)):
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
    "/": double_div,  # an Integer's ``/`` and ``%`` are java_div and java_rem
    "%": double_rem,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


def not_null(value, op):
    """``value``, an operand of ``op``, which Java unboxes: null raises."""
    if value is None:
        raise ChoreoRuntimeError(f"NullPointerException: null operand of '{op}'")
    return value


def binary_value(op, left, right):
    """Value of a strict binary operator, shared by both evaluators."""
    if op == "==":
        return value_equals(left, right)
    if op == "!=":
        return not value_equals(left, right)
    # Unit residue from projection: evaluate for effects, produce unit.
    if is_unit(left) or is_unit(right):
        return UNIT
    if op == "+" and (isinstance(left, str) or isinstance(right, str)):
        # The checker lets ``+`` join two Strings; either may be null.
        return display(left) + display(right)
    if left is None or right is None:
        # Java unboxes the operands of arithmetic, comparison and logic.
        raise ChoreoRuntimeError(f"NullPointerException: null operand of '{op}'")
    if op in ("&", "|"):
        return (left and right) if op == "&" else (left or right)
    if op == "/" and isinstance(left, int) and not isinstance(left, bool):
        return java_div(left, right)
    if op == "%" and isinstance(left, int) and not isinstance(left, bool):
        return java_rem(left, right)
    return _ARITH_AND_COMPARE[op](left, right)


def _floor(x):
    """``Math.floor``: NaN, an infinity or a signed zero is its own floor."""
    return float(math.floor(x)) if math.isfinite(x) and x else float(x)


def _int_value(x):
    """A double narrowed to an ``int`` (JLS 5.1.3): NaN gives 0, any other
    value is truncated toward zero and clamped to the ``int`` range."""
    if -2147483648.0 <= x <= 2147483647.0:  # false for NaN
        return int(x)
    return 0 if math.isnan(x) else 2147483647 if x > 0 else -2147483648


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
    (int, "intValue"): lambda b, v, a: v,
    (float, "intValue"): lambda b, v, a: _int_value(v),
    (ListV, "size"): lambda b, lst, a: len(lst.items),
    (ListV, "isEmpty"): lambda b, lst, a: len(lst.items) == 0,
    (ListV, "get"): lambda b, lst, a: _list_get(lst, a[0]),
    (ListV, "subList"): lambda b, lst, a: ListV(_slice(lst.items, a, "subList")),
    (ListV, "add"): lambda b, lst, a: _list_add(lst, [a[0]]),
    (ListV, "addAll"): lambda b, lst, a: _list_add(lst, a[0].items),
    (ListV, "iterator"): lambda b, lst, a: IteratorV(list(lst.items)),
    (IteratorV, "hasNext"): lambda b, it, a: it.index < len(it.items),
    (IteratorV, "next"): lambda b, it, a: _next(it),
    (OptionalV, "isPresent"): lambda b, opt, a: opt.present,
    (OptionalV, "get"): lambda b, opt, a: _optional_get(opt),
    (OptionalV, "ifPresent"): lambda b, opt, a: _if_present(b, opt, a[0]),
    (PrintStreamV, "println"): lambda b, stream, a: _println(b, stream, a[0]),
    (ExceptionV, "getMessage"): lambda b, e, a: e.message,
}
# The methods of the prelude's ``Object``; ``toString`` gives what ``println``
# prints.
_OBJECTS = (str, bool, int, float, EnumV, ListV, OptionalV, PrintStreamV, ExceptionV)
_METHODS.update(((t, "toString"), lambda b, v, a: display(v)) for t in _OBJECTS)
_METHODS.update(((t, "equals"), lambda b, v, a: value_equals(v, a[0])) for t in _OBJECTS)


def method_table(extra=()):
    """Method name -> exact receiver type -> fn(evaluator, receiver, args):
    the builtin methods and the ``((type, name), fn)`` pairs ``extra``. Each
    evaluator class builds its own at import; it never changes."""
    table = {}
    for (cls, name), fn in [*_METHODS.items(), *extra]:
        table.setdefault(name, {})[cls] = fn
    return table


NO_METHODS = {}  # the table entry of a name no builtin has; never changed


def _new_local_channel(ev, frame, args):
    keys = [a for a in args if isinstance(a, str)]
    if not keys:
        raise ChoreoRuntimeError("newLocalChannel needs a key string")
    return ev.claim_channel(keys[0])


# The builtin constructors and static methods, as the calls an evaluator
# binds them to (see ``interpreter.Evaluator.bind``): class name, or (class
# name, static method name) -> fn(evaluator, frame, args).
CONSTRUCTORS = {
    "ArrayList": lambda ev, fr, a: ListV([]),
    "Exception": lambda ev, fr, a: ExceptionV("Exception", a[0] if a else None),
    "RuntimeException": lambda ev, fr, a: ExceptionV("RuntimeException", a[0] if a else None),
}
STATICS = {
    ("Optional", "of"): lambda ev, fr, a: OptionalV(True, a[0]),
    ("Optional", "empty"): lambda ev, fr, a: OptionalV(False),
    ("Double", "valueOf"): lambda ev, fr, a: float(a[0]),
    ("Math", "floor"): lambda ev, fr, a: _floor(a[0]),
    ("Math", "min"): lambda ev, fr, a: min(a[0], a[1]),
    ("Math", "pow"): lambda ev, fr, a: a[0] ** a[1],
    ("Assert", "assertTrue"): lambda ev, fr, a: assert_builtin(a[1], a[0]),
    ("TestUtils", "newLocalChannel"): _new_local_channel,
}


def builtin_static(class_name, name):
    """The ``STATICS`` entry of ``class_name.name``, or None; a projected
    ``TestUtils_<role>`` is looked up as ``TestUtils``."""
    if class_name.startswith("TestUtils"):
        class_name = class_name.split("_")[0]
    return STATICS.get((class_name, name))


class Builtins:
    """The prelude's methods for one evaluator, a subclass that supplies
    ``invoke(receiver, method, args)`` for functional objects and
    ``claim_channel(key)`` for ``newLocalChannel``."""

    METHODS = method_table()

    def __init__(self, console):
        self.console = console
