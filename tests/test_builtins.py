"""Builtin value semantics shared by both evaluators."""

from choreo.builtins import (
    CONSTRUCTORS, STATICS, Builtins, Console, PrintStreamV, binary_value, display, java_div,
    java_rem, value_equals,
)
from choreo.runtime import UNIT, ChoreoRuntimeError, EnumV, ListV, OptionalV, is_unit


def call(b, receiver, name, args):
    """Run the ``METHODS`` entry of ``b``'s class for ``name`` on ``receiver``'s
    type; a missing entry is a ``KeyError``."""
    return b.METHODS[name][type(receiver)](b, receiver, args)


def test_java_division_truncates_toward_zero():
    assert java_div(3, 2) == 1
    assert java_div(-3, 2) == -1
    assert java_div(3, -2) == -1
    assert java_div(-3, -2) == 1
    assert java_rem(-3, 2) == -1
    assert java_rem(3, -2) == 1
    try:
        java_div(1, 0)
    except ChoreoRuntimeError:
        pass
    else:
        raise AssertionError("division by zero must fail")


def test_unit_operand_binops_yield_unit():
    assert is_unit(binary_value("<=", UNIT, 3))
    assert is_unit(binary_value("+", 1, UNIT))


def test_value_equality_is_structural_for_prelude_values():
    assert value_equals(ListV([1, 2]), ListV([1, 2]))
    assert not value_equals(ListV([1]), ListV([2]))
    assert value_equals(OptionalV(True, "x"), OptionalV(True, "x"))
    assert not value_equals(OptionalV(False), OptionalV(True, "x"))
    assert value_equals(EnumV("C", "GO"), EnumV("C", "GO"))
    assert not value_equals(EnumV("C", "GO"), EnumV("C", "STOP"))
    assert value_equals(1, 1.0)  # numeric comparison crosses int/float
    assert not value_equals(True, 1)


def test_display_forms():
    assert display(True) == "true"
    assert display(False) == "false"
    assert display(UNIT) == "unit"
    assert display(EnumV("Choice", "GO")) == "GO"
    assert display(ListV([1, "a"])) == "[1, a]"


def test_an_exception_made_without_a_message_has_a_null_message():
    console = Console()
    b = Builtins(console)
    bare = CONSTRUCTORS["Exception"](b, None, [])
    empty = CONSTRUCTORS["RuntimeException"](b, None, [""])
    message = call(b, bare, "getMessage", [])
    assert message is None
    for value in (message, bare, empty):
        call(b, PrintStreamV(console, "A"), "println", [value])
    # As Java's Throwable prints them.
    assert console.transcripts() == {"A": [
        "null", "java.lang.Exception", "java.lang.RuntimeException: "]}


def test_string_methods():
    b = Builtins(Console())
    assert call(b, "hello", "reverse", []) == "olleh"
    assert call(b, "hello", "substring", [1, 3]) == "el"
    assert call(b, "in:guide", "startsWith", ["in:"]) is True
    assert call(b, "abc", "length", []) == 3


def test_optional_if_present_invokes_consumer():
    seen = []

    class Invoking(Builtins):
        def invoke(self, recv, m, args):
            seen.append((recv, m, args))

    b = Invoking(Console())
    call(b, OptionalV(True, 9), "ifPresent", ["consumer"])
    assert seen == [("consumer", "accept", [9])]
    call(b, OptionalV(False), "ifPresent", ["consumer"])
    assert len(seen) == 1


def test_iterator_protocol():
    b = Builtins(Console())
    lst = ListV([10, 20])
    it = call(b, lst, "iterator", [])
    assert call(b, it, "hasNext", []) is True
    assert call(b, it, "next", []) == 10
    assert call(b, it, "next", []) == 20
    assert call(b, it, "hasNext", []) is False


def test_math_statics():
    b = Builtins(Console())
    assert STATICS["Math", "floor"](b, None, [3]) == 3.0
    assert STATICS["Math", "min"](b, None, [4, 2]) == 2
    assert STATICS["Math", "pow"](b, None, [10, 3]) == 1000
    assert STATICS["Double", "valueOf"](b, None, [1.5]) == 1.5
