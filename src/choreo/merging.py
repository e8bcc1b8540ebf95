"""Merging of projected branches and the unit-normalising rewrite.

Merging is the partial operator that reconciles the per-role projections of
alternative branches: equal atoms merge to themselves, composite statements
merge componentwise on matching shapes, and switches merge by uniting their
cases (shared labels merge bodies, unshared labels pass through). The
normaliser removes effect-free unit residue first, so that dropped code on
one side merges with a blank on the other.

Both are written once for every local class. ``REWRITE`` holds, for each,
a function compiled from its field annotations (``record.fields``) that
rebuilds a node with a function applied to each of its parts: the
expressions and statements in fields annotated ``LExp`` or ``LStm``, alone
or in lists and tuples. Every other value (a name, an operator, a type
expression, a literal's value) is an atom, and a field left out of
comparison (a slot) is carried over as it is. The normaliser rebuilds a node
from its normalised parts; its only own rules collapse ``Unit.id(...)`` and
drop a no-op expression statement. Two nodes merge when they are of one
class with equal atoms and list lengths, into the node of their pairwise
merged parts; only a switch has its own rule, the case union. Both follow a
block's ``cont`` chain in a loop, so they take Python stack per level of
nesting, not per statement.
"""

from __future__ import annotations

from .local import (
    LExp, LExpStm, LFieldAcc, LLit, LName, LNil, LStaticName, LStm, LSwitch,
    LUnit, LUnitCall, link,
)
from .record import fields


class MergeError(Exception):
    """Branches are not reconcilable at this role."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        super().__init__("irreconcilable branch fragments")


# --------------------------------------------------------------- rewrites

def _code(text, value):
    """Source that rebuilds ``value``, annotated ``text``, applying ``f`` to
    each part in it; ``value`` itself when it can hold no part. A tuple's
    item annotations are split at commas, so they are not generic."""
    if text in ("LExp", "LStm"):
        return f"f({value})"
    if text.startswith("list["):
        item = _code(text[5:-1], "v")
        return value if item == "v" else f"[{item} for v in {value}]"
    if text.startswith("tuple["):
        items = [_code(t, f"{value}[{i}]") for i, t in enumerate(text[6:-1].split(", "))]
        return "(" + ", ".join(items) + ",)"
    return value


def _compile(cls):
    """``rewrite(node, f, make=cls)``: ``make`` applied to the fields of a
    node of ``cls``, with ``f`` applied to each part in them and ``cont``
    None, and those left out of comparison passed by keyword; None for a
    class whose nodes have neither parts nor ``cont``."""
    args = ["None" if name == "cont" else _code(f.type, f"node.{name}") if f.compare
            else f"{name}=node.{name}" for name, f in fields(cls).items()]
    if args == [f"node.{name}" for name in fields(cls)]:
        return None
    ns = {"cls": cls}
    exec(f"def rewrite(node, f, make=cls):\n return make({', '.join(args)})", ns)
    return ns["rewrite"]


# Each local expression and statement class -> its ``rewrite``.
REWRITE = {cls: _compile(cls) for cls in LExp.__subclasses__() + LStm.__subclasses__()}
REWRITE[type(None)] = None


# ------------------------------------------------------------- normaliser

def is_noop(exp):
    """Discardable as a statement: Unit.id, identifier paths, this, null."""
    if isinstance(exp, LUnit):
        return True
    if isinstance(exp, LName):
        return True
    if isinstance(exp, LStaticName):
        return True
    if isinstance(exp, LLit) and exp.value is None:
        return True
    if isinstance(exp, LFieldAcc):
        return is_noop(exp.scope)
    return False


def normalize_stm(stm):
    """The unit-normalised copy of a statement chain or an expression."""
    if isinstance(stm, LExp):
        return normalize_exp(stm)
    out = []
    while stm is not None:
        rewrite = REWRITE[type(stm)]
        new = stm if rewrite is None else rewrite(stm, normalize_stm)
        if type(new) is not LExpStm or not is_noop(new.exp):
            out.append(new)
        stm = getattr(stm, "cont", None)
    return link(out)


def normalize_exp(exp):
    """The unit-normalised copy of an expression."""
    rewrite = REWRITE[type(exp)]
    if rewrite is None:
        return exp
    new = rewrite(exp, normalize_exp)
    if type(new) is LUnitCall:
        # Unit.id(E) collapses to E outright; the carried value is the
        # payload, which is exactly what nested com chains rely on.
        args = new.args if len(new.args) == 1 else [a for a in new.args if not is_noop(a)]
        new = args[0] if len(args) == 1 else LUnitCall(args) if args else LUnit()
    return new


# ---------------------------------------------------------------- merging

def _shape(*values, **carried):
    """A node's compared fields as a tuple; made by ``rewrite`` with
    ``list.append`` as ``f``, its shape: a None for each part."""
    return values


def merge_stm(a, b):
    """The partial merge of two unit-normalised statement chains (or
    expressions), statement by statement."""
    out = []
    while a is not None or b is not None:
        rewrite = REWRITE[type(a)]
        if type(a) is not type(b) or rewrite is None and a != b:
            raise MergeError(a, b)
        if type(a) is LSwitch:
            out.append(_merge_switch(a, b))
        elif rewrite is None:
            out.append(a)
        else:
            # Atoms and list lengths first, then the parts, in field order.
            parts, theirs = [], []
            if rewrite(a, parts.append, _shape) != rewrite(b, theirs.append, _shape):
                raise MergeError(a, b)
            merged = iter([merge_stm(x, y) for x, y in zip(parts, theirs)])
            out.append(rewrite(a, lambda part: next(merged)))
        a, b = getattr(a, "cont", None), getattr(b, "cont", None)
    return link(out)


def _merge_switch(a, b):
    guard = merge_stm(a.guard, b.guard)
    blabels = {label: body for label, body in b.cases}
    alabels = {label for label, _ in a.cases}
    cases = []
    for label, body in a.cases:
        if label in blabels:
            cases.append((label, merge_stm(body, blabels[label])))
        else:
            cases.append((label, body))
    for label, body in b.cases:
        if label not in alabels:
            cases.append((label, body))
    if a.default is not None and b.default is not None:
        default = merge_stm(a.default, b.default)
    else:
        default = a.default if a.default is not None else b.default
    return LSwitch(guard, cases, default, None)


def big_merge(stms):
    """Normalise each statement and fold the merge across the list."""
    stms = [normalize_stm(s) for s in stms]
    if not stms:
        return LNil()
    acc = stms[0]
    for s in stms[1:]:
        acc = merge_stm(acc, s)
    return acc
