"""Record classes: the class decorator behind every node, type term, value
and report class of the package.

``@record`` reads a class's annotated fields, after those of its record
bases, and compiles the class's methods with one ``exec``: an ``__init__``
that takes the fields in order (a ``field(default_factory=...)`` gives each
instance a fresh object) and then calls ``__post_init__`` if the class has
one; unless ``eq=False``, an ``__eq__`` that compares the fields of two
instances of the same class, leaving the class unhashable; and with
``frozen=True``, a ``__hash__`` of the fields and a ``__setattr__`` and
``__delattr__`` that refuse to change them. A method the class defines
itself is kept. Every record without its own ``__repr__`` shares one that
lists the fields. ``fields(cls)`` gives ``surface.walk`` each field's name
and annotation text.
"""

from _thread import get_ident

MISSING = object()


class field:
    """A field's options, given as its class attribute."""

    __slots__ = ("name", "type", "default", "default_factory", "compare", "repr")

    def __init__(self, *, default=MISSING, default_factory=MISSING, compare=True, repr=True):
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.repr = repr


def fields(cls):
    """``{name: field}`` of a record class, in ``__init__`` order; None for
    any other class."""
    return getattr(cls, "__record_fields__", None)


def replace(obj, **changes):
    """A new record like ``obj``, with the fields named in ``changes``."""
    values = {name: getattr(obj, name) for name in fields(obj)}
    values.update(changes)
    return type(obj)(**values)


def record(cls=None, *, eq=True, frozen=False):
    """Class decorator, used bare or with options: makes ``cls`` a record
    class, as the module docstring describes."""
    if cls is None:
        return lambda cls: _build(cls, eq, frozen)
    return _build(cls, eq, frozen)


def _build(cls, eq, frozen):
    own = cls.__dict__
    found = {}
    for base in cls.__mro__[-1:0:-1]:
        found.update(fields(base) or ())
    slots = own.get("__slots__", ())
    for name, text in own.get("__annotations__", {}).items():
        f = MISSING if name in slots else own.get(name, MISSING)
        if type(f) is not field:
            f = field(default=f)
        f.name, f.type = name, text
        found[name] = f
        if f.default is not MISSING:
            setattr(cls, name, f.default)
        elif name in own and name not in slots:
            delattr(cls, name)
    cls.__record_fields__ = found

    ns = {"MISSING": MISSING, "cls": cls, "_set": object.__setattr__}
    params, body = ["self"], []
    for name, f in found.items():
        value = name
        if f.default_factory is not MISSING:
            ns[f"_factory_{name}"] = f.default_factory
            params.append(f"{name}=MISSING")
            value = f"_factory_{name}() if {name} is MISSING else {name}"
        elif f.default is not MISSING:
            ns[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        body.append(f"_set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    src = [f"def __init__({', '.join(params)}):", *(f" {line}" for line in body or ["pass"])]
    compared = [name for name, f in found.items() if f.compare]
    mine = "".join(f"self.{name}," for name in compared)
    if eq:
        src += ["def __eq__(self, other):",
                " if other.__class__ is self.__class__:",
                f"  return ({mine}) == ({''.join(f'other.{name},' for name in compared)})",
                " return NotImplemented"]
    if eq and frozen:
        src += ["def __hash__(self):", f" return hash(({mine}))"]
    if frozen:
        for method, verb, args in (("__setattr__", "assign to", "name, value"),
                                   ("__delattr__", "delete", "name")):
            src += [f"def {method}(self, {args}):",
                    f" if type(self) is cls or name in {tuple(found)!r}:",
                    f"  raise AttributeError(f'cannot {verb} field {{name!r}}')",
                    f" super(cls, self).{method}({args})"]
    exec("\n".join(src), ns)
    for method in ("__init__", "__eq__", "__hash__", "__setattr__", "__delattr__"):
        if method in ns and method not in own:
            ns[method].__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, ns[method])
    if eq and not frozen and "__hash__" not in own:
        cls.__hash__ = None
    if "__repr__" not in own:
        cls.__repr__ = _repr
    return cls


_repr_running = set()


def _repr(self):
    key = id(self), get_ident()
    if key in _repr_running:
        return "..."
    _repr_running.add(key)
    try:
        return self.__class__.__qualname__ + "(" + ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name, f in self.__record_fields__.items() if f.repr) + ")"
    finally:
        _repr_running.discard(key)
