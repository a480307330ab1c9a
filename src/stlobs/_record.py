"""`record`: frozen value classes without the `dataclasses` module.

`@record` gives a class with annotated fields what `@dataclass(frozen=True)`
gave the AST nodes, `Trace` and the parser's tokens: an `__init__` taking
the fields by position or keyword (then `__post_init__`, if the class has
one), `__eq__` between instances of the same class only, the dataclass
`__repr__`, `__match_args__`, and `AttributeError` on assignment or
deletion. `cached_property` still works, because it writes the instance
`__dict__` directly. Two things differ: the hash of the fields is computed
once per instance and kept, and `__reduce__` rebuilds an instance from its
fields, so a copy or an unpickled node never carries a hash from another
process.

Importing `dataclasses` loads `inspect`, `ast` and `dis`, and each class it
builds compiles its methods with `exec`; a monitor started for one check
paid for both before its first verdict. The methods here are closures over
the field names, and no code is generated at run time. `__init__` sets the
1 to 3 fields one by one, and `_hash` to None, with `object.__setattr__`;
two alternatives measured slower. A loop over the names cost about 0.5 us
a node and made a cold parse of a benchmark formula slower in 21 of 30
process pairs. Writing through the instance `__dict__` gives every node a
dict of its own, attribute reads lose the interpreter's fast path, and the
self-check sweep took 3.27 -> 3.49 s. As written, against the dataclass
nodes in 30 alternating process pairs (2-CPU x86-64, CPython 3.11), a cold
parse took 0.697 -> 0.707 ms for the csv-wide formula and 0.742 -> 0.774 ms
for the jsonl-latch one, both within the dataclass runs' quartile spread,
and in 10 pairs the self-check suites took 5.17 -> 5.00 s. Setting `_hash`
in `__init__` also gives every instance of a class the same attributes
whether it has been hashed or not.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def record(cls):
    """Make `cls`, whose annotations name 1 to 3 public fields, a frozen record."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    arity = len(names)
    if not 1 <= arity <= 3 or any(name.startswith("_") for name in names):
        raise TypeError(f"{cls.__qualname__}: a record has 1 to 3 public fields, not {names}")
    first, second, third = names + (None,) * (3 - arity)
    post_init = cls.__dict__.get("__post_init__")
    if arity == 1:
        get = attrgetter(names[0])

        def fields(self):
            return (get(self),)

    else:
        fields = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = _bind(cls, names, args, kwargs)
        _set(self, first, args[0])
        if second is not None:
            _set(self, second, args[1])
            if third is not None:
                _set(self, third, args[2])
        _set(self, "_hash", None)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        cached = self._hash
        if cached is None:
            cached = hash(fields(self))
            _set(self, "_hash", cached)
        return cached

    def __repr__(self):
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, fields(self)

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__, "__repr__": __repr__,
               "__setattr__": __setattr__, "__delattr__": __delattr__, "__reduce__": __reduce__}
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__match_args__ = names
    return cls


def _bind(cls, names: tuple[str, ...], args: tuple, kwargs: dict) -> list:
    """The field values of a call with keywords or a wrong number of
    positional arguments; a `TypeError` unless each field is given once."""
    rest = names[len(args):]
    if len(args) > len(names) or kwargs.keys() != set(rest):
        raise TypeError(
            f"{cls.__qualname__}() takes the fields {', '.join(names)}, not "
            f"{len(args)} positional arguments and the keywords {', '.join(kwargs) or 'none'}"
        )
    return [*args, *(kwargs[name] for name in rest)]
