"""Frozen value classes: the one class decorator plasti builds its records with.

plasti answers one question per process, so every answer first pays for
``import plasti``. With ``dataclasses.dataclass(frozen=True)`` on its 56
record classes, building those classes took 55-62 ms of a 69-77 ms
import, about 80% (Python 3.11.7, timed by wrapping
``dataclasses._process_class``): ``dataclasses`` writes each generated
method as source text and runs it through ``exec``, about six times a
class. Importing ``dataclasses``, which loads ``inspect``, took another
10 ms. A ``finite`` job takes about 0.5 ms and a ``windows`` job under
2 ms, so the import cost more than most of the jobs it served.
``frozen`` builds the same methods from closures over the field names,
with no ``exec``; on the same host the median fresh ``import plasti``
fell from 53-78 ms to 9-14 ms (two sessions). Do not bring
``dataclasses`` back into ``src``. ``tests/test_frozen.py`` checks that
it stays out.

A field is an annotation in the class body, in order; a class attribute
with no annotation is not a field. A field's default is the value
assigned to it there. Fields whose names start with ``_`` are init
arguments that take no part in ``==``, ``hash`` or ``repr``, as
``field(compare=False, repr=False)`` did.
"""

from __future__ import annotations

from operator import attrgetter

MAX_FIELDS = 7


def _init(names: tuple, defaults: tuple, post_init):
    """An ``__init__`` that stores its arguments as the fields ``names``,
    the last of them defaulting to ``defaults``, then calls ``post_init``
    unless it is None.

    One template per field count, written out, with its parameters renamed
    to the field names: the interpreter then binds positional and keyword
    arguments and defaults as for any method, and raises the usual
    TypeError on a bad call. A loop over the fields cost about 0.3 us more
    per call, and a pass of the ``windows`` workload builds some 30,000
    instances, most of them ``maps.Sample``. The fields are stored with
    ``object.__setattr__``, not through ``self.__dict__``, which would give
    each instance a dict of its own in place of the shared-key attribute
    storage, and make every field read slower."""
    put = object.__setattr__
    n0, n1, n2, n3, n4, n5, n6 = names + (None,) * (MAX_FIELDS - len(names))

    def init1(self, v0):
        put(self, n0, v0)
        if post_init is not None:
            post_init(self)

    def init2(self, v0, v1):
        put(self, n0, v0)
        put(self, n1, v1)
        if post_init is not None:
            post_init(self)

    def init3(self, v0, v1, v2):
        put(self, n0, v0)
        put(self, n1, v1)
        put(self, n2, v2)
        if post_init is not None:
            post_init(self)

    def init4(self, v0, v1, v2, v3):
        put(self, n0, v0)
        put(self, n1, v1)
        put(self, n2, v2)
        put(self, n3, v3)
        if post_init is not None:
            post_init(self)

    def init5(self, v0, v1, v2, v3, v4):
        put(self, n0, v0)
        put(self, n1, v1)
        put(self, n2, v2)
        put(self, n3, v3)
        put(self, n4, v4)
        if post_init is not None:
            post_init(self)

    def init6(self, v0, v1, v2, v3, v4, v5):
        put(self, n0, v0)
        put(self, n1, v1)
        put(self, n2, v2)
        put(self, n3, v3)
        put(self, n4, v4)
        put(self, n5, v5)
        if post_init is not None:
            post_init(self)

    def init7(self, v0, v1, v2, v3, v4, v5, v6):
        put(self, n0, v0)
        put(self, n1, v1)
        put(self, n2, v2)
        put(self, n3, v3)
        put(self, n4, v4)
        put(self, n5, v5)
        put(self, n6, v6)
        if post_init is not None:
            post_init(self)

    init = (init1, init2, init3, init4, init5, init6, init7)[len(names) - 1]
    init.__code__ = init.__code__.replace(co_name="__init__", co_varnames=("self", *names))
    init.__name__ = "__init__"
    init.__defaults__ = defaults or None
    return init


def _values(names: tuple):
    """A function from an instance to the tuple of its ``names`` values."""
    if len(names) == 1:  # attrgetter of one name returns the bare value
        one = attrgetter(names[0])
        return lambda obj: (one(obj),)
    return attrgetter(*names)


def frozen(cls):
    """Give ``cls`` the methods of ``dataclass(frozen=True)``: ``__init__``
    (positional or keyword arguments, defaults, then ``__post_init__`` if
    the class has one), ``__repr__`` (``Class(field=value, ...)``),
    ``__eq__`` (same class and equal field values, else NotImplemented),
    ``__hash__`` (of the field tuple), and ``__setattr__`` and
    ``__delattr__`` that raise AttributeError. A ``__post_init__`` that
    derives an attribute sets it with ``object.__setattr__``.
    ``functools.cached_property`` works, since it writes to the instance
    ``__dict__``."""
    names = tuple(cls.__annotations__)
    defaults = {}
    for name in names:
        if name in cls.__dict__:
            default = defaults[name] = cls.__dict__[name]
            if type(default).__hash__ is None:
                raise TypeError(f"{cls.__qualname__}.{name}: a mutable default is shared by every instance")
        elif defaults:
            raise TypeError(f"{cls.__qualname__}.{name}: a field without a default follows one with a default")
    if not 1 <= len(names) <= MAX_FIELDS:
        raise TypeError(f"{cls.__qualname__}: a value class has 1 to {MAX_FIELDS} fields, not {len(names)}")
    __init__ = _init(names, tuple(defaults.values()), getattr(cls, "__post_init__", None))

    shown = tuple(name for name in names if not name.startswith("_"))
    values = _values(shown)
    item = "{}={!r}".format

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(map(item, shown, values(self)))})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
