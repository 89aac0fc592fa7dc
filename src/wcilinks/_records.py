"""Frozen record classes built from closures.

`record` turns a class with two or more annotated fields into an
immutable value type with the behaviour of
`dataclasses.dataclass(frozen=True)`: an `__init__` taking the fields in
order (positionally or by name), field defaults, `__post_init__`,
equality and hashing on the tuple of fields within one class,
dataclass's `repr` text, and `FrozenInstanceError` on assignment or
deletion.  The methods are closures over the field names,
so decorating a class compiles no source text; this keeps the import of
the package cheap.  A default is shared by every instance that takes it,
so a mutable value is passed explicitly, never given as a default.
"""

from operator import attrgetter

__all__ = ["FrozenInstanceError", "record"]


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a record."""


def record(cls):
    """Add the methods of a frozen value type to cls, in place."""
    body = cls.__dict__
    names = tuple(cls.__annotations__)
    if len(names) < 2:
        # attrgetter of one name gives the bare value, not a tuple
        raise TypeError(f"record {cls.__qualname__} needs two or more fields")
    fieldset = frozenset(names)
    defaults = {name: body[name] for name in names if name in body}
    n = len(names)
    qualname = f"{cls.__qualname__}.__init__()"
    # the tuple of the fields, as dataclass compares and hashes them
    values = attrgetter(*names)

    def bind(args, kwargs):
        if len(args) > n:
            raise TypeError(
                f"{qualname} takes {n + 1} positional arguments but"
                f" {len(args) + 1} were given"
            )
        given = dict(zip(names, args))
        for key, value in kwargs.items():
            if key not in fieldset:
                raise TypeError(f"{qualname} got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{qualname} got multiple values for argument {key!r}")
            given[key] = value
        bound = {}
        for name in names:
            if name in given:
                bound[name] = given[name]
            elif name in defaults:
                bound[name] = defaults[name]
            else:
                raise TypeError(f"{qualname} missing required argument {name!r}")
        return bound

    post_init = getattr(cls, "__post_init__", None) is not None

    def __init__(self, *args, **kwargs):
        if len(args) == n and not kwargs:
            self.__dict__.update(zip(names, args))
        else:
            self.__dict__.update(bind(args, kwargs))
        if post_init:
            self.__post_init__()

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in fieldset:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in fieldset:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
