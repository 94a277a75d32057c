"""What the package's immutable records share.

Every record is a `typing.NamedTuple`, or a subclass of one whose `__new__`
validates, and `ExactMatrix` is a plain class; none is a dataclass, because
importing `dataclasses` loads `inspect`, `ast` and `dis`, which no
subcommand otherwise needs.  A record built on a tuple would also inherit
tuple concatenation and repetition, and a subclass that holds a
`functools.cached_property` has an instance `__dict__`.  `frozen` takes
those back: `+` and `*` raise `TypeError`, setting or deleting any
attribute raises `AttributeError` (a cached property still fills in, since
it writes the instance `__dict__` directly), and `_make`, and through it
`_replace`, runs the validating constructor.
"""

from __future__ import annotations


def read_only(self, name: str, *value) -> None:
    """`__setattr__` and `__delattr__` of an immutable object."""
    raise AttributeError(
        f"cannot set or delete {name!r}: {type(self).__name__} is immutable"
    )


def _no_arithmetic(self, other):
    raise TypeError(f"{type(self).__name__} is a record and supports no arithmetic")


def _make(cls, iterable):
    return cls(*iterable)


def frozen(cls: type) -> type:
    """Class decorator for a NamedTuple record, as described above."""
    cls.__setattr__ = cls.__delattr__ = read_only
    cls.__add__ = cls.__radd__ = cls.__mul__ = cls.__rmul__ = _no_arithmetic
    cls._make = classmethod(_make)
    return cls
