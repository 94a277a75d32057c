"""What the package's immutable records share.

A record is one `typing.NamedTuple` declaration under `frozen`: its fields
and, optionally, a `_check(self)` that raises on invalid fields.  A record
holds only its fields; a verdict or size they determine is a property, so
no record can contradict itself.  A NamedTuple class body may not define
`__new__`, so `frozen` installs one that runs `_check` on the built tuple,
on every construction path: calls, `_make`, `_replace`, deep copy and
pickle at every protocol (a record reduces to its class and its fields, so
a copy is rebuilt by a call).  `frozen` also refuses tuple arithmetic (`+` and `*`
raise `TypeError`).  A NamedTuple has no instance `__dict__`, so every
field write, field delete and new attribute already raises
`AttributeError`.  `ExactMatrix` is a plain class that installs
`read_only` itself.  No record is a dataclass: importing `dataclasses`
loads `inspect`, `ast` and `dis`, which no subcommand otherwise needs.
"""

from __future__ import annotations

from functools import wraps


def read_only(self, name: str, *value) -> None:
    """`__setattr__` and `__delattr__` of an immutable object."""
    raise AttributeError(
        f"cannot set or delete {name!r}: {type(self).__name__} is immutable"
    )


def _no_arithmetic(self, other):
    raise TypeError(f"{type(self).__name__} is a record and supports no arithmetic")


def _make(cls, iterable):
    return cls(*iterable)


def _reduce(self):
    return type(self), tuple(self)


def frozen(cls: type) -> type:
    """Class decorator for a NamedTuple record, as described above."""
    cls.__add__ = cls.__radd__ = cls.__mul__ = cls.__rmul__ = _no_arithmetic
    cls._make = classmethod(_make)
    cls.__reduce__ = _reduce
    check = vars(cls).get("_check")
    if check is not None:
        build = cls.__new__

        @wraps(build)
        def __new__(cls, *fields, **named):
            record = build(cls, *fields, **named)
            check(record)
            return record

        cls.__new__ = __new__
    return cls
