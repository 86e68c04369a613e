"""The base of the library's record classes: slotted, immutable, compared by field.

A record's fields are its __slots__, or _fields when it stores more.  It
is built by position or keyword, _defaults filling the fields left out,
then __post_init__ checks them.  Records of one class are equal when
their fields are, hash by them, print as Class(field=value, ...) and
refuse assignment with AttributeError.  Frozen dataclasses gave this by
exec-generating methods at import, which cost the CLI a third of its start-up.
Records is the one record that stands for a JSON list of records.
"""

from __future__ import annotations

from itertools import starmap
from operator import attrgetter

_set = object.__setattr__
_MISSING = object()


class Value:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._values = attrgetter(*cls._fields)  # a one-field record's one value

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(list(args), kwargs)
        for field, value in zip(self._fields, args):
            _set(self, field, value)
        self.__post_init__()

    def _bind(self, values: list, kwargs: dict) -> list:
        for field in self._fields[len(values):]:
            value = kwargs.pop(field, self._defaults.get(field, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{type(self).__name__}() missing required argument {field!r}")
            values.append(value)
        if kwargs or len(values) > len(self._fields):
            raise TypeError(f"{type(self).__name__}() takes {', '.join(self._fields)}, each once")
        return values

    def __post_init__(self) -> None:
        """Check the fields; a record with a constraint overrides this."""

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values(self) == self._values(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable {type(self).__name__}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as assigning a slot is refused
        return type(self), tuple(getattr(self, field) for field in self._fields)


class Records(Value):
    """A JSON list of records, held as rows of ints or rows of int tuples.

    build(*row) is the record of one row, using each int once and in order;
    iterating yields the records and len counts them, so json.dumps(..., default=list) writes
    the list.  rows is a sequence of tuples, which their owners build or check:
    all of exact ints and of one length, or all of tuples of exact ints, whose
    lengths, the row's layout, may change from row to row.  The CLI writes the
    list from one template of build's record per layout, filled per row.
    """

    __slots__ = ("build", "rows")

    def __iter__(self):
        return starmap(self.build, self.rows)

    def __len__(self) -> int:
        return len(self.rows)
