"""The base of lcoai's value types: immutable records on ``__slots__``."""

from operator import eq, ge, gt, le, lt


def _compared(compare):
    def method(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return compare(self._fields(), other._fields())
    return method


class Value:
    """A record whose fields are its class's ``__slots__``, in order: equal
    and hashed by them within one class, shown as ``Name(field=value, ...)``
    less the fields in ``_hidden``, and rebuilt through ``__init__`` by copy
    and pickle. Only ``__init__`` sets a field, with ``object.__setattr__``."""

    __slots__ = ()
    _hidden = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _set_fields(self, *values) -> None:
        # twice the cost of inline stores, so only for an __init__ run about once a call
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    __eq__ = _compared(eq)

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__ if name not in self._hidden)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()


class OrderedValue(Value):
    """A value ordered as its field tuple, against values of its own class."""

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = map(_compared, (lt, le, gt, ge))
