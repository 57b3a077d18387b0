"""The base of lcoai's value types: immutable records on ``__slots__``."""

from operator import attrgetter, eq, ge, gt, le, lt


def _compared(compare):
    def method(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return compare(fields(self), fields(other))
    return method


def _field_getter(slots: tuple):
    """A function of a value that returns the fields named by ``slots`` as
    one tuple: an ``attrgetter``, which returns a bare field for one name,
    so that case is wrapped."""
    if len(slots) > 1:
        return attrgetter(*slots)
    if slots:
        get = attrgetter(*slots)
        return lambda value: (get(value),)
    return lambda value: ()


class Value:
    """A record whose fields are its class's ``__slots__``, in order: equal
    and hashed by them within one class, shown as ``Name(field=value, ...)``
    less the fields in ``_hidden``, and rebuilt through ``__init__`` by copy
    and pickle. Only ``__init__`` sets a field, through the slot descriptor's
    ``__set__`` in ``_setters``; any other assignment raises."""

    __slots__ = ()
    _hidden = ()
    # both bound once per class, by __init_subclass__
    _fields = staticmethod(_field_getter(()))  # the field tuple of a value
    _setters = ()  # each slot's descriptor __set__, in slot order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = staticmethod(_field_getter(cls.__slots__))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set_fields(self, *values) -> None:
        # slower than a constructor's own unpacked stores, so only for an
        # __init__ run about once a call
        for store, value in zip(self._setters, values):
            store(self, value)

    __eq__ = _compared(eq)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__ if name not in self._hidden)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields(self)


class OrderedValue(Value):
    """A value ordered as its field tuple, against values of its own class."""

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = map(_compared, (lt, le, gt, ge))
