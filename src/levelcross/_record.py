"""Immutable value classes without :mod:`dataclasses`.

``@record`` turns a class whose body declares annotated fields, with or
without defaults, into a value type, as ``@dataclass(frozen=True)`` did:

* ``__init__`` takes the fields positionally or by keyword, then calls
  ``__post_init__``, if the class has one, to validate them;
* ``==`` compares the class and the fields; ``hash`` hashes the fields;
* ``repr`` reads ``Name(field=value, ...)``;
* assigning or deleting an attribute raises ``AttributeError``.

Pickle and copy need nothing more: they rebuild the instance dict
directly, without ``__setattr__`` or ``__init__``.

The instance dict holds exactly the fields, in declaration order, and
``==``, ``hash`` and ``repr``, shared by every record, read it.
``__init__`` is one closure per class, which skips the generic binder
when every field is given positionally.  Nothing is compiled at import.
"""

_set = object.__setattr__


def _bind(cls, names, defaults, args, kwargs):
    """The field values of ``cls(*args, **kwargs)``, in declaration order."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__} takes {len(names)} arguments but {len(args)} were given")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{cls.__name__} missing argument {name!r}")
    for name in kwargs:
        problem = "got multiple values for" if name in names else "got an unexpected"
        raise TypeError(f"{cls.__name__} {problem} argument {name!r}")
    return values


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self.__dict__ == other.__dict__
    return NotImplemented


def _hash(self):
    return hash(tuple(self.__dict__.values()))


def _repr(self):
    fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
    return f"{self.__class__.__qualname__}({fields})"


def _frozen(self, name, value=None):
    raise AttributeError(f"{self.__class__.__name__} is immutable: cannot set or delete {name!r}")


def record(cls):
    """Give ``cls`` the record methods, in place; returns ``cls``."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    size = len(names)
    validate = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != size:
            args = _bind(type(self), names, defaults, args, kwargs)
        # a new dict, not self.__dict__.update: CPython 3.11 does not specialize
        # attribute reads on the key-sharing dict that self.__dict__ returns
        _set(self, "__dict__", dict(zip(names, args)))
        if validate:
            self.__post_init__()

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = __init__
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
