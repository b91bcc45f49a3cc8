"""Immutable value classes without :mod:`dataclasses`.

``@record`` turns a class whose body declares annotated fields, with or
without defaults, into a value type, as ``@dataclass(frozen=True)`` did:

* ``__init__`` takes the fields in order, positionally or by keyword,
  then calls the class's ``__post_init__``, if it has one, to validate
  them;
* ``==`` compares the class and the fields, and ``hash`` hashes the
  fields;
* ``repr`` reads ``Name(field=value, ...)``;
* assigning or deleting an attribute raises ``AttributeError``.

Pickle and copy need nothing more: they rebuild the instance dict
directly, without ``__setattr__`` or ``__init__``.  A default of
``fresh(factory)`` calls ``factory()`` for each new record, so records
never share a mutable default.

``dataclasses`` imports about a dozen modules (inspect, ast, dis,
tokenize, ...) and compiles six methods per frozen class; ``record``
compiles three, written as ``dataclasses`` writes them, so they run as
fast.
"""

_METHODS = """
def __init__(self, {params}):
    {body}

def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({fields}) == ({other_fields})
    return NotImplemented

def __hash__(self):
    return hash(({fields}))
"""


class fresh:
    """A field default made anew by ``factory()`` for each record."""

    def __init__(self, factory):
        self.factory = factory


def _repr(self):
    fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
    return f"{self.__class__.__qualname__}({fields})"


def _frozen(self, name, value=None):
    raise AttributeError(f"{self.__class__.__name__} is immutable: cannot set or delete {name!r}")


def record(cls):
    """Give ``cls`` the record methods, in place; returns ``cls``."""
    names = tuple(cls.__annotations__)
    env = {"_set": object.__setattr__}
    params, body = [], []
    for name in names:
        if name in cls.__dict__:
            default = env[f"_d_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_d_{name}")
            if isinstance(default, fresh):
                env[f"_new_{name}"] = default.factory
                body.append(f"if {name} is _d_{name}: {name} = _new_{name}()")
        else:
            params.append(name)
        body.append(f"_set(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(
        _METHODS.format(
            params=", ".join(params),
            body="\n    ".join(body),
            fields="".join(f"self.{name}, " for name in names),
            other_fields="".join(f"other.{name}, " for name in names),
        ),
        env,
    )
    for method in ("__init__", "__eq__", "__hash__"):
        env[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, env[method])
    cls.__repr__ = _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
