"""Exception hierarchy and the immutable value base shared by the whole package.

Domain errors (bad but expected inputs) all derive from AbalgError so the
CLI can map them to a single exit code.  Anything else escaping an
operation is a bug.
"""

import operator


class Frozen:
    """An immutable value compared, hashed, shown and copied by its fields, as
    a frozen dataclass is.  The fields are the __slots__ that do not start
    with "_", in order, found once per class; the other slots are derived
    by the class's own __init__ and left out of ==, hash, repr, copy and
    pickle.  Frozen.__init__ binds the fields by position or by name and
    the derived slots by name only, and raises TypeError when one is
    missing, extra or given twice.  A copy or pickle calls the constructor
    on the fields where there are derived slots, to build them again, and
    else _rebuild, which stores them as they are.  A subclass overrides
    __eq__ and __hash__ only where its equality is not by field.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._derived = tuple(name for name in cls.__slots__ if name[0] == "_")
        cls._values = operator.attrgetter(*cls._fields)
        # all fields by position need no binding; derived slots always come by name
        cls._arity = -1 if cls._derived else len(cls._fields)

    def __init__(self, *values, **named):
        names = self._fields
        if named or len(values) != self._arity:
            names, rest = names + self._derived, names[len(values):] + self._derived
            if len(values) > len(self._fields) or named.keys() != set(rest):
                raise TypeError(f"{type(self).__qualname__}() takes {names}, the fields by "
                                f"position or name, not {len(values)} and {tuple(named)}")
            values += tuple(named[name] for name in rest)
        i = 0  # a counter, not zip: this builds most values, and zip costs more per call
        for name in names:
            object.__setattr__(self, name, values[i])
            i += 1

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        fields = tuple(getattr(self, name) for name in self._fields)
        return (type(self), fields) if self._derived else (_rebuild, (type(self), fields))


def _rebuild(cls, fields: tuple) -> Frozen:
    """The cls value holding fields as they are; cls.__init__ does not run."""
    x = object.__new__(cls)
    Frozen.__init__(x, *fields)
    return x


class AbalgError(Exception):
    """Base class for all expected domain errors."""


class OrderMismatchError(AbalgError):
    """Two elements with different truncation orders were combined or compared."""


class OrderingMismatchError(AbalgError):
    """An operation required both operands in the same normal ordering."""


class ZeroConstantTermError(AbalgError):
    """Inversion was attempted on an element whose constant term vanishes."""


class NotHomogeneousError(AbalgError):
    """The operation is only defined for degree-homogeneous elements."""


class NotMonicError(AbalgError):
    """The operation requires the top a-power coefficient to be 1."""


class ZeroElementError(AbalgError):
    """The zero element was passed where a nonzero one is required."""


class WitnessNotFoundError(AbalgError):
    """No monomial witness was found below the supplied search bound."""

    def __init__(self, r_max):
        super().__init__(f"no witness with exponent <= {r_max}; enlarge r_max")
        self.r_max = r_max


class ExprError(AbalgError):
    """Expression parse failure, with byte offset and the expected token set."""

    def __init__(self, offset, expected, found):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        exp = ", ".join(self.expected)
        super().__init__(f"parse error at offset {offset}: expected {exp}, found {found}")


class SchemaError(AbalgError):
    """A JSON document did not match the declared schema."""
