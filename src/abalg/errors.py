"""Exception hierarchy and the immutable value base shared by the whole package.

Domain errors (bad but expected inputs) all derive from AbalgError so the
CLI can map them to a single exit code.  Anything else escaping an
operation is a bug.
"""


class Frozen:
    """An immutable value compared, hashed, shown and copied by its fields, as
    a frozen dataclass is.  The fields are the subclass's __slots__ that do
    not start with "_" (those are caches); the subclass's __init__ takes them
    in that order, checks them and passes them on to Frozen.__init__ by name.
    """

    __slots__ = ()

    def __init__(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


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
