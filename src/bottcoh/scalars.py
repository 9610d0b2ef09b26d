"""Exact coefficient domains: integers, rationals, integers mod n.

No floating point is used anywhere.  Integers are Python ints, rationals
are `fractions.Fraction`, and modular values are canonical residues in
``range(n)``.  Ring arithmetic accumulates with native ``+``/``*``.  Over
Z/n it reduces mod n only where a class is produced (each sum, negation and
product), so monomial normal forms stay integer combinations and integers
and rationals pay no reduction cost.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainMismatchError, ModulusError


class Domain:
    """A scalar domain. Values are plain numbers, not wrapper objects."""

    name: str = "?"
    modulus: int | None = None
    zero = 0
    one = 1

    def coerce(self, value):
        """Convert an external value (int, Fraction, decimal string) to a scalar."""
        raise NotImplementedError

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(self) is type(other) and self.modulus == other.modulus

    def __hash__(self):
        return hash((type(self).__name__, self.modulus))


class IntegerDomain(Domain):
    name = "Z"

    def coerce(self, value):
        if isinstance(value, bool):
            raise DomainMismatchError("bool is not an integer scalar")
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return int(value)
            raise DomainMismatchError(f"{value} is not an integer")
        if isinstance(value, str):
            return int(value)
        raise DomainMismatchError(f"cannot coerce {value!r} into Z")


class RationalDomain(Domain):
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, bool):
            raise DomainMismatchError("bool is not a rational scalar")
        if isinstance(value, (int, Fraction, str)):
            return Fraction(value)
        raise DomainMismatchError(f"cannot coerce {value!r} into Q")


class ModularDomain(Domain):
    """Integers mod n, n >= 2, stored as residues in range(n).

    Addition and multiplication make sense for any modulus; division
    requires the value to be a unit (always true for nonzero values when n
    is prime, the primary use being n = 2).
    """

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise ModulusError(f"modulus must be an integer >= 2, got {n!r}")
        self.modulus = n
        self.name = f"Z/{n}"

    def coerce(self, value):
        if isinstance(value, bool):
            raise DomainMismatchError("bool is not a modular scalar")
        if isinstance(value, str):
            value = int(value)
        if isinstance(value, Fraction):
            num, den = value.numerator, value.denominator
            return (num * self.invert(den % self.modulus)) % self.modulus
        if isinstance(value, int):
            return value % self.modulus
        raise DomainMismatchError(f"cannot coerce {value!r} into {self.name}")

    def invert(self, value):
        try:
            return pow(value % self.modulus, -1, self.modulus)
        except ValueError:
            raise DomainMismatchError(
                f"{value} is not a unit in {self.name}"
            ) from None


ZZ = IntegerDomain()
QQ = RationalDomain()
GF2 = ModularDomain(2)
