"""Exact arithmetic in the character ring and the Burnside ring of a cyclic group.

For the cyclic group G of order m the virtual characters form the ring
Z[s]/(s^m - 1), stored as integer coefficient vectors of length m over the
basis 1, s, ..., s^(m-1), where s is the defining one-dimensional character.
The virtual G-sets form the Burnside ring, stored as integer combinations of
the transitive G-sets [G/H_a], one for each divisor a of m; here H_a is the
unique subgroup of order a, so [G/H_a] has m/a points.  The one-point set
[G/H_m] is the multiplicative identity and [G/H_1] is the free orbit.
All arithmetic is integer exact.

>>> G = CyclicGroup(4)
>>> x = BurnsideElement.orbit(G, 2)
>>> (x * x).coefficients
{2: 2}
>>> reduce_to_rep(x).coefficients
(1, 0, 1, 0)
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping

from .errors import GroupMismatchError


def divisors(m: int) -> list[int]:
    """Positive divisors of m in increasing order."""
    if m < 1:
        raise ValueError("m must be positive")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    large.reverse()
    return small + large


def integer_determinant(rows: Iterable[Iterable[int]]) -> int:
    """Exact determinant of a square integer matrix.

    Fraction-free Gaussian elimination; every intermediate division is exact,
    so the computation never leaves the integers.
    """
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class CyclicGroup:
    """The cyclic group of a given positive order."""

    order: int

    def __post_init__(self) -> None:
        if not isinstance(self.order, int) or self.order < 1:
            raise ValueError("group order must be a positive integer")


@dataclass(frozen=True)
class Subgroup:
    """The subgroup of order ``order`` inside a cyclic group.

    A cyclic group of order m has exactly one subgroup of order a for every
    divisor a of m, generated by the (m/a)-th power of a generator.
    """

    group: CyclicGroup
    order: int

    def __post_init__(self) -> None:
        if not isinstance(self.order, int) or self.order < 1:
            raise ValueError("subgroup order must be a positive integer")
        if self.group.order % self.order != 0:
            raise ValueError(
                f"order {self.order} does not divide the group order {self.group.order}"
            )

    @property
    def index(self) -> int:
        return self.group.order // self.order

    def as_group(self) -> CyclicGroup:
        """The subgroup as an abstract cyclic group in its own right."""
        return CyclicGroup(self.order)


def _check_same_group(a, b) -> None:
    if a.group != b.group:
        raise GroupMismatchError(
            f"elements live over groups of order {a.group.order} and {b.group.order}"
        )


@dataclass(frozen=True)
class RepRingElement:
    """A virtual character of a cyclic group, with integer coefficients over powers of s."""

    group: CyclicGroup
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.group.order
        coeffs = tuple(int(c) for c in self.coefficients)
        if len(coeffs) != m:
            raise ValueError(f"expected {m} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def zero(cls, group: CyclicGroup) -> "RepRingElement":
        return cls(group, (0,) * group.order)

    @classmethod
    def one(cls, group: CyclicGroup) -> "RepRingElement":
        return cls.character(group, 0)

    @classmethod
    def character(cls, group: CyclicGroup, j: int) -> "RepRingElement":
        """The one-dimensional character s^j."""
        m = group.order
        coeffs = [0] * m
        coeffs[j % m] = 1
        return cls(group, tuple(coeffs))

    @classmethod
    def regular(cls, group: CyclicGroup) -> "RepRingElement":
        """The regular representation, the sum of all m characters."""
        return cls(group, (1,) * group.order)

    def __add__(self, other: "RepRingElement") -> "RepRingElement":
        _check_same_group(self, other)
        return RepRingElement(
            self.group,
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __sub__(self, other: "RepRingElement") -> "RepRingElement":
        _check_same_group(self, other)
        return RepRingElement(
            self.group,
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __neg__(self) -> "RepRingElement":
        return RepRingElement(self.group, tuple(-a for a in self.coefficients))

    def __mul__(self, other):
        if isinstance(other, int):
            return RepRingElement(self.group, tuple(other * a for a in self.coefficients))
        if isinstance(other, RepRingElement):
            _check_same_group(self, other)
            m = self.group.order
            out = [0] * m
            for i, a in enumerate(self.coefficients):
                if a == 0:
                    continue
                for j, b in enumerate(other.coefficients):
                    if b:
                        out[(i + j) % m] += a * b
            return RepRingElement(self.group, tuple(out))
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def virtual_dimension(self) -> int:
        """Value of the character at the identity, the sum of the coefficients."""
        return sum(self.coefficients)

    def multiplication_matrix(self) -> list[list[int]]:
        """Matrix of multiplication by this element on the coefficient basis.

        Column j holds the coefficients of self * s^j.
        """
        m = self.group.order
        c = self.coefficients
        return [[c[(i - j) % m] for j in range(m)] for i in range(m)]

    def is_zero_divisor(self) -> bool:
        """Whether multiplication by this element has a nontrivial kernel.

        Decided by the exact determinant of the multiplication matrix.  The
        zero element counts as a zero divisor under this convention.
        """
        return integer_determinant(self.multiplication_matrix()) == 0


@dataclass(frozen=True, eq=False)
class BurnsideElement:
    """A virtual G-set of a cyclic group.

    Coefficients are indexed by the divisors a of the group order; divisor a
    labels the transitive G-set [G/H_a] whose points have isotropy group H_a
    of order a.  Zero coefficients are dropped on construction, so equality
    is plain field equality.
    """

    group: CyclicGroup
    coefficients: Mapping[int, int]

    def __post_init__(self) -> None:
        m = self.group.order
        clean: dict[int, int] = {}
        for a in sorted(self.coefficients):
            c = int(self.coefficients[a])
            a = int(a)
            if a < 1 or m % a != 0:
                raise ValueError(f"{a} is not a divisor of the group order {m}")
            if c != 0:
                clean[a] = c
        object.__setattr__(self, "coefficients", clean)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return self.group == other.group and dict(self.coefficients) == dict(other.coefficients)

    def __hash__(self) -> int:
        return hash((self.group, frozenset(self.coefficients.items())))

    @classmethod
    def zero(cls, group: CyclicGroup) -> "BurnsideElement":
        return cls(group, {})

    @classmethod
    def orbit(cls, group: CyclicGroup, order: int) -> "BurnsideElement":
        """The class of the transitive G-set whose isotropy subgroup has the given order."""
        if group.order % order != 0:
            raise ValueError(f"{order} is not a divisor of the group order {group.order}")
        return cls(group, {order: 1})

    @classmethod
    def one(cls, group: CyclicGroup) -> "BurnsideElement":
        """The one-point G-set, the multiplicative identity."""
        return cls.orbit(group, group.order)

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        _check_same_group(self, other)
        out = dict(self.coefficients)
        for a, c in other.coefficients.items():
            out[a] = out.get(a, 0) + c
        return BurnsideElement(self.group, out)

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        return self + (-other)

    def __neg__(self) -> "BurnsideElement":
        return BurnsideElement(self.group, {a: -c for a, c in self.coefficients.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return BurnsideElement(
                self.group, {a: other * c for a, c in self.coefficients.items()}
            )
        if isinstance(other, BurnsideElement):
            _check_same_group(self, other)
            m = self.group.order
            out: dict[int, int] = {}
            for a, ca in self.coefficients.items():
                for b, cb in other.coefficients.items():
                    g = gcd(a, b)
                    # [G/H_a] x [G/H_b] has (m/a)(m/b) points, every one with
                    # isotropy H_a n H_b = H_g, hence (m/a)(m/b)/(m/g) orbits.
                    count = (m * g) // (a * b)
                    out[g] = out.get(g, 0) + ca * cb * count
            return BurnsideElement(self.group, out)
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coefficients

    def virtual_point_count(self) -> int:
        """Number of points of the virtual G-set, counted with multiplicity."""
        m = self.group.order
        return sum(c * (m // a) for a, c in self.coefficients.items())


def reduce_to_rep(x: BurnsideElement) -> RepRingElement:
    """Permutation character of a virtual G-set.

    [G/H_a] carries the permutation representation on its m/a points, whose
    character is the sum of the s^j trivial on H_a, that is with j divisible
    by a.  The map extends linearly and is a ring homomorphism.
    """
    m = x.group.order
    out = [0] * m
    for a, c in x.coefficients.items():
        for j in range(0, m, a):
            out[j] += c
    return RepRingElement(x.group, tuple(out))


def induce(sub: Subgroup, x: RepRingElement) -> RepRingElement:
    """Induction of a virtual character from a subgroup to the full group.

    ``x`` must live over the abstract cyclic group of the subgroup.  If t is
    the defining character of the subgroup of order d, induction sends t^i to
    the sum of all s^j with j congruent to i mod d, the adjoint of
    restriction.
    """
    d = sub.order
    if x.group.order != d:
        raise GroupMismatchError(
            f"character lives over a group of order {x.group.order}, expected {d}"
        )
    m = sub.group.order
    out = [x.coefficients[j % d] for j in range(m)]
    return RepRingElement(sub.group, tuple(out))


def restrict_rep(x: RepRingElement, sub: Subgroup) -> RepRingElement:
    """Restriction of a virtual character to a subgroup.

    The subgroup of order d is generated by the (m/d)-th power of the group
    generator, on which s takes the value of a primitive d-th root of unity;
    hence s^j restricts to t^(j mod d).
    """
    if x.group != sub.group:
        raise GroupMismatchError("character and subgroup live over different groups")
    d = sub.order
    out = [0] * d
    for j, c in enumerate(x.coefficients):
        out[j % d] += c
    return RepRingElement(sub.as_group(), tuple(out))
