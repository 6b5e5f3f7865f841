"""Equivariant indices of invariant polynomial 1-forms at the origin.

A diagonal action of the cyclic group of order m on affine n-space assigns
each coordinate an integer weight mod m.  For an invariant 1-form whose zero
at the origin is algebraically isolated two indices are computed here.  The
homological index is the character of the local quotient algebra twisted by
the volume form; it lives in the character ring.  The radial index is a
virtual G-set: on each fixed subspace the restricted form has a Milnor
number, and solving the resulting triangular system over the divisor lattice
recovers how many orbits of each isotropy type a generic equivariant
perturbation sends near the origin.  Reducing the radial index to its
permutation character lands in the character ring, where the two indices can
be compared.

Every quotient here is read off the leading monomials of a standard basis
(Greuel and Pfister, A Singular Introduction to Commutative Algebra, section
1.7): its dimension is the number of standard monomials and its character
counts their weights.  The engines hand over leading monomials only, and the
standard monomials stay runs of the staircase walk, counted without being
listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Mapping, Sequence

from .errors import (
    DimensionGuardFailedError,
    DimensionMismatchError,
    GloballyNonZeroDimensionalError,
    GroupMismatchError,
    NonIsolatedError,
    NonZeroDimensionalError,
    NotEquivariantMapError,
    NotInvariantError,
    SingularLinearPartError,
)
from .poly import Monomial, MonomialOrder, Polynomial, monomial_weight
from .rep_rings import (
    BurnsideElement,
    CyclicGroup,
    RepRingElement,
    Subgroup,
    divisors,
    induce,
    integer_determinant,
    reduce_to_rep,
)
from .standard_basis import GeneratorSet, _staircase


@dataclass(frozen=True)
class DiagonalAction:
    """A diagonal action of a cyclic group: variable i scales by the root to weights[i]."""

    group: CyclicGroup
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.group.order
        if len(self.weights) < 1:
            raise ValueError("an action needs at least one variable")
        object.__setattr__(self, "weights", tuple(int(k) % m for k in self.weights))

    @property
    def nvars(self) -> int:
        return len(self.weights)

    def weight_of(self, mon: Monomial) -> int:
        return monomial_weight(mon, self.weights, self.group.order)

    def volume_weight(self) -> int:
        """Weight of the top form dz_1 ^ ... ^ dz_n."""
        return sum(self.weights) % self.group.order

    def fixed_variables(self, order: int) -> tuple[int, ...]:
        """Indices of the variables fixed by the subgroup of the given order.

        That subgroup is generated by the (m/order)-th power of the group
        generator, which fixes variable i exactly when order divides its
        weight.
        """
        return tuple(i for i, k in enumerate(self.weights) if k % order == 0)

    def subgroup_action(self, order: int) -> "DiagonalAction":
        """The same coordinates seen through the subgroup of the given order."""
        sub = Subgroup(self.group, order)
        return DiagonalAction(sub.as_group(), tuple(k % order for k in self.weights))


@dataclass(frozen=True)
class OneForm:
    """A polynomial 1-form sum f_i dz_i on affine n-space."""

    components: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise ValueError("a 1-form needs at least one component")
        n = len(comps)
        for f in comps:
            if f.nvars != n:
                raise DimensionMismatchError(
                    f"{n} components but a component lives in {f.nvars} variables"
                )
        object.__setattr__(self, "components", comps)

    @property
    def nvars(self) -> int:
        return len(self.components)

    def vanishes_at_origin(self) -> bool:
        return all(f.constant_term() == 0 for f in self.components)


def exterior_derivative(f: Polynomial) -> OneForm:
    """The differential of a polynomial function, as a 1-form."""
    return OneForm(tuple(f.partial_derivative(i) for i in range(f.nvars)))


@dataclass(frozen=True)
class StratumData:
    """Per-subgroup diagnostics: the fixed variables and the restricted Milnor number."""

    fixed_variables: tuple[int, ...]
    milnor_number: int


@dataclass(frozen=True)
class IndexReport:
    """Both indices of one form, with the per-stratum data that produced them."""

    hom: RepRingElement
    radial: BurnsideElement
    reduced_radial: RepRingElement
    strata: Mapping[int, StratumData]


def _check_pairing(form: OneForm, action: DiagonalAction) -> None:
    if form.nvars != action.nvars:
        raise DimensionMismatchError(
            f"form has {form.nvars} components, action has {action.nvars} weights"
        )


def _invariance_violation(form: OneForm, action: DiagonalAction) -> str | None:
    """Describe the first monomial that breaks invariance, or None if there is none."""
    _check_pairing(form, action)
    m = action.group.order
    for i, f in enumerate(form.components):
        target = (-action.weights[i]) % m
        for mon in f.terms:
            if action.weight_of(mon) != target:
                return (
                    f"component {i + 1} has a monomial of weight "
                    f"{action.weight_of(mon)}, expected {target} (mod {m})"
                )
    return None


def check_invariance(form: OneForm, action: DiagonalAction) -> bool:
    """Whether every monomial of every component satisfies the weight congruence.

    The coefficient of dz_i transforms with weight -weights[i], so f_i dz_i is
    invariant exactly when each monomial of f_i has weight -weights[i] mod m.
    """
    return _invariance_violation(form, action) is None


def _require_invariant(form: OneForm, action: DiagonalAction) -> None:
    violation = _invariance_violation(form, action)
    if violation is not None:
        raise NotInvariantError(violation)


# A quotient as the runs (prefix, top) of its staircase, which stand for the
# standard monomials prefix + (e,) with e < top (see
# standard_basis._standard_runs).
Runs = list[tuple[Monomial, int]]


def _dimension(runs: Runs) -> int:
    return sum(map(itemgetter(1), runs))


def _origin_quotient(form: OneForm) -> Runs:
    """The local quotient at the origin of a form with an isolated zero there.

    Callers check the form's invariance first.
    """
    gens = GeneratorSet(form.components, MonomialOrder.local_order(form.nvars))
    try:
        return _staircase(gens)
    except NonZeroDimensionalError as e:
        raise NonIsolatedError(f"the zero at the origin is not isolated: {e}") from e


def _global_quotient(form: OneForm) -> Runs:
    """The global quotient of a form whose affine zero set is finite."""
    gens = GeneratorSet(form.components, MonomialOrder.global_order(form.nvars))
    try:
        return _staircase(gens)
    except NonZeroDimensionalError as e:
        raise GloballyNonZeroDimensionalError(
            f"the affine zero set is not finite: {e}"
        ) from e


def _character_of_quotient(runs: Runs, action: DiagonalAction) -> RepRingElement:
    """The twisted character of a quotient, counted run by run and residue by residue.

    Along a run the weight steps by the last variable's weight k, so it
    repeats with period m / gcd(k, m): the run's exponents e < top that
    share a residue r mod the period all have one weight, and there are
    ceil((top - r) / period) of them.
    """
    m = action.group.order
    twist = action.volume_weight()
    *weights, k = action.weights
    period = m // gcd(k, m)
    coeffs = [0] * m
    for prefix, top in runs:
        w = sum(map(mul, prefix, weights)) + twist
        for r in range(min(top, period)):
            coeffs[(w + r * k) % m] += (top - r + period - 1) // period
    return RepRingElement(action.group, tuple(coeffs))


def hom_index(form: OneForm, action: DiagonalAction) -> RepRingElement:
    """The homological index: the character of the twisted local quotient algebra.

    The group acts on the local algebra at the origin modulo the components
    of the form, twisted by the weight of the volume form; the monomials
    outside the leading ideal are simultaneous eigenvectors, so the character
    is read off their weights.  A form that does not vanish at the origin
    generates the unit ideal there, so its local quotient is zero and its
    index is the zero character.
    """
    _require_invariant(form, action)
    return _character_of_quotient(_origin_quotient(form), action)


def _stratum_table(
    form: OneForm, action: DiagonalAction, milnor_number: int
) -> dict[int, StratumData]:
    """Fixed variables and restricted Milnor number for every subgroup order.

    The subgroup of order a fixes the subspace spanned by the variables whose
    weight is divisible by a.  Invariance forces the other components to
    vanish there, so restricting the fixed components gives the restricted
    form; its local quotient dimension is the stratum's Milnor number.  The
    whole space is the stratum of the trivial subgroup, with the given Milnor
    number; an empty fixed subspace is the origin alone and counts with
    multiplicity 1.  Different subgroups may share a fixed set, so dimensions
    are cached by it.

    The caller has found the zero of the whole form isolated, so every
    restriction has an isolated zero: by invariance each monomial of a
    component outside the fixed set contains a variable outside it, so the
    restricted local algebra is the full one modulo those variables, of
    dimension at most the given Milnor number.
    """
    dimensions = {tuple(range(form.nvars)): milnor_number, (): 1}
    out: dict[int, StratumData] = {}
    for a in divisors(action.group.order):
        keep = action.fixed_variables(a)
        if keep not in dimensions:
            restricted = tuple(form.components[i].restrict_to(keep) for i in keep)
            gens = GeneratorSet(restricted, MonomialOrder.local_order(len(keep)))
            dimensions[keep] = _dimension(_staircase(gens))
        out[a] = StratumData(keep, dimensions[keep])
    return out


def _orbit_counts(strata: Mapping[int, StratumData], m: int) -> dict[int, int]:
    """Solve the triangular orbit-count system over the divisor lattice.

    A generic equivariant perturbation splits the zero at the origin into
    orbits; d[b] of them have isotropy of order b.  On the fixed subspace of
    the order a subgroup only orbits with a dividing b are visible, each
    contributing m/b points, and the signed point count there equals the
    signed restricted Milnor number.  Divisors are processed downward, so
    every right-hand side is already known.
    """
    divs = divisors(m)
    d: dict[int, int] = {}
    for a in sorted(divs, reverse=True):
        data = strata[a]
        target = (-1) ** len(data.fixed_variables) * data.milnor_number
        known = sum(d[b] * (m // b) for b in divs if b != a and b % a == 0)
        q, r = divmod(target - known, m // a)
        if r:
            raise NonIsolatedError(
                "stratum Milnor numbers are inconsistent with an isolated invariant zero"
            )
        d[a] = q
    return d


def index_report(form: OneForm, action: DiagonalAction) -> IndexReport:
    """Both indices from one local quotient at the origin and its fixed strata.

    Requires the form to be invariant with an algebraically isolated zero at
    the origin; its restriction to every fixed subspace then has one too.
    """
    _require_invariant(form, action)
    quotient = _origin_quotient(form)
    if not form.vanishes_at_origin():
        raise NonIsolatedError("the origin is not a zero of the form")
    strata = _stratum_table(form, action, _dimension(quotient))
    counts = _orbit_counts(strata, action.group.order)
    sign = (-1) ** form.nvars
    radial = BurnsideElement(action.group, {b: sign * c for b, c in counts.items()})
    return IndexReport(
        hom=_character_of_quotient(quotient, action),
        radial=radial,
        reduced_radial=reduce_to_rep(radial),
        strata=strata,
    )


def radial_index(form: OneForm, action: DiagonalAction) -> BurnsideElement:
    """The radial index as a virtual G-set, as computed by ``index_report``."""
    return index_report(form, action).radial


def reduced_radial_index(form: OneForm, action: DiagonalAction) -> RepRingElement:
    """The permutation character of the radial index."""
    return index_report(form, action).reduced_radial


def st_sum(
    form_a: OneForm,
    action_a: DiagonalAction,
    form_b: OneForm,
    action_b: DiagonalAction,
) -> tuple[OneForm, DiagonalAction]:
    """The direct sum of two forms on disjoint sets of variables.

    Both actions must belong to the same group.  The components of the first
    form keep their variables, those of the second are shifted past them, and
    the weight lists are concatenated.
    """
    if action_a.group != action_b.group:
        raise GroupMismatchError("direct sums require actions of the same group")
    n = form_a.nvars
    p = form_b.nvars
    total = n + p
    comps = [f.embed(total, range(n)) for f in form_a.components]
    comps += [g.embed(total, range(n, total)) for g in form_b.components]
    action = DiagonalAction(action_a.group, action_a.weights + action_b.weights)
    return OneForm(tuple(comps)), action


def _rational_determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Scale each row to integers, then divide the integer determinant back."""
    scaled = []
    scale = 1
    for row in rows:
        row = [Fraction(c) for c in row]
        den = lcm(*(c.denominator for c in row))
        scaled.append([int(c * den) for c in row])
        scale *= den
    return Fraction(integer_determinant(scaled), scale)


def equivariant_pullback(
    form: OneForm, substitution: Sequence[Polynomial], action: DiagonalAction
) -> OneForm:
    """Pull the form back along a polynomial map germ with invertible linear part.

    The map must fix the origin, commute with the action (the j-th component
    is a sum of monomials of weight weights[j]), and have an exactly
    invertible linear part; then the pullback is again an invariant form with
    an isolated zero of the same indices.
    """
    _check_pairing(form, action)
    n = form.nvars
    if len(substitution) != n:
        raise DimensionMismatchError(f"expected {n} substitution components")
    for phi in substitution:
        if phi.nvars != n:
            raise DimensionMismatchError("substitution components live in the wrong ring")
    m = action.group.order
    for j, phi in enumerate(substitution):
        if phi.constant_term() != 0:
            raise NotEquivariantMapError(f"component {j + 1} does not fix the origin")
        for mon in phi.terms:
            if action.weight_of(mon) != action.weights[j]:
                raise NotEquivariantMapError(
                    f"component {j + 1} mixes weights: monomial of weight "
                    f"{action.weight_of(mon)}, expected {action.weights[j]} (mod {m})"
                )
    linear = [
        [
            phi.terms.get(tuple(1 if i == t else 0 for t in range(n)), Fraction(0))
            for i in range(n)
        ]
        for phi in substitution
    ]
    if _rational_determinant(linear) == 0:
        raise SingularLinearPartError("the linear part of the substitution is singular")
    pulled = []
    composed = [f.compose(list(substitution)) for f in form.components]
    for i in range(n):
        acc = Polynomial.zero(n)
        for j in range(n):
            acc = acc + composed[j] * substitution[j].partial_derivative(i)
        pulled.append(acc)
    return OneForm(tuple(pulled))


def isotropy_subgroup(point: Sequence, action: DiagonalAction) -> Subgroup:
    """The subgroup fixing the given point.

    The element t fixes the point exactly when t * k = 0 mod m for the weight
    k of every nonzero coordinate, that is when m divides t * d for the gcd d
    of m and those weights.  The fixing elements are the multiples of m / d,
    the subgroup of order d.
    """
    if len(point) != action.nvars:
        raise DimensionMismatchError("point dimension does not match the action")
    moved = (k for k, v in zip(action.weights, point) if Fraction(v) != 0)
    return Subgroup(action.group, gcd(action.group.order, *moved))


def local_index_at_point(
    form: OneForm, point: Sequence, action: DiagonalAction
) -> RepRingElement:
    """The homological index of the form at a point, over its isotropy subgroup.

    The form is recentered at the point and the ambient space is viewed
    through the isotropy subgroup, whose action the recentered form inherits.
    The result is a virtual character of the abstract cyclic group of the
    isotropy order.
    """
    _require_invariant(form, action)
    sub = isotropy_subgroup(point, action)
    return _index_at_point(form, point, action.subgroup_action(sub.order))


def _index_at_point(form: OneForm, point: Sequence, action: DiagonalAction) -> RepRingElement:
    """The index at the point of an invariant form, over a subgroup fixing the point.

    That subgroup keeps the recentered form invariant, so it is not checked.
    """
    shifted = OneForm(tuple(f.shift(point) for f in form.components))
    return _character_of_quotient(_origin_quotient(shifted), action)


def global_index_character(form: OneForm, action: DiagonalAction) -> RepRingElement:
    """The character of the twisted global quotient algebra.

    Requires the affine zero set of the form to be finite, certified by the
    leading ideal of a Groebner basis under a degree order.  The result sums
    the induced local indices over every zero orbit in affine space.
    """
    _require_invariant(form, action)
    return _character_of_quotient(_global_quotient(form), action)


@dataclass(frozen=True)
class OrbitContribution:
    """One zero orbit in a pointwise conservation check."""

    representative: tuple[Fraction, ...]
    isotropy_order: int
    local_index: RepRingElement
    induced: RepRingElement


@dataclass(frozen=True)
class ConservationReport:
    """Outcome of a conservation-of-number check.

    ``reference`` is the homological index of the original form at the
    origin; ``total`` is the matching sum for the deformation: either the
    global quotient character, or the origin's index plus the induced local
    indices over the supplied zero orbits.  ``matched`` records equality.
    """

    mode: str
    reference: RepRingElement
    total: RepRingElement
    origin: RepRingElement | None
    orbits: tuple[OrbitContribution, ...]
    matched: bool


def conservation_check(
    form: OneForm,
    deformed: OneForm,
    action: DiagonalAction,
    points: Sequence[Sequence] | None = None,
) -> ConservationReport:
    """Check that a deformation redistributes the index without losing any of it.

    Both forms must be invariant; the deformation must have a finite affine
    zero set whose total multiplicity equals the Milnor number of the
    original form at the origin (the dimension guard, which certifies that no
    multiplicity escaped).  With ``points`` omitted the comparison is against
    the global quotient character of the deformation.  With ``points`` given
    as orbit representatives of the nonzero zeros, the comparison is against
    the index at the origin plus the sum of the induced local indices.
    """
    # Both forms are validated before any quotient is computed.
    _require_invariant(form, action)
    _require_invariant(deformed, action)
    local_runs = _origin_quotient(form)
    reference = _character_of_quotient(local_runs, action)
    global_runs = _global_quotient(deformed)
    if _dimension(global_runs) != _dimension(local_runs):
        raise DimensionGuardFailedError(
            f"global multiplicity {_dimension(global_runs)} of the deformation differs "
            f"from the local multiplicity {_dimension(local_runs)} at the origin"
        )

    origin = None
    orbits = []
    if points is None:
        total = _character_of_quotient(global_runs, action)
    else:
        origin = _character_of_quotient(_origin_quotient(deformed), action)
        for point in points:
            pt = tuple(Fraction(v) for v in point)
            sub = isotropy_subgroup(pt, action)
            local = _index_at_point(deformed, pt, action.subgroup_action(sub.order))
            orbits.append(OrbitContribution(pt, sub.order, local, induce(sub, local)))
        total = sum((orbit.induced for orbit in orbits), origin)
    return ConservationReport(
        mode="global" if points is None else "pointwise",
        reference=reference,
        total=total,
        origin=origin,
        orbits=tuple(orbits),
        matched=total == reference,
    )
