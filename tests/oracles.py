"""Independent oracles for the test suite.

Each function recomputes a quantity by a route disjoint from the library's
own algorithms: local quotient dimensions by truncated linear algebra over
exact rationals, Burnside products by enumerating orbits of explicit G-sets,
characters by exact root-of-unity traces, global bases via sympy, full
division by plain Fraction arithmetic, Gebauer and Moeller's pair update by
its quadratic scans, and Milnor numbers by the product formula.  Oracles
favour obviousness over speed.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappush
from itertools import product
from math import prod

import sympy

from eqidx.poly import Polynomial


def monomials_of_degree_below(nvars: int, bound: int) -> list[tuple[int, ...]]:
    """Every exponent tuple of total degree strictly less than ``bound``."""
    out = [
        mon
        for mon in product(*(range(bound) for _ in range(nvars)))
        if sum(mon) < bound
    ]
    out.sort()
    return out


def box_standard_monomials(leading, nvars: int) -> list[tuple[int, ...]]:
    """Standard monomials of a zero-dimensional monomial ideal, by scanning a box.

    Every exponent tuple below the least pure power of each variable is
    tested against every generator; the survivors are sorted by degree, then
    by reverse lexicographic tie-break (degrevlex).
    """
    bounds = [
        min(lm[i] for lm in leading if all(e == 0 for j, e in enumerate(lm) if j != i))
        for i in range(nvars)
    ]
    out = [
        mon
        for mon in product(*(range(b) for b in bounds))
        if not any(all(a <= e for a, e in zip(lm, mon)) for lm in leading)
    ]
    out.sort(key=lambda mon: (sum(mon), tuple(-e for e in reversed(mon))))
    return out


def _fraction_rank(rows: list[list[Fraction]]) -> int:
    rows = [row[:] for row in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] * inv
            if factor:
                for j in range(col, ncols):
                    rows[i][j] -= factor * rows[rank][j]
        rank += 1
        if rank == len(rows):
            break
    return rank


def truncated_quotient_dimension(components, bound: int) -> int:
    """dim Q[z] / (ideal + all monomials of degree >= ``bound``), exactly.

    Working space: monomials of degree below the bound.  The image of the
    ideal there is spanned by the truncations of monomial multiples of the
    generators, and only multipliers that keep the lowest term below the
    bound can contribute.
    """
    polys = [f for f in components if f.terms]
    nvars = components[0].nvars
    cols = monomials_of_degree_below(nvars, bound)
    index = {mon: i for i, mon in enumerate(cols)}
    rows = []
    for f in polys:
        low = min(sum(mon) for mon in f.terms)
        for alpha in monomials_of_degree_below(nvars, max(bound - low, 0)):
            row = [Fraction(0)] * len(cols)
            hit = False
            for mon, c in f.terms.items():
                shifted = tuple(a + e for a, e in zip(alpha, mon))
                if sum(shifted) < bound:
                    row[index[shifted]] += c
                    hit = True
            if hit:
                rows.append(row)
    return len(cols) - _fraction_rank(rows)


def local_quotient_dimension(components, limit: int = 16) -> int:
    """Dimension of the local quotient at the origin by brute-force truncation.

    The truncated dimensions are non-decreasing in the bound and a plateau
    proves convergence: equality at consecutive bounds means the maximal
    ideal's power is already inside the ideal.
    """
    previous = None
    for bound in range(2, limit + 1):
        current = truncated_quotient_dimension(components, bound)
        if previous == current:
            return current
        previous = current
    raise RuntimeError(f"no stabilization below bound {limit}")


def orbit_isotropy_counts(m: int, a: int, b: int) -> dict[int, int]:
    """Decompose the product of two transitive G-sets of a cyclic group.

    The G-set with isotropy order a is realized as residues modulo m/a with
    the generator acting by +1.  Orbits of the product are enumerated
    directly; an orbit of size s has isotropy of order m/s.  Returns a map
    from isotropy order to the number of orbits with it.
    """
    size_a, size_b = m // a, m // b
    seen: set[tuple[int, int]] = set()
    counts: dict[int, int] = {}
    for point in product(range(size_a), range(size_b)):
        if point in seen:
            continue
        orbit = set()
        cur = point
        while cur not in orbit:
            orbit.add(cur)
            cur = ((cur[0] + 1) % size_a, (cur[1] + 1) % size_b)
        seen |= orbit
        iso = m // len(orbit)
        counts[iso] = counts.get(iso, 0) + 1
    return counts


def character_matches_eigenvalues(coeffs, monomials, weights, twist) -> bool:
    """Check a claimed character against exact root-of-unity traces.

    The group generator acts on a standard monomial basis diagonally; its
    t-th power has trace sum of zeta^(t * (twist + <weights, mon>)).  The
    claimed coefficient vector must reproduce every trace in the cyclotomic
    field, checked with sympy's exact arithmetic.
    """
    m = len(coeffs)
    zeta = sympy.exp(2 * sympy.pi * sympy.I * sympy.Rational(1, m))
    for t in range(m):
        acting = sympy.Integer(0)
        for mon in monomials:
            e = (t * (twist + sum(k * x for k, x in zip(weights, mon)))) % m
            acting += zeta**e
        claimed = sympy.Integer(0)
        for j, c in enumerate(coeffs):
            claimed += c * zeta ** ((t * j) % m)
        if sympy.simplify(acting - claimed) != 0:
            return False
    return True


def character_inner_product(coeffs_x, coeffs_y) -> int:
    """Exact inner product of two virtual characters of a cyclic group.

    (1/m) sum over group elements of chi times the conjugate of psi, computed
    in the cyclotomic field; the result of pairing virtual characters is
    always an integer.
    """
    m = len(coeffs_x)
    zeta = sympy.exp(2 * sympy.pi * sympy.I * sympy.Rational(1, m))
    total = sympy.Integer(0)
    for t in range(m):
        chi = sum(c * zeta ** ((t * j) % m) for j, c in enumerate(coeffs_x))
        psi = sum(c * zeta ** ((-t * j) % m) for j, c in enumerate(coeffs_y))
        total += chi * psi
    value = sympy.simplify(sympy.expand_complex(total / m))
    assert value.is_integer, value
    return int(value)


def _to_sympy(p: Polynomial, symbols) -> sympy.Expr:
    expr = sympy.Integer(0)
    for mon, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for z, e in zip(symbols, mon):
            if e:
                term *= z**e
        expr += term
    return expr


def _from_sympy(poly: sympy.Poly, n: int, unit=1) -> Polynomial:
    """The Polynomial of a sympy Poly in n variables, divided by ``unit``."""
    terms = {}
    for exps, c in poly.terms():
        q = sympy.Rational(c) / unit
        if q:
            terms[tuple(int(e) for e in exps)] = Fraction(int(q.p), int(q.q))
    return Polynomial(n, terms)


def sympy_reduced_groebner(polys, order: str) -> set[Polynomial]:
    """The reduced Groebner basis via sympy, every element made monic.

    ``order`` is sympy's name of the order: ``grevlex`` (degrevlex) or
    ``grlex`` (deglex, z1 > z2 > ...).
    """
    n = polys[0].nvars
    symbols = sympy.symbols(f"z1:{n + 1}")
    exprs = [_to_sympy(p, symbols) for p in polys if p.terms]
    basis = sympy.groebner(exprs, *symbols, order=order)
    return {_from_sympy(g, n, g.LC(order=order)) for g in basis.polys}


def sympy_normal_form(p: Polynomial, basis, order: str) -> Polynomial:
    """The remainder of p on full division by ``basis`` via sympy, under ``order``.

    ``order`` is named as for sympy_reduced_groebner.  Against a Groebner
    basis the remainder does not depend on how the division chooses its
    reducers, so it is canonical.
    """
    n = p.nvars
    symbols = sympy.symbols(f"z1:{n + 1}")
    divisors = [_to_sympy(g, symbols) for g in basis if g.terms]
    _, remainder = sympy.reduced(_to_sympy(p, symbols), divisors, *symbols, order=order)
    return _from_sympy(sympy.Poly(remainder, *symbols), n)


def fraction_full_remainder(p: Polynomial, basis, order) -> tuple[Polynomial, int]:
    """Full division of p by ``basis`` in exact Fraction arithmetic, under a global order.

    Each step cancels the leading term of what is left with the first basis
    element whose leading monomial divides it; a leading term that no
    element divides moves to the remainder.  Returns the remainder and the
    number of steps.
    """
    work = dict(p.terms)
    divisors = [(g.leading_monomial(order), g.terms) for g in basis if g.terms]
    remainder = {}
    steps = 0
    while work:
        lm = max(work, key=order.key)
        for lm_g, g in divisors:
            if all(a <= b for a, b in zip(lm_g, lm)):
                q = work[lm] / g[lm_g]
                shift = [b - a for a, b in zip(lm_g, lm)]
                for mon, c in g.items():
                    mon = tuple(x + s for x, s in zip(mon, shift))
                    value = work.get(mon, 0) - q * c
                    if value:
                        work[mon] = value
                    else:
                        del work[mon]
                steps += 1
                break
        else:
            remainder[lm] = work.pop(lm)
    return Polynomial(p.nvars, remainder), steps


def quadratic_update_pairs(lms, live, pending, queue, layout) -> None:
    """Gebauer and Moeller's update for the newest leading monomial, by quadratic scans.

    The same contract as ``standard_basis._update_pairs``: an old pair whose
    lcm the new leading monomial m divides, with both of its lcms with m
    different from it, leaves ``pending`` (the chain criterion).  A new pair
    is dropped when the lcm of a later new pair, or of a new pair kept
    before it, divides its own; a coprime pair is kept but never queued.
    Kept pairs enter ``pending`` and ``queue`` in the order of ``live``, and
    the elements whose leading monomial m divides leave ``live``.
    """
    guard, lcm_of = layout.guard, layout.lcm
    t = len(lms) - 1
    m = lms[t]
    for pair, lcm in list(pending.items()):
        i, j = pair
        if not (lcm - m) & guard and lcm_of(lms[i], m) != lcm and lcm_of(lms[j], m) != lcm:
            del pending[pair]
    fresh = [(i, lcm_of(lms[i], m)) for i in live]
    kept = []
    for pos, (i, lcm) in enumerate(fresh):
        coprime = lms[i] + m == lcm
        if coprime or not (
            any(not (lcm - other) & guard for _, other in fresh[pos + 1 :])
            or any(not (lcm - other) & guard for _, other, _ in kept)
        ):
            kept.append((i, lcm, coprime))
    for i, lcm, coprime in kept:
        if not coprime:
            pending[(i, t)] = lcm
            heappush(queue, (lcm >> layout.shift, layout.key(lcm), i, t))
    live[:] = [i for i in live if (lms[i] - m) & guard]
    live.append(t)


def sympy_determinant(rows) -> int:
    return int(sympy.Matrix([list(r) for r in rows]).det())


def milnor_product(exponents) -> int:
    """Milnor number of a sum of pure powers: the product of (exponent - 1)."""
    return prod(b - 1 for b in exponents)
