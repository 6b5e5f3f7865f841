"""Sparse multivariate polynomials over exact rationals.

Monomials are exponent tuples of a fixed length; a polynomial maps monomials
to nonzero Fractions.  The module also provides the monomial orderings used
by the basis engines (degree orders for the polynomial ring, negative-degree
orders for the local ring at the origin, where the constant monomial is the
largest), the weight of a monomial under a diagonal action, and the parser
and printer for the textual input grammar.

Every sum of terms goes through one in-place kernel, ``_add_multiple``
(terms += q * z^shift * other, on plain monomial-to-coefficient dicts): with
Fraction coefficients it serves polynomial addition, subtraction,
multiplication (``_product``), powers (``_power``) and substitution here, and
the parser, whose values are term dicts; with int coefficients it serves the
fraction-free S-polynomials and reduction steps of the basis engines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, le, mul, neg, sub
from typing import Callable, Iterable, Mapping, NoReturn, Sequence

from .errors import DimensionMismatchError, ParseError

Monomial = tuple[int, ...]


def mon_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mon_divides(a: Monomial, b: Monomial) -> bool:
    """Whether a divides b componentwise."""
    return all(map(le, a, b))


def mon_div(a: Monomial, b: Monomial) -> Monomial:
    """The quotient a/b; b must divide a."""
    return tuple(map(sub, a, b))


def mon_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mon_degree(a: Monomial) -> int:
    return sum(a)


def monomial_weight(mon: Monomial, weights: Sequence[int], modulus: int) -> int:
    """Weight of a monomial under the diagonal action with the given weights.

    The group element acting by the primitive root scales z^mon by the root
    raised to this value.
    """
    return sum(map(mul, mon, weights)) % modulus


def _add_multiple(terms: dict, q: int | Fraction, shift: Monomial,
                  other: Mapping[Monomial, int | Fraction],
                  created: list | None = None) -> None:
    """terms += q * z^shift * other, in place, dropping the terms that cancel.

    ``terms`` and ``other`` map monomials to int or Fraction coefficients.
    The monomials new to ``terms`` are appended to ``created``, if given.
    """
    for mon, c in other.items():
        mon = tuple(map(add, mon, shift))
        s = terms.get(mon)
        if s is None:
            terms[mon] = q * c
            if created is not None:
                created.append(mon)
        elif s := s + q * c:
            terms[mon] = s
        else:
            del terms[mon]


def _product(a: Mapping[Monomial, int | Fraction],
             b: Mapping[Monomial, int | Fraction]) -> dict:
    """The product of two term dicts, as a new dict."""
    if len(a) == 1 == len(b):
        ((ma, ca),), ((mb, cb),) = a.items(), b.items()
        return {tuple(map(add, ma, mb)): ca * cb}
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    for mon, c in b.items():
        _add_multiple(out, c, mon, a)
    return out


def _power(terms: Mapping[Monomial, int | Fraction], e: int, one: dict) -> dict:
    """terms ** e as a new dict, by repeated squaring; ``one`` is the unit."""
    if len(terms) == 1:
        ((mon, c),) = terms.items()
        return {tuple(x * e for x in mon): c**e}
    result = one
    while e:
        if e & 1:
            result = _product(result, terms)
        e >>= 1
        if e:
            terms = _product(terms, terms)
    return result


_GLOBAL_KINDS = ("degrevlex", "deglex", "homogenized")
_LOCAL_KINDS = ("negdegrevlex", "negdeglex")


def _revlex_tail(mon: Monomial) -> tuple[int, ...]:
    return tuple(map(neg, reversed(mon)))


_ORDER_KEYS: dict[str, Callable[[Monomial], tuple]] = {
    "degrevlex": lambda mon: (sum(mon), _revlex_tail(mon)),
    "deglex": lambda mon: (sum(mon), mon),
    "homogenized": lambda mon: (sum(mon), mon[-1], _revlex_tail(mon[:-1])),
    "negdegrevlex": lambda mon: (-sum(mon), _revlex_tail(mon)),
    "negdeglex": lambda mon: (-sum(mon), mon),
}


@dataclass(frozen=True)
class MonomialOrder:
    """A multiplicative total order on monomials in a fixed number of variables.

    Global kinds (``degrevlex``, ``deglex``) refine total degree, so the
    constant monomial is the smallest; local kinds (``negdegrevlex``,
    ``negdeglex``) refine negative total degree, so the constant monomial is
    the largest.  Larger sort key means larger monomial.

    The ``homogenized`` kind is a global order for a ring with a trailing
    homogenizing variable: total degree first, then the exponent of that
    variable, then reverse-negative on the rest.  On homogeneous polynomials
    it sorts exactly as ``negdegrevlex`` sorts their dehomogenizations, which
    lets a local standard-basis computation be lifted to a terminating
    global one.
    """

    kind: str
    nvars: int
    # The sort key of a monomial under this order, bound to the kind once:
    # leading-monomial searches call it on every term.
    key: Callable[[Monomial], tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _GLOBAL_KINDS + _LOCAL_KINDS:
            raise ValueError(f"unknown monomial order kind {self.kind!r}")
        if self.nvars < 0:
            raise ValueError("nvars must be nonnegative")
        if self.kind == "homogenized" and self.nvars < 1:
            raise ValueError("homogenized order needs the homogenizing variable")
        object.__setattr__(self, "key", _ORDER_KEYS[self.kind])

    @classmethod
    def global_order(cls, nvars: int) -> "MonomialOrder":
        return cls("degrevlex", nvars)

    @classmethod
    def local_order(cls, nvars: int) -> "MonomialOrder":
        return cls("negdegrevlex", nvars)

    @property
    def is_local(self) -> bool:
        return self.kind in _LOCAL_KINDS

    def greater(self, a: Monomial, b: Monomial) -> bool:
        return self.key(a) > self.key(b)

    def max(self, monomials: Iterable[Monomial]) -> Monomial:
        return max(monomials, key=self.key)


class Polynomial:
    """An immutable sparse polynomial with Fraction coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients.  Arithmetic never
    mutates; every operation validates that the ambient dimensions agree.
    The public constructor validates and normalizes its input; results of
    arithmetic are built by ``_unchecked``, which trusts them.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Fraction] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[Monomial, Fraction] = {}
        for mon, c in (terms or {}).items():
            mon = tuple(mon)
            if len(mon) != nvars or any(e < 0 or not isinstance(e, int) for e in mon):
                raise ValueError(f"bad exponent tuple {mon} for {nvars} variables")
            c = Fraction(c)
            if c != 0:
                clean[mon] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _unchecked(cls, nvars: int, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Wrap a fresh dict of valid exponent tuples and nonzero Fractions, unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        """The variable with zero-based index i."""
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        mon = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mon: Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, mon: Monomial, coefficient=1) -> "Polynomial":
        return cls(nvars, {tuple(mon): Fraction(coefficient)})

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"polynomials in {self.nvars} and {other.nvars} variables"
            )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def _plus(self, other, q: int):
        """self + q * other for q = 1 or -1, with integer and Fraction constants."""
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        _add_multiple(out, q, (0,) * self.nvars, other.terms)
        return Polynomial._unchecked(self.nvars, out)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._unchecked(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial.zero(self.nvars)
            return Polynomial._unchecked(self.nvars, {m: c * v for m, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        return Polynomial._unchecked(self.nvars, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        one = {(0,) * self.nvars: Fraction(1)}
        return Polynomial._unchecked(self.nvars, _power(self.terms, exponent, one))

    def total_degree(self) -> int:
        """Maximum degree of a term, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mon_degree(m) for m in self.terms)

    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: MonomialOrder) -> "Polynomial":
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        inv = 1 / lc
        return Polynomial._unchecked(self.nvars, {m: inv * c for m, c in self.terms.items()})

    def partial_derivative(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        # Lowering one exponent keeps distinct monomials distinct.
        out = {
            tuple(v - 1 if j == i else v for j, v in enumerate(mon)): c * mon[i]
            for mon, c in self.terms.items()
            if mon[i]
        }
        return Polynomial(self.nvars, out)

    def compose(self, substitutions: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute a polynomial for each variable.

        All substituted polynomials must share a common number of variables,
        which becomes the ambient dimension of the result.
        """
        if len(substitutions) != self.nvars:
            raise DimensionMismatchError(
                f"{self.nvars} variables but {len(substitutions)} substitutions"
            )
        if self.nvars == 0:
            return Polynomial(0, dict(self.terms))
        target = substitutions[0].nvars
        for p in substitutions:
            if p.nvars != target:
                raise DimensionMismatchError("substitutions have mixed ambient dimensions")
        # Power tables avoid recomputing repeated powers of each substitution.
        maxes = [0] * self.nvars
        for mon in self.terms:
            for i, e in enumerate(mon):
                if e > maxes[i]:
                    maxes[i] = e
        one = Polynomial.constant(target, 1)
        powers: list[list[Polynomial]] = []
        for i, p in enumerate(substitutions):
            table = [one]
            for _ in range(maxes[i]):
                table.append(table[-1] * p)
            powers.append(table)
        no_shift = (0,) * target
        out: dict[Monomial, Fraction] = {}
        for mon, c in self.terms.items():
            term = one
            for i, e in enumerate(mon):
                if e:
                    term = term * powers[i][e]
            _add_multiple(out, c, no_shift, term.terms)
        return Polynomial._unchecked(target, out)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise DimensionMismatchError("point dimension does not match")
        pt = [Fraction(v) for v in point]
        total = Fraction(0)
        for mon, c in self.terms.items():
            v = c
            for x, e in zip(pt, mon):
                if e:
                    v *= x**e
            total += v
        return total

    def shift(self, point: Sequence) -> "Polynomial":
        """Compose with the translation z -> z + point."""
        subs = [
            Polynomial.variable(self.nvars, i) + Fraction(point[i])
            for i in range(self.nvars)
        ]
        return self.compose(subs)

    def restrict_to(self, keep: Sequence[int]) -> "Polynomial":
        """Set every variable outside ``keep`` to zero and reindex onto ``keep``.

        ``keep`` is a strictly increasing sequence of zero-based indices; the
        result lives in len(keep) variables.
        """
        keep = tuple(keep)
        keep_set = set(keep)
        # The kept monomials vanish off ``keep``, so they stay distinct.
        out = {
            tuple(mon[i] for i in keep): c
            for mon, c in self.terms.items()
            if not any(e and i not in keep_set for i, e in enumerate(mon))
        }
        return Polynomial(len(keep), out)

    def embed(self, nvars: int, positions: Sequence[int]) -> "Polynomial":
        """Reinterpret in a larger ring, sending variable i to ``positions[i]``."""
        positions = tuple(positions)
        if len(positions) != self.nvars:
            raise DimensionMismatchError("positions must list every current variable")
        out: dict[Monomial, Fraction] = {}
        for mon, c in self.terms.items():
            big = [0] * nvars
            for i, e in enumerate(mon):
                big[positions[i]] = e
            out[tuple(big)] = c
        return Polynomial(nvars, out)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {format_polynomial(self)!r})"


# One token: an ASCII integer, a variable name, or any other single
# character, after optional whitespace.
_TOKEN = re.compile(r"\s*([0-9]+|z[0-9]*|\S)")
# The most digits a number may have: CPython 3.11 refuses to convert longer
# digit strings by default, and 3.10 may not, so the parser enforces one
# limit on every version, on the numbers it reads and on the numerators and
# denominators of the coefficients it returns, so every result prints.
_MAX_DIGITS = 4300
# The least magnitude with more than _MAX_DIGITS digits.
_TOO_LONG = 10**_MAX_DIGITS


def _is_integer(token: str) -> bool:
    return "0" <= token[:1] <= "9"


class _Parser:
    """Recursive descent for sums of products of powers of atoms.

    expr   := [sign] term ((+|-) term)*
    term   := factor (* factor)*
    factor := atom [^ INT]
    atom   := INT [/ INT] | VAR | ( expr )

    Variables are z1..zn; when n is 1 the bare name z is accepted as well.
    Exponents and literals are nonnegative integers written in the ASCII
    digits 0-9; negative values arise only from the leading sign of a term.
    The text is split into tokens by one regular expression up front, and
    every value is a plain term dict (monomial to int or Fraction, no zero
    coefficients) owned by the parser, so a sum accumulates in place; only
    the final result becomes a Polynomial.  A ParseError reports the offset
    of the offending token, or the length of the text at its end; a
    coefficient of the result that is too long is found there.
    """

    def __init__(self, text: str, nvars: int):
        self.text = text
        self.nvars = nvars
        self.zero = (0,) * nvars
        # The empty string marks the end of the input.
        self.tokens = _TOKEN.findall(text) + [""]
        self.k = 0

    def fail(self, message: str, k: int | None = None, offset: int = 0) -> NoReturn:
        """Raise a ParseError at token k (default: the next one), plus offset."""
        starts = [m.start(1) for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        raise ParseError(message, starts[self.k if k is None else k] + offset)

    def integer(self) -> int:
        token = self.tokens[self.k]
        if not _is_integer(token):
            self.fail("expected an integer")
        value = self.digits(token)
        self.k += 1
        return value

    def digits(self, text: str) -> int:
        """The value of a digit string read from the next token."""
        if len(text) > _MAX_DIGITS:
            self.fail(f"integer longer than {_MAX_DIGITS} digits")
        return int(text)

    def parse(self) -> Polynomial:
        terms = self.expr()
        token = self.tokens[self.k]
        if token:
            self.fail(f"unexpected {token[0]!r}")
        coefficients = {m: c if type(c) is Fraction else Fraction(c) for m, c in terms.items()}
        for c in coefficients.values():
            if abs(c.numerator) >= _TOO_LONG or c.denominator >= _TOO_LONG:
                self.fail(f"coefficient longer than {_MAX_DIGITS} digits")
        return Polynomial._unchecked(self.nvars, coefficients)

    def expr(self) -> dict:
        tokens = self.tokens
        sign = tokens[self.k]
        if sign == "+" or sign == "-":
            self.k += 1
        acc = self.term()
        if sign == "-":
            acc = {m: -c for m, c in acc.items()}
        while (op := tokens[self.k]) == "+" or op == "-":
            self.k += 1
            _add_multiple(acc, 1 if op == "+" else -1, self.zero, self.term())
        return acc

    def term(self) -> dict:
        acc = self.factor()
        while self.tokens[self.k] == "*":
            self.k += 1
            acc = _product(acc, self.factor())
        return acc

    def factor(self) -> dict:
        base = self.atom()
        if self.tokens[self.k] != "^":
            return base
        self.k += 1
        e = self.integer()
        if len(base) == 1:
            # |c|^e >= 2^((b - 1) * e) for a numerator or denominator of b
            # bits: refuse a power sure to be too long before computing it.
            (c,) = base.values()
            b = max(abs(c.numerator), c.denominator).bit_length()
            if (b - 1) * e >= _TOO_LONG.bit_length():
                self.fail(f"coefficient longer than {_MAX_DIGITS} digits", self.k - 1)
        return _power(base, e, {self.zero: 1})

    def atom(self) -> dict:
        token = self.tokens[self.k]
        if token == "(":
            self.k += 1
            p = self.expr()
            if self.tokens[self.k] != ")":
                self.fail("expected ')'")
            self.k += 1
            return p
        if _is_integer(token):
            c = self.digits(token)
            self.k += 1
            if self.tokens[self.k] == "/":
                self.k += 1
                den = self.integer()
                if den == 0:
                    # Reported just past the '/'.
                    self.fail("zero denominator", self.k - 2, 1)
                c = Fraction(c, den)
            return {self.zero: c} if c else {}
        if token[:1] == "z":
            if len(token) > 1:
                i = self.digits(token[1:])
                if not 1 <= i <= self.nvars:
                    self.fail(f"variable z{i} out of range for {self.nvars} variables")
            elif self.nvars == 1:
                i = 1
            else:
                self.fail("bare variable z is only valid in one variable")
            self.k += 1
            return {self.zero[: i - 1] + (1,) + self.zero[i:]: 1}
        self.fail(f"unexpected {token[0]!r}" if token else "unexpected end of input")


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse the textual polynomial grammar into an exact polynomial."""
    return _Parser(text, nvars).parse()


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form; parses back to an equal polynomial.

    Terms are listed in decreasing degree order with deterministic
    tie-breaking, coefficients are printed as integers or fractions, and unit
    coefficients are suppressed.
    """
    if not p.terms:
        return "0"
    order = MonomialOrder("degrevlex", p.nvars)
    parts: list[str] = []
    for mon in sorted(p.terms, key=order.key, reverse=True):
        c = p.terms[mon]
        negative = c < 0
        mag = -c if negative else c
        factors: list[str] = []
        if mag != 1 or mon_degree(mon) == 0:
            factors.append(str(mag))
        for i, e in enumerate(mon):
            if e == 1:
                factors.append(f"z{i + 1}")
            elif e > 1:
                factors.append(f"z{i + 1}^{e}")
        body = "*".join(factors)
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)
