"""The benchmark's three workloads and the checks on their answers.

Every workload drives the public functions of ``eqidx`` through the module
objects it is given, looking each function up at call time, so the traced
run's wrappers see every call.

Each workload is a fixed set of cases, run in whole passes; ``--seed`` sets
the order of the cases in each pass.  A generated case draws its input from
its own random generator, derived from the workload name and the case index,
so an abandoned case cannot shift the draws of later cases, the case that
misses a deadline is the same in every run, and running a case again draws
the same input.  The case sets are fixed rather than drawn afresh for each
seed because their times are heavy-tailed: with a new set per seed, the
slowest cases, and with them the tail latency and the throughput, would
depend on which seed was run more than on the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from harness import Case, WrongAnswer


def case_rng(workload: str, index: int) -> random.Random:
    """The generator of one case, derived from the workload name and the case index."""
    return random.Random(f"{workload}:{index}")


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


class FixedCases:
    """A fixed list of cases, run in whole passes, each pass in a seeded order."""

    name = ""

    def __init__(self, seed: int, cases: list[Case]) -> None:
        self.seed = seed
        self.cases = cases
        self.pass_len = len(cases)
        self._pass_no = -1
        self._order: list[int] = []

    def case(self, index: int) -> Case:
        pass_no, slot = divmod(index, self.pass_len)
        if pass_no != self._pass_no:
            self._pass_no = pass_no
            self._order = list(range(self.pass_len))
            random.Random(f"{self.name}:{self.seed}:{pass_no}").shuffle(self._order)
        return self.cases[self._order[slot]]


class VerifyMix(FixedCases):
    """Generator-driven verification cases, the per-case work of ``eqidx verify``.

    The mix follows the verification the README documents: ``eqidx verify
    --suite coincidence --cases 50`` and ``eqidx verify --suite
    sebastiani-thom`` (50 cases by default) draw 50 cases each, and
    acceptance criterion 7 (tests/test_acceptance.py) checks 5 pullbacks.
    Generation is part of each case, as it is in the suites: the generator's
    rejected candidates and repeated index reports cost time only here.
    """

    name = "verify-mix"
    # Well above the slowest case that completes (about 3.2 s on a 2-core
    # VM).  pullback-101 runs for minutes and misses the deadline in every
    # pass; its memory levels off after about 8 s, so with a shorter
    # deadline the peak RSS would depend on how far it got.
    deadline_s = 12.0
    MIX = ("coincidence",) * 50 + ("sebastiani-thom",) * 50 + ("pullback",) * 5

    def __init__(self, ns: SimpleNamespace, seed: int, work_dir: Path) -> None:
        self.ns = ns
        runs = {
            "coincidence": self._coincidence,
            "sebastiani-thom": self._sebastiani_thom,
            "pullback": self._pullback,
        }
        super().__init__(seed, [
            Case(f"{kind}-{index:03d}",
                 lambda run=runs[kind], index=index: run(case_rng(self.name, index)))
            for index, kind in enumerate(self.MIX)
        ])

    def _coincidence(self, rng: random.Random) -> None:
        # As in `eqidx verify --suite coincidence`: default generator sizes.
        form, action = self.ns.generator.random_case(rng)
        report = self.ns.equiv_index.index_report(form, action)
        _check(report.hom == report.reduced_radial, "hom != reduced radial")
        _check(
            report.hom.virtual_dimension() == report.strata[1].milnor_number,
            "dim hom != Milnor number",
        )

    def _sebastiani_thom(self, rng: random.Random) -> None:
        # As in `eqidx verify --suite sebastiani-thom`.
        ei, gen = self.ns.equiv_index, self.ns.generator
        m = rng.randint(1, 6)
        group = self.ns.rep_rings.CyclicGroup(m)
        action_a = ei.DiagonalAction(
            group, tuple(rng.randrange(m) for _ in range(rng.randint(1, 2)))
        )
        action_b = ei.DiagonalAction(
            group, tuple(rng.randrange(m) for _ in range(rng.randint(1, 2)))
        )
        form_a = gen.random_invariant_form(rng, action_a, max_degree=5)
        form_b = gen.random_invariant_form(rng, action_b, max_degree=5)
        sum_form, sum_action = ei.st_sum(form_a, action_a, form_b, action_b)
        a = ei.index_report(form_a, action_a)
        b = ei.index_report(form_b, action_b)
        total = ei.index_report(sum_form, sum_action)
        _check(total.hom == a.hom * b.hom, "hom is not multiplicative")
        _check(total.radial == a.radial * b.radial, "radial is not multiplicative")
        _check(
            total.reduced_radial == a.reduced_radial * b.reduced_radial,
            "reduced radial is not multiplicative",
        )

    def _pullback(self, rng: random.Random) -> None:
        # As in acceptance criterion 7 (pullback invariance under shears).
        ei, gen = self.ns.equiv_index, self.ns.generator
        form, action = gen.random_case(rng, max_order=6, max_vars=3, max_degree=5)
        substitution = gen.random_shear(rng, action, max_degree=3)
        pulled = ei.equivariant_pullback(form, substitution, action)
        before = ei.index_report(form, action)
        after = ei.index_report(pulled, action)
        _check(after.hom == before.hom, "pullback changed hom")
        _check(after.radial == before.radial, "pullback changed radial")


@dataclass(frozen=True)
class HardIdeal:
    """A named regression for the local engine, with its recorded answer."""

    name: str
    source: str
    problem: dict
    mu: int
    hom: tuple[int, ...]


HARD_IDEALS = (
    HardIdeal(
        name="mu93-deep-corner",
        source="tests/test_standard_basis.py::test_deep_corner_leading_ideal",
        problem={
            "group": {"order": 1},
            "weights": [0, 0, 0],
            "form": [
                "-3/2*z1^5 + 2*z1^2*z2*z3^2",
                "3*z2^5 - 3/2*z1^2*z2",
                "3*z1^3*z2*z3 - 2*z3^5 + z2^2*z3",
            ],
        },
        mu=93,
        hom=(93,),
    ),
    HardIdeal(
        name="mu96-seed149-draw10",
        source="eqidx verify --suite coincidence --seed 149: random case, draw index 10 (0-based)",
        problem={
            "group": {"order": 1},
            "weights": [0, 0, 0],
            "form": [
                "3*z1^4 + z1^3*z2 + 3*z2^3*z3",
                "-z2^4",
                "-3/2*z3^6 + 1/2*z2*z3^3 + 2*z1^3",
            ],
        },
        mu=96,
        hom=(96,),
    ),
    # mu = 89 and hom = (29, 30, 30) were confirmed once with the homogenized
    # lift (standard_basis._homogenized_local, 4 s), whose standard monomials
    # reach degree 80.  The truncation oracle of tests/oracles.py cannot reach
    # the bound 81 that a full check needs (about 92,000 monomial columns in
    # exact arithmetic), so it was run at bounds 2..16 instead, where it
    # agrees with the lift's count of standard monomials below each bound.
    # Independently, the third component solves z2 as a power series in z3
    # (z2 = -3/4 z3^5 + ...); substituting it leaves, up to units,
    # z1^3 (z1^2 + 9/4 z3^10) and z3^2 (c z3^23 - 2 z1) with c != 0, whose
    # intersection number at the origin is 6 + 69 + 4 + 10 = 89.
    HardIdeal(
        name="mu89-seed149-draw38",
        source=(
            "eqidx verify --suite coincidence --seed 149: a candidate form that "
            "random_invariant_form tests in draw index 38 (0-based)"
        ),
        problem={
            "group": {"order": 3},
            "weights": [2, 2, 1],
            "form": [
                "1/2*z1^5 + 2*z1^3*z2^2",
                "-z2^5 - 2*z1*z3^2",
                "-3/2*z3^5 - 2*z2^4 - 2*z2",
            ],
        },
        mu=89,
        hom=(29, 30, 30),
    ),
)


class HardIdeals(FixedCases):
    """Named local-engine regressions, each run as ``eqidx index`` in-process."""

    name = "hard-ideals"
    # Above mu96 (2.3 to 5.2 s on a 2-core VM, as the host's speed drifts).
    # The mu=89 case misses it; its memory keeps growing after about 10 s,
    # so a longer deadline would make the peak RSS depend on how far it got.
    deadline_s = 8.0

    def __init__(
        self,
        ns: SimpleNamespace,
        seed: int,
        work_dir: Path,
        ideals: tuple[HardIdeal, ...] = HARD_IDEALS,
    ) -> None:
        self.ns = ns
        work_dir.mkdir(parents=True, exist_ok=True)
        cases = []
        for ideal in ideals:
            path = work_dir / f"{ideal.name}.json"
            path.write_text(json.dumps(ideal.problem), encoding="utf-8")
            cases.append(Case(ideal.name, lambda ideal=ideal, path=path: self._index(ideal, path)))
        super().__init__(seed, cases)

    def _index(self, ideal: HardIdeal, path: Path) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.ns.cli.main(["index", "--input", str(path)])
        _check(code == 0, f"exit code {code}: {out.getvalue().strip()}")
        document = json.loads(out.getvalue())
        _check(
            document["diagnostics"]["1"]["mu"] == ideal.mu,
            f"mu {document['diagnostics']['1']['mu']} != {ideal.mu}",
        )
        _check(tuple(document["hom"]) == ideal.hom, f"hom {document['hom']} != {list(ideal.hom)}")
        _check(document["reduced_radial"] == document["hom"], "hom != reduced radial")


_COEFFICIENTS = tuple(Fraction(c) for c in ("1", "-1", "2", "-2", "3", "1/2", "-3/2"))


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    if nvars == 1:
        return [(degree,)]
    return [
        (e,) + rest for e in range(degree + 1) for rest in _monomials(nvars - 1, degree - e)
    ]


def conservation_problem(rng: random.Random, max_degree: int) -> dict:
    """A homogeneous invariant form with an isolated zero, and a deformation.

    In a random order of the variables, the component of variable v is a
    pure power c*z_v^d plus degree-d terms in v and later variables, each
    containing a later one.  Setting the later variables to zero leaves
    c*z_v^d, so by induction from the last variable the origin is the only
    zero and, by Bezout, its multiplicity is the product of the degrees.
    The deformation adds invariant terms of lower degree, which keeps the
    top-degree part, hence no zeros at infinity and the same global count:
    the dimension guard of the conservation check holds by construction.
    """
    while True:
        m = rng.randint(1, 6)
        n = rng.randint(2, 3)
        weights = [rng.randrange(m) for _ in range(n)]
        if all(
            any((d + 1) * k % m == 0 for d in range(2, max_degree + 1)) for k in weights
        ):
            break
    order = list(range(n))
    rng.shuffle(order)
    form: list[dict] = [{} for _ in range(n)]
    deformed: list[dict] = [{} for _ in range(n)]
    degrees = []
    for pos, v in enumerate(order):
        target = -weights[v] % m
        later = set(order[pos + 1 :])

        def invariant(mon: tuple[int, ...]) -> bool:
            return sum(e * k for e, k in zip(mon, weights)) % m == target

        d = rng.choice([d for d in range(2, max_degree + 1) if (d + 1) * weights[v] % m == 0])
        degrees.append(d)
        terms = {tuple(d if j == v else 0 for j in range(n)): rng.choice(_COEFFICIENTS)}
        top = [
            mon
            for mon in _monomials(n, d)
            if invariant(mon)
            and any(mon[j] for j in later)
            and all(mon[j] == 0 for j in range(n) if j != v and j not in later)
        ]
        for mon in rng.sample(top, min(len(top), rng.randint(0, 2))):
            terms[mon] = rng.choice(_COEFFICIENTS)
        low = [mon for k in range(d) for mon in _monomials(n, k) if invariant(mon)]
        shifts = rng.sample(low, min(len(low), rng.randint(1, 2)))
        form[v] = terms
        deformed[v] = {**terms, **{mon: rng.choice(_COEFFICIENTS) for mon in shifts}}
    return {
        "order": m,
        "weights": weights,
        "form": form,
        "deformed": deformed,
        "multiplicity": math.prod(degrees),
    }


class Conservation(FixedCases):
    """Generated deformation problems checked in global mode.

    Each case parses a generated problem and runs ``conservation_check`` and
    ``global_index_character`` on it; almost all of the time goes to global
    Buchberger with full reduction.
    """

    name = "conservation"
    # Above the slowest case of the set (about 3.2 s on a 2-core VM).
    deadline_s = 5.0
    CASES = 500
    MAX_DEGREE = 4

    def __init__(self, ns: SimpleNamespace, seed: int, work_dir: Path) -> None:
        self.ns = ns
        poly = ns.poly
        cases = []
        for index in range(self.CASES):
            problem = conservation_problem(case_rng(self.name, index), self.MAX_DEGREE)
            n = len(problem["weights"])
            for key in ("form", "deformed"):
                problem[key] = [
                    poly.format_polynomial(poly.Polynomial(n, terms)) for terms in problem[key]
                ]
            cases.append(Case(f"conservation-{index:03d}",
                              lambda problem=problem: self._check(problem)))
        super().__init__(seed, cases)

    def _check(self, problem: dict) -> None:
        ei, poly = self.ns.equiv_index, self.ns.poly
        n = len(problem["weights"])
        action = ei.DiagonalAction(
            self.ns.rep_rings.CyclicGroup(problem["order"]), tuple(problem["weights"])
        )
        form = ei.OneForm(tuple(poly.parse_polynomial(t, n) for t in problem["form"]))
        deformed = ei.OneForm(tuple(poly.parse_polynomial(t, n) for t in problem["deformed"]))
        report = ei.conservation_check(form, deformed, action)
        _check(report.mode == "global" and report.matched, "index not conserved")
        _check(
            report.reference.virtual_dimension() == problem["multiplicity"],
            f"multiplicity {report.reference.virtual_dimension()} != {problem['multiplicity']}",
        )
        # The global engine on the deformation against the local engine on
        # the original form: the check's own comparison, made independently.
        total = ei.global_index_character(deformed, action)
        _check(total == report.reference, "global character of the deformation != local index")


WORKLOADS = {w.name: w for w in (VerifyMix, HardIdeals, Conservation)}
