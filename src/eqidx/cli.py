"""Command line interface: index computation and verification suites.

``eqidx index`` reads a problem description from JSON and prints both indices
with per-stratum diagnostics.  ``eqidx verify`` runs one of the bundled
suites, each of which checks an exact identity case by case and reports a
machine-readable verdict.  Outputs are deterministic: the same input and
seed produce byte-identical reports.

Exit codes: 0 success (and all cases passed), 1 at least one verification
case failed, 2 unusable input, 3 a mathematical precondition was violated.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from dataclasses import dataclass
from typing import Any, Sequence

from .equiv_index import (
    DiagonalAction,
    IndexReport,
    OneForm,
    conservation_check,
    index_report,
    st_sum,
)
from .errors import EqidxError, InputError, PreconditionError
from .generator import _form_and_report, random_action
from .poly import Polynomial, format_polynomial, parse_polynomial
from .rep_rings import BurnsideElement, CyclicGroup, RepRingElement, integer_determinant


@dataclass(frozen=True)
class ProblemSpec:
    """A parsed problem: an action, a form, and optional deformation data."""

    action: DiagonalAction
    form: OneForm
    deformation: OneForm | None = None
    points: tuple[tuple[Fraction, ...], ...] | None = None


# The largest group order a problem may name.  A character of Z_m holds one
# integer per group element, so an index report takes time and memory in
# proportion to m: `eqidx index` on z1^2 with weight 0 takes about 0.1 s and
# 17 MB at m = 10,000 (no more than at m = 2), 0.16 s and 33 MB at 100,000
# and 1.0 s and 189 MB at 1,000,000.
_MAX_GROUP_ORDER = 10_000


def _is_integer(value: Any) -> bool:
    """A JSON integer; ``true`` and ``false`` are not, although bool subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_exact(value: Any, context: str) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{context}: expected an exact number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value.is_integer():
            return Fraction(int(value))
        raise InputError(
            f"{context}: non-integer floats are inexact, write the rational as a string"
        )
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"{context}: {e}") from e
    raise InputError(f"{context}: expected an exact number, got {type(value).__name__}")


def problem_from_dict(data: Any) -> ProblemSpec:
    """Validate and parse the JSON problem schema."""
    if not isinstance(data, dict):
        raise InputError("problem must be a JSON object")
    group = data.get("group")
    if not isinstance(group, dict) or not _is_integer(group.get("order")):
        raise InputError("problem needs group.order as an integer")
    m = group["order"]
    if m < 1:
        raise InputError("group order must be positive")
    if m > _MAX_GROUP_ORDER:
        raise InputError(f"group order {m} is above the limit of {_MAX_GROUP_ORDER}")
    weights = data.get("weights")
    if not isinstance(weights, list) or not weights or not all(
        _is_integer(w) for w in weights
    ):
        raise InputError("weights must be a nonempty list of integers")
    texts = data.get("form")
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise InputError("form must be a list of polynomial strings")
    if len(texts) != len(weights):
        raise InputError(
            f"{len(weights)} weights but {len(texts)} form components"
        )
    n = len(weights)
    action = DiagonalAction(CyclicGroup(m), tuple(weights))
    form = OneForm(tuple(parse_polynomial(t, n) for t in texts))

    deformation = None
    if data.get("deformation") is not None:
        dtexts = data["deformation"]
        if not isinstance(dtexts, list) or len(dtexts) != n or not all(
            isinstance(t, str) for t in dtexts
        ):
            raise InputError(f"deformation must be a list of {n} polynomial strings")
        deformation = OneForm(tuple(parse_polynomial(t, n) for t in dtexts))

    points = None
    if data.get("points") is not None:
        raw = data["points"]
        if not isinstance(raw, list):
            raise InputError("points must be a list of coordinate lists")
        parsed = []
        for idx, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != n:
                raise InputError(f"points[{idx}] must list {n} coordinates")
            parsed.append(
                tuple(_as_exact(v, f"points[{idx}][{j}]") for j, v in enumerate(row))
            )
        points = tuple(parsed)
    return ProblemSpec(action=action, form=form, deformation=deformation, points=points)


def load_problem_specs(path: str) -> list[ProblemSpec]:
    """Read one problem or a list of problems from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from e
    if isinstance(data, list):
        return [problem_from_dict(item) for item in data]
    return [problem_from_dict(data)]


def character_payload(x: RepRingElement) -> list[int]:
    return list(x.coefficients)


def burnside_payload(x: BurnsideElement) -> dict[str, int]:
    return {str(a): c for a, c in sorted(x.coefficients.items())}


def report_payload(spec: ProblemSpec, report: IndexReport, which: str) -> dict:
    """The JSON document for an index computation."""
    out: dict[str, Any] = {
        "group": {"order": spec.action.group.order},
        "weights": list(spec.action.weights),
    }
    if which in ("hom", "both"):
        out["hom"] = character_payload(report.hom)
    if which in ("rad", "both"):
        out["radial"] = burnside_payload(report.radial)
        out["reduced_radial"] = character_payload(report.reduced_radial)
        out["diagnostics"] = {
            str(a): {
                "fixed_vars": [i + 1 for i in data.fixed_variables],
                "mu": data.milnor_number,
            }
            for a, data in sorted(report.strata.items())
        }
    return out


def parse_report_payload(data: dict) -> dict:
    """Rebuild ring elements from a serialized index report (round-trip support)."""
    m = data["group"]["order"]
    group = CyclicGroup(m)
    out: dict[str, Any] = {
        "group": group,
        "weights": tuple(data["weights"]),
    }
    if "hom" in data:
        out["hom"] = RepRingElement(group, tuple(data["hom"]))
    if "radial" in data:
        out["radial"] = BurnsideElement(
            group, {int(a): c for a, c in data["radial"].items()}
        )
    if "reduced_radial" in data:
        out["reduced_radial"] = RepRingElement(group, tuple(data["reduced_radial"]))
    if "diagnostics" in data:
        out["diagnostics"] = {
            int(a): (
                tuple(i - 1 for i in entry["fixed_vars"]),
                entry["mu"],
            )
            for a, entry in data["diagnostics"].items()
        }
    return out


def _emit(document: Any) -> None:
    sys.stdout.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


def _form_payload(form: OneForm) -> list[str]:
    return [format_polynomial(f) for f in form.components]


@dataclass
class Case:
    """One verification case: inputs, the two sides, and the verdict."""

    case_id: str
    inputs: dict
    expected: Any
    computed: Any
    passed: bool

    def payload(self) -> dict:
        return {
            "case_id": self.case_id,
            "input": self.inputs,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
        }


def _case_inputs(action: DiagonalAction, form: OneForm) -> dict:
    return {
        "group": {"order": action.group.order},
        "weights": list(action.weights),
        "form": _form_payload(form),
    }


def power_family_cases() -> list[Case]:
    """The one-variable family z^(s*m - 1) dz with weight 1, for m <= 6 and s <= 3.

    Both indices must equal s copies of the regular character minus the
    trivial one; the closed form is asserted against both computations.
    """
    cases = []
    for m in range(2, 7):
        group = CyclicGroup(m)
        for s in range(1, 4):
            action = DiagonalAction(group, (1,))
            form = OneForm((Polynomial.monomial(1, (s * m - 1,)),))
            report = index_report(form, action)
            closed = s * RepRingElement.regular(group) - RepRingElement.one(group)
            computed = {
                "hom": character_payload(report.hom),
                "reduced_radial": character_payload(report.reduced_radial),
            }
            cases.append(
                Case(
                    case_id=f"power-m{m}-s{s}",
                    inputs=_case_inputs(action, form),
                    expected=character_payload(closed),
                    computed=computed,
                    passed=report.hom == closed and report.reduced_radial == closed,
                )
            )
    return cases


# Hand-picked invariant forms covering mixed weights, several variables, and
# every group order through 6.  (order, weights, components)
HAND_CASES: tuple[tuple[int, tuple[int, ...], tuple[str, ...]], ...] = (
    (1, (0,), ("z1^2",)),
    (2, (1,), ("z1^3",)),
    (2, (1, 1), ("z2", "z1")),
    (2, (1, 0), ("z1", "z2^3")),
    (2, (1, 1), ("z1^3", "z2^3")),
    (2, (1, 1), ("z1^3 + z1*z2^2", "z2^3 - z1^2*z2")),
    (3, (1, 2), ("z1^2", "z2^2")),
    (3, (1, 1, 1), ("z1^2", "z2^2", "z3^2")),
    (4, (2,), ("z1",)),
    (4, (1, 2), ("z1^3", "z2")),
    (4, (1, 3), ("z2", "z1")),
    (4, (1, 1), ("z1^3 + z2^3", "z1^3 - z2^3")),
    (5, (1, 4), ("z1^4", "z2^4")),
    (6, (1, 5), ("z1^5", "z2^5")),
    (6, (2, 3), ("z1^2", "z2")),
)


def _coincidence_case(case_id: str, action: DiagonalAction, form: OneForm,
                      report: IndexReport) -> Case:
    return Case(
        case_id=case_id,
        inputs=_case_inputs(action, form),
        expected=character_payload(report.hom),
        computed={
            "hom": character_payload(report.hom),
            "reduced_radial": character_payload(report.reduced_radial),
        },
        passed=report.hom == report.reduced_radial,
    )


def suite_coincidence(seed: int, count: int,
                      specs: Sequence[ProblemSpec] | None = None) -> list[Case]:
    """Reduced radial index equals homological index, case by case."""
    given: list[tuple[str, DiagonalAction, OneForm]] = []
    for i, (m, weights, texts) in enumerate(HAND_CASES):
        form = OneForm(tuple(parse_polynomial(t, len(weights)) for t in texts))
        given.append((f"hand-{i:03d}", DiagonalAction(CyclicGroup(m), weights), form))
    given += [(f"input-{i:03d}", spec.action, spec.form) for i, spec in enumerate(specs or ())]
    cases = power_family_cases()
    for case_id, action, form in given:
        cases.append(_coincidence_case(case_id, action, form, index_report(form, action)))
    rng = random.Random(seed)
    for i in range(count):
        action = random_action(rng)
        form, report = _form_and_report(rng, action)
        cases.append(_coincidence_case(f"random-{i:03d}", action, form, report))
    return cases


def suite_sebastiani_thom(seed: int, count: int) -> list[Case]:
    """Indices of a direct sum are the products of the indices."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        m = rng.randint(1, 6)
        group = CyclicGroup(m)
        action_a = DiagonalAction(group, tuple(rng.randrange(m) for _ in range(rng.randint(1, 2))))
        action_b = DiagonalAction(group, tuple(rng.randrange(m) for _ in range(rng.randint(1, 2))))
        form_a, report_a = _form_and_report(rng, action_a, max_degree=5)
        form_b, report_b = _form_and_report(rng, action_b, max_degree=5)
        sum_form, sum_action = st_sum(form_a, action_a, form_b, action_b)
        report = index_report(sum_form, sum_action)
        hom_ok = report.hom == report_a.hom * report_b.hom
        rad_ok = report.radial == report_a.radial * report_b.radial
        red_ok = report.reduced_radial == report_a.reduced_radial * report_b.reduced_radial
        cases.append(
            Case(
                case_id=f"st-{i:03d}",
                inputs={
                    "group": {"order": m},
                    "left": _case_inputs(action_a, form_a),
                    "right": _case_inputs(action_b, form_b),
                },
                expected={
                    "hom": character_payload(report_a.hom * report_b.hom),
                    "radial": burnside_payload(report_a.radial * report_b.radial),
                    "reduced_radial": character_payload(
                        report_a.reduced_radial * report_b.reduced_radial
                    ),
                },
                computed={
                    "hom": character_payload(report.hom),
                    "radial": burnside_payload(report.radial),
                    "reduced_radial": character_payload(report.reduced_radial),
                },
                passed=hom_ok and rad_ok and red_ok,
            )
        )
    return cases


# Deformation families for the conservation suite: (order, weights,
# components, deformed components, rational zero orbit representatives or
# None for the global comparison).
CONSERVATION_FAMILIES: tuple[
    tuple[int, tuple[int, ...], tuple[str, ...], tuple[str, ...], tuple | None], ...
] = (
    (2, (1,), ("z1^3",), ("z1^3 - z1",), (("1",),)),
    (2, (1, 0), ("z1^3", "z2^3"), ("z1^3 - z1", "z2^3 - z2"),
     (("0", "1"), ("0", "-1"), ("1", "0"), ("1", "1"), ("1", "-1"))),
    (2, (1,), ("z1^5",), ("z1^5 - z1^3",), None),
    (2, (1, 1), ("z1^3", "z2^3"), ("z1^3 - z1", "z2^3 - z2"), None),
    (3, (1, 2), ("z1^2", "z2^2"), ("z1^2 - z2", "z2^2 - z1"), None),
    (4, (1, 2), ("z1^3", "z2"), ("z1^3 - z1*z2", "z2",), None),
    (1, (0,), ("z1^4",), ("z1^4 - z1^2",), None),
    (6, (1, 5), ("z1^5", "z2^5"), ("z1^5 - z2", "z2^5 - z1"), None),
)


def suite_conservation(specs: Sequence[ProblemSpec] | None = None) -> list[Case]:
    """Deformations redistribute the index over their zero orbits without loss."""
    problems: list[tuple[str, ProblemSpec]] = []
    for i, (m, weights, texts, dtexts, points) in enumerate(CONSERVATION_FAMILIES):
        n = len(weights)
        spec = ProblemSpec(
            action=DiagonalAction(CyclicGroup(m), weights),
            form=OneForm(tuple(parse_polynomial(t, n) for t in texts)),
            deformation=OneForm(tuple(parse_polynomial(t, n) for t in dtexts)),
            points=None
            if points is None
            else tuple(tuple(Fraction(v) for v in row) for row in points),
        )
        problems.append((f"family-{i:03d}", spec))
    for i, spec in enumerate(specs or ()):
        if spec.deformation is None:
            raise InputError("conservation input problems need a deformation")
        problems.append((f"input-{i:03d}", spec))

    cases = []
    for case_id, spec in problems:
        outcome = conservation_check(
            spec.form, spec.deformation, spec.action, spec.points
        )
        inputs = _case_inputs(spec.action, spec.form)
        inputs["deformation"] = _form_payload(spec.deformation)
        if spec.points is not None:
            inputs["points"] = [[str(v) for v in row] for row in spec.points]
        computed: dict[str, Any] = {
            "mode": outcome.mode,
            "total": character_payload(outcome.total),
        }
        if outcome.mode == "pointwise":
            computed["origin"] = character_payload(outcome.origin)
            computed["orbits"] = [
                {
                    "representative": [str(v) for v in orbit.representative],
                    "isotropy_order": orbit.isotropy_order,
                    "induced": character_payload(orbit.induced),
                }
                for orbit in outcome.orbits
            ]
        cases.append(
            Case(
                case_id=case_id,
                inputs=inputs,
                expected=character_payload(outcome.reference),
                computed=computed,
                passed=outcome.matched,
            )
        )
    return cases


def suite_rings() -> list[Case]:
    """Non zero divisor certificates for s * regular - 1, for m <= 8 and s <= 4."""
    cases = []
    for m in range(2, 9):
        group = CyclicGroup(m)
        reg = RepRingElement.regular(group)
        for s in range(1, 5):
            x = s * reg - RepRingElement.one(group)
            det = integer_determinant(x.multiplication_matrix())
            ok = abs(det) == s * m - 1 and not x.is_zero_divisor()
            cases.append(
                Case(
                    case_id=f"nzd-m{m}-s{s}",
                    inputs={"group": {"order": m}, "element": f"{s}*regular - 1"},
                    expected={"determinant_abs": s * m - 1, "zero_divisor": False},
                    computed={"determinant": det, "zero_divisor": x.is_zero_divisor()},
                    passed=ok,
                )
            )
        cases.append(
            Case(
                case_id=f"reg-m{m}",
                inputs={"group": {"order": m}, "element": "regular"},
                expected={"zero_divisor": m > 1},
                computed={"zero_divisor": reg.is_zero_divisor()},
                passed=reg.is_zero_divisor() == (m > 1),
            )
        )
    return cases


def run_verify(suite: str, seed: int | None, count: int | None,
               specs: Sequence[ProblemSpec] | None) -> tuple[dict, bool]:
    """Run one suite: its report, and whether every case passed.

    Only coincidence and sebastiani-thom read ``seed`` and ``count`` (default
    0 and 50), and only coincidence and conservation read ``specs``.
    """
    if specs is not None and suite not in ("coincidence", "conservation"):
        raise InputError(f"suite {suite!r} reads no --input")
    if suite in ("conservation", "rings") and (seed is not None or count is not None):
        raise InputError(f"suite {suite!r} reads no --seed or --cases")
    seed = 0 if seed is None else seed
    count = 50 if count is None else count
    if count < 0:
        raise InputError(f"--cases must not be negative, got {count}")
    if suite == "coincidence":
        cases = suite_coincidence(seed, count, specs)
    elif suite == "sebastiani-thom":
        cases = suite_sebastiani_thom(seed, count)
    elif suite == "conservation":
        cases = suite_conservation(specs)
    elif suite == "rings":
        cases = suite_rings()
    else:
        raise InputError(f"unknown suite {suite!r}")
    cases.sort(key=lambda c: c.case_id)
    all_passed = all(c.passed for c in cases)
    document = {
        "suite": suite,
        "seed": seed,
        "cases": [c.payload() for c in cases],
        "overall": "pass" if all_passed else "fail",
    }
    return document, all_passed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqidx",
        description="Exact equivariant indices of invariant polynomial 1-forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="compute the indices of one form")
    p_index.add_argument("--input", required=True, help="JSON problem file")
    p_index.add_argument(
        "--which",
        choices=("hom", "rad", "both"),
        default="both",
        help="which index to print (default both)",
    )

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=("coincidence", "sebastiani-thom", "conservation", "rings"),
    )
    p_verify.add_argument("--input", help="optional JSON problem file with extra cases")
    p_verify.add_argument("--seed", type=int, help="generator seed (default 0)")
    p_verify.add_argument("--cases", type=int, help="number of generated cases (default 50)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        if args.command == "index":
            specs = load_problem_specs(args.input)
            documents = [
                report_payload(spec, index_report(spec.form, spec.action), args.which)
                for spec in specs
            ]
            _emit(documents[0] if len(documents) == 1 else documents)
            return 0

        specs = load_problem_specs(args.input) if args.input else None
        document, all_passed = run_verify(args.suite, args.seed, args.cases, specs)
        _emit(document)
        return 0 if all_passed else 1
    except EqidxError as e:
        _emit({"error": e.kind, "detail": str(e)})
        return 3 if isinstance(e, PreconditionError) else 2


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
