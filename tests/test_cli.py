"""End-to-end command line behaviour: schemas, exit codes, determinism."""

import hashlib
import json
import time
import tracemalloc
from fractions import Fraction

import pytest

from eqidx.cli import main, parse_report_payload, problem_from_dict, run_verify
from eqidx.errors import EqidxError, InputError
from eqidx.equiv_index import index_report
from eqidx.rep_rings import BurnsideElement, CyclicGroup, RepRingElement


def write_json(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


CUBIC = {"group": {"order": 2}, "weights": [1], "form": ["z1^3"]}


def test_index_both(tmp_path, capsys):
    path = write_json(tmp_path, CUBIC)
    code, out = run(capsys, "index", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == {"order": 2}
    assert doc["weights"] == [1]
    assert doc["hom"] == [1, 2]
    assert doc["radial"] == {"1": 2, "2": -1}
    assert doc["reduced_radial"] == [1, 2]
    assert doc["diagnostics"] == {
        "1": {"fixed_vars": [1], "mu": 3},
        "2": {"fixed_vars": [], "mu": 1},
    }


def test_index_hom_only(tmp_path, capsys):
    path = write_json(tmp_path, CUBIC)
    code, out = run(capsys, "index", "--input", path, "--which", "hom")
    assert code == 0
    doc = json.loads(out)
    assert doc["hom"] == [1, 2]
    assert "radial" not in doc and "diagnostics" not in doc


def test_index_rad_only(tmp_path, capsys):
    path = write_json(tmp_path, CUBIC)
    code, out = run(capsys, "index", "--input", path, "--which", "rad")
    assert code == 0
    doc = json.loads(out)
    assert "hom" not in doc
    assert doc["radial"] == {"1": 2, "2": -1}


def test_index_trivial_group(tmp_path, capsys):
    path = write_json(
        tmp_path, {"group": {"order": 1}, "weights": [0], "form": ["z1^2"]}
    )
    code, out = run(capsys, "index", "--input", path)
    assert code == 0
    assert json.loads(out)["hom"] == [2]


def test_index_list_input(tmp_path, capsys):
    other = {"group": {"order": 4}, "weights": [1, 2], "form": ["z1^3", "z2"]}
    path = write_json(tmp_path, [CUBIC, other])
    code, out = run(capsys, "index", "--input", path)
    assert code == 0
    docs = json.loads(out)
    assert isinstance(docs, list) and len(docs) == 2
    assert docs[0]["hom"] == [1, 2]
    assert docs[1]["hom"] == [1, 1, 0, 1]


def test_round_trip_payload(tmp_path, capsys):
    path = write_json(tmp_path, CUBIC)
    _, out = run(capsys, "index", "--input", path)
    parsed = parse_report_payload(json.loads(out))
    G = CyclicGroup(2)
    assert parsed["hom"] == RepRingElement(G, (1, 2))
    assert parsed["radial"] == BurnsideElement(G, {1: 2, 2: -1})
    assert parsed["reduced_radial"] == parsed["hom"]
    assert parsed["diagnostics"] == {1: ((0,), 3), 2: ((), 1)}


def test_precondition_exit_codes(tmp_path, capsys):
    not_invariant = write_json(
        tmp_path, {"group": {"order": 3}, "weights": [1], "form": ["z1"]}, "a.json"
    )
    code, out = run(capsys, "index", "--input", not_invariant)
    assert code == 3
    assert json.loads(out)["error"] == "NotInvariant"

    not_isolated = write_json(
        tmp_path,
        {"group": {"order": 1}, "weights": [0, 0], "form": ["z1*z2", "z1*z2"]},
        "b.json",
    )
    code, out = run(capsys, "index", "--input", not_isolated)
    assert code == 3
    assert json.loads(out)["error"] == "NonIsolated"

    # every --which validates alike: a form that misses the origin is rejected
    not_vanishing = write_json(
        tmp_path, {"group": {"order": 1}, "weights": [0], "form": ["1 + z1"]}, "c.json"
    )
    for which in ("hom", "rad", "both"):
        code, out = run(capsys, "index", "--input", not_vanishing, "--which", which)
        assert code == 3, which
        assert json.loads(out)["error"] == "NonIsolated"


def test_input_error_exit_codes(tmp_path, capsys):
    code, out = run(capsys, "index", "--input", str(tmp_path / "missing.json"))
    assert code == 2 and json.loads(out)["error"] == "Input"

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    code, out = run(capsys, "index", "--input", str(bad_json))
    assert code == 2 and json.loads(out)["error"] == "Input"

    for payload, name in [
        ({"group": {"order": 2}, "weights": 1, "form": ["z1^3"]}, "w.json"),
        ({"group": {"order": 2}, "weights": [1], "form": ["z1^3", "z2"]}, "c.json"),
        ({"group": {"order": 0}, "weights": [1], "form": ["z1^3"]}, "o.json"),
        ({"weights": [1], "form": ["z1^3"]}, "g.json"),
        ({"group": {"order": True}, "weights": [1], "form": ["z1^3"]}, "bo.json"),
        ({"group": {"order": 2}, "weights": [True], "form": ["z1^3"]}, "bw.json"),
    ]:
        path = write_json(tmp_path, payload, name)
        code, out = run(capsys, "index", "--input", path)
        assert code == 2 and json.loads(out)["error"] == "Input"

    broken_poly = write_json(
        tmp_path, {"group": {"order": 2}, "weights": [1], "form": ["z1 +"]}, "p.json"
    )
    code, out = run(capsys, "index", "--input", broken_poly)
    assert code == 2 and json.loads(out)["error"] == "Parse"

    superscript = write_json(
        tmp_path, {"group": {"order": 1}, "weights": [0], "form": ["z1^²"]}, "s.json"
    )
    code, out = run(capsys, "index", "--input", superscript)
    assert code == 2 and json.loads(out)["error"] == "Parse"

    long_literal = write_json(
        tmp_path, {"group": {"order": 1}, "weights": [0], "form": ["1" * 5000 + "*z1"]}, "l.json"
    )
    code, out = run(capsys, "index", "--input", long_literal)
    assert code == 2 and json.loads(out)["error"] == "Parse"

    # Nesting is bounded: a form in 250 nested parentheses is a Parse error,
    # and a file of 1,000 nested arrays an Input error, under index as under
    # verify, with an error document rather than a RecursionError.
    deep_form = write_json(
        tmp_path,
        {"group": {"order": 1}, "weights": [0], "form": ["(" * 250 + "z1" + ")" * 250]},
        "deep_form.json",
    )
    deep_file = tmp_path / "deep_file.json"
    deep_file.write_text("[" * 1000 + "]" * 1000, encoding="utf-8")
    for path, error in ((deep_form, "Parse"), (str(deep_file), "Input")):
        for argv in (("index",), ("verify", "--suite", "coincidence", "--cases", "0")):
            code, out = run(capsys, *argv, "--input", path)
            assert code == 2 and json.loads(out)["error"] == error, (path, argv)

    # The group order is bounded: the limit itself is accepted, and one
    # above it is refused, by verify as by index, before a character of that
    # many coefficients is allocated.
    at_limit = write_json(
        tmp_path, {"group": {"order": 10_000}, "weights": [0], "form": ["z1^2"]}, "m.json"
    )
    code, out = run(capsys, "index", "--input", at_limit)
    assert code == 0 and json.loads(out)["hom"] == [2] + [0] * 9_999
    above = {"group": {"order": 10_001}, "weights": [0], "form": ["z1^2"]}
    tracemalloc.start()
    with pytest.raises(InputError, match="above the limit"):
        problem_from_dict(above)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 10_001 * 8
    above = write_json(tmp_path, above, "big.json")
    for argv in (("index",), ("verify", "--suite", "coincidence", "--cases", "0")):
        code, out = run(capsys, *argv, "--input", above)
        assert code == 2 and json.loads(out)["error"] == "Input"

    # A coefficient too long to print is refused by verify as by index.
    long_value = write_json(
        tmp_path, {"group": {"order": 1}, "weights": [0], "form": ["10^4400*z1"]}, "v.json"
    )
    for argv in (("index",), ("verify", "--suite", "coincidence", "--cases", "0")):
        code, out = run(capsys, *argv, "--input", long_value)
        assert code == 2 and json.loads(out)["error"] == "Parse"


def test_bezout_and_power_limits(tmp_path, capsys):
    # A problem in more than 32 variables, or a form or deformation whose
    # Bezout number (the product of its component degrees) is above 100,000,
    # is refused by problem_from_dict with an Input error, and a multi-term
    # power or a product that may have more than 1,000 terms by the parser
    # with a Parse error: exit 2 under verify as under index, before the
    # form, the quotient, the power or the product is computed.
    def problem(form, deformation=None):
        spec = {"group": {"order": 1}, "weights": [0] * len(form), "form": form}
        if deformation is not None:
            spec["deformation"] = deformation
        return spec

    assert problem_from_dict(problem(["z1^400", "z2^250"])).form.components[0].total_degree() == 400
    problem_from_dict(problem(["z1^2", "z2^2"], ["z1^400 + z1", "z2^250"]))
    problem_from_dict(problem(["(z1 + z2)^999", "z2"]))
    # At the limits: 25 * 40 terms, and 32 variables.
    for form in (["(z1 + z2)^24*(z1 + z3)^39", "z2", "z3"], [f"z{i}" for i in range(1, 33)]):
        edge = write_json(tmp_path, problem(form), "edge.json")
        for argv in (("index",), ("verify", "--suite", "coincidence", "--cases", "0")):
            assert run(capsys, *argv, "--input", edge)[0] == 0
    cases = [
        (problem(["z1^400", "z2^251"]), "Input", "form has Bezout number 100400"),
        (problem(["z1^2000", "z2^2000"]), "Input", "form has Bezout number 4000000"),
        (problem(["z1^1000000"]), "Input", "form has Bezout number 1000000"),
        (problem(["z1^2", "z2^2"], ["z1^400", "z2^251"]), "Input", "deformation has Bezout"),
        (problem(["(z1 + z2)^1000", "z2"]), "Parse", "more than 1000 terms"),
        (problem(["(z1 + z2 + z3)^200", "z2", "z3"]), "Parse", "more than 1000 terms"),
        (problem(["(z1 + z2)^24*(z1 + z3)^40", "z2", "z3"]), "Parse", "product may have more"),
        (problem([f"z{i}" for i in range(1, 34)]), "Input", "33 variables, above the limit of 32"),
    ]
    for spec, error, detail in cases:
        tracemalloc.start()
        with pytest.raises(EqidxError, match=detail):
            problem_from_dict(spec)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 100_000
        path = write_json(tmp_path, spec, "limit.json")
        for argv in (("index",), ("verify", "--suite", "coincidence", "--cases", "0")):
            code, out = run(capsys, *argv, "--input", path)
            assert code == 2 and json.loads(out)["error"] == error
            assert detail in json.loads(out)["detail"]


def test_point_shift_limit(tmp_path, capsys):
    # Shifting a deformation to its points expands each monomial to at most
    # prod(e_i + 1) terms over the point's nonzero coordinates.  Summed over
    # points, components and monomials that may be 1,000, and a problem
    # past it is refused by problem_from_dict with an Input error: exit 2
    # under index as under verify, before any power is expanded.
    def problem(deformation, points):
        n = len(points[0])
        form = [f"z{i}^2" for i in range(1, n + 1)]
        return {"group": {"order": 1}, "weights": [0] * n, "form": form,
                "deformation": deformation, "points": points}

    edges = [
        # 998 + 2 terms at the point; and 999 + 2.
        (["z1^997 - z1"], ["z1^998 - z1"], [["1"]]),
        # (500 + 483 + 3) + (10 + 1 + 3): the zero coordinate of the second
        # point counts 1 in each monomial.  And 1 more at the first point.
        (["z1^9*z2^49", "z2^482 + z1^2"], ["z1^9*z2^49", "z2^483 + z1^2"],
         [["1", "1"], ["1/2", "0"]]),
    ]
    for accepted, refused, points in edges:
        assert problem_from_dict(problem(accepted, points)).points is not None
        spec = problem(refused, points)
        with pytest.raises(InputError, match="more than 1000 terms"):
            problem_from_dict(spec)
        path = write_json(tmp_path, spec, "limit.json")
        for argv in (("index",), ("verify", "--suite", "conservation")):
            code, out = run(capsys, *argv, "--input", path)
            assert code == 2 and json.loads(out)["error"] == "Input"


def test_usage_errors_and_help(capsys):
    assert main(["index"]) == 2
    capsys.readouterr()
    assert main(["verify", "--suite", "nonsense"]) == 2
    capsys.readouterr()
    assert main(["--definitely-not-a-flag"]) == 2
    capsys.readouterr()
    with_help = main(["--help"])
    capsys.readouterr()
    assert with_help == 0


def test_verify_suites_pass(capsys):
    for suite in ("coincidence", "sebastiani-thom"):
        code, out = run(capsys, "verify", "--suite", suite, "--cases", "6")
        assert code == 0, out
        doc = json.loads(out)
        assert doc["suite"] == suite
        assert doc["overall"] == "pass"
        assert all(case["pass"] for case in doc["cases"])
    for suite in ("conservation", "rings"):
        code, out = run(capsys, "verify", "--suite", suite)
        assert code == 0, out
        assert json.loads(out)["overall"] == "pass"


def test_verify_is_deterministic(capsys):
    first = run(capsys, "verify", "--suite", "coincidence", "--cases", "6")
    second = run(capsys, "verify", "--suite", "coincidence", "--cases", "6")
    assert first == second
    shifted = run(
        capsys, "verify", "--suite", "coincidence", "--cases", "6", "--seed", "1"
    )
    assert shifted[0] == 0 and shifted[1] != first[1]


def test_verify_extra_input_case(tmp_path, capsys):
    path = write_json(
        tmp_path,
        {"group": {"order": 6}, "weights": [1, 5], "form": ["z1^5", "z2^5"]},
    )
    code, out = run(
        capsys, "verify", "--suite", "coincidence", "--cases", "1", "--input", path
    )
    assert code == 0
    doc = json.loads(out)
    assert any(case["case_id"].startswith("input-") for case in doc["cases"])


def test_verify_honest_failure(tmp_path, capsys):
    # a pointwise conservation claim listing no orbits cannot balance
    path = write_json(
        tmp_path,
        {
            "group": {"order": 2},
            "weights": [1],
            "form": ["z1^3"],
            "deformation": ["z1^3 - z1"],
            "points": [],
        },
    )
    code, out = run(capsys, "verify", "--suite", "conservation", "--input", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["overall"] == "fail"
    failing = [case for case in doc["cases"] if not case["pass"]]
    assert [case["case_id"] for case in failing] == ["input-000"]


def test_verify_conservation_input_needs_deformation(tmp_path, capsys):
    path = write_json(tmp_path, CUBIC)
    code, out = run(capsys, "verify", "--suite", "conservation", "--input", path)
    assert code == 2
    assert json.loads(out)["error"] == "Input"


def test_verify_refuses_unused_flags(tmp_path, capsys):
    path = write_json(tmp_path, CUBIC)
    for argv in (
        ["--suite", "rings", "--input", path],
        ["--suite", "sebastiani-thom", "--input", path],
        ["--suite", "coincidence", "--cases", "-3"],
        ["--suite", "rings", "--seed", "5", "--cases", "7"],
        ["--suite", "rings", "--seed", "0"],
        ["--suite", "conservation", "--cases", "50"],
        ["--suite", "conservation", "--seed", "1"],
    ):
        code, out = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert json.loads(out)["error"] == "Input"


def test_verify_computes_one_report_per_generated_form(monkeypatch):
    calls = []

    def counting_index_report(form, action):
        calls.append(form)
        return index_report(form, action)

    monkeypatch.setattr("eqidx.cli.index_report", counting_index_report)
    # 15 power-family and 15 hand cases; the generated forms bring their reports
    assert run_verify("coincidence", 0, 5, None)[1]
    assert len(calls) == 30
    calls.clear()
    # only each direct sum needs a report of its own
    assert run_verify("sebastiani-thom", 0, 4, None)[1]
    assert len(calls) == 4


def test_verify_report_bytes_are_pinned(capsys):
    # a change in the generator's draw order or in any report field shows here
    for argv, digest in (
        (
            ["--suite", "coincidence", "--seed", "0", "--cases", "50"],
            "f9f3085d7f6e09a5639b949b45ed647f39b4498b1b42738ca4442bfadef58060",
        ),
        (
            ["--suite", "sebastiani-thom", "--seed", "0"],
            "47c615315a09b4e7c5c7e7c21267e4f9bfc41d093680635e74de2828a699fe37",
        ),
        (
            # the pointwise families shift the form, which runs Polynomial.shift
            ["--suite", "conservation"],
            "808890f2f97edd85b5d11775ec8f6c1cd43e8ebf387244739c00d12ce42cbbc8",
        ),
        (
            ["--suite", "rings"],
            "c5fb40fc33ebdb9757a4ad72424af146746008b8beb4a7cb0378ab2bd312e6df",
        ),
    ):
        code, out = run(capsys, "verify", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv


def test_number_digit_limit(tmp_path, capsys):
    # A number in a problem file may have at most 4,300 digits in its
    # numerator and in its denominator, as in a polynomial: a JSON integer
    # past that is refused before it is converted, and a point string before
    # Fraction computes its exponent.  Exit 2 under index as under verify.
    def text(point):
        # json.dumps cannot write a 4,301-digit int on every Python
        return ('{"group": {"order": 1}, "weights": [0], "form": ["z1"], '
                f'"deformation": ["z1"], "points": [[{point}]]}}')

    accepted = ["9" * 4300, '"1e4299"', f'"-{"9" * 4300}/7"', '"5e-4300"', '"0.5"', "7.0"]
    refused = ["9" * 4301, "-" + "9" * 4301, '"1e4300"', '"1e-4300"', '"1e5000"',
               '"1e30000000"', '"1e-30000000"', f'"{"1" * 4301}"', f'"1/{"3" * 4301}"']
    for point in accepted + refused:
        path = tmp_path / "digits.json"
        path.write_text(text(point), encoding="utf-8")
        for argv in (("index",), ("verify", "--suite", "conservation")):
            start = time.perf_counter()
            code, out = run(capsys, *argv, "--input", str(path))
            assert time.perf_counter() - start < 5, point[:20]
            if point in accepted:
                assert code == 0, (point[:20], out)
            else:
                assert code == 2 and json.loads(out)["error"] == "Input", point[:20]
                assert "4300 digits" in json.loads(out)["detail"]

    # The same edges through problem_from_dict, for strings and ints.
    def problem(point):
        return {"group": {"order": 1}, "weights": [0], "form": ["z1"], "points": [[point]]}

    assert problem_from_dict(problem("1e4299")).points == ((Fraction(10**4299),),)
    assert problem_from_dict(problem(10**4300 - 1)).points == ((Fraction(10**4300 - 1),),)
    assert problem_from_dict(problem("5e-4300")).points == ((Fraction(1, 2 * 10**4299),),)
    for point in ("1e4300", "1e-4300", "1e30000000", 10**4300, -(10**4300)):
        with pytest.raises(InputError, match="longer than 4300 digits"):
            problem_from_dict(problem(point))
    # A JSON integer past the limit anywhere in the file, even as a weight.
    path = tmp_path / "weight.json"
    path.write_text('{"group": {"order": 1}, "weights": [%s], "form": ["z1"]}' % ("1" * 5000))
    code, out = run(capsys, "index", "--input", str(path))
    assert code == 2 and json.loads(out)["error"] == "Input"


def test_point_coordinates_keep_their_values():
    # Every form a coordinate could take within the limit reads as Fraction reads it.
    for point in ("3", "-3", "+3", " 3 ", "1/2", "-3/4", "12/18", "1.5", ".5", "5.",
                  "-0.25", "1e5", "1E-3", "1.5e+2", "2.50e-1", "000123", 3, -4, 7.0, 1e300):
        spec = {"group": {"order": 1}, "weights": [0], "form": ["z1"], "points": [[point]]}
        expected = Fraction(int(point)) if isinstance(point, float) else Fraction(point)
        assert problem_from_dict(spec).points == ((expected,),), point


def test_point_shift_digit_limit(tmp_path, capsys):
    # Shifting to a point raises each nonzero coordinate c_i to the exponents
    # e_i of every monomial; as for a one-term power in the parser, a
    # monomial where sum(e_i * (b_i - 1)) reaches 14,285 bits, b_i the bits of
    # the larger of |numerator| and denominator of c_i, is refused: exit 2
    # under index as under verify, before any shift.
    def problem(e, a):
        return {"group": {"order": 1}, "weights": [0], "form": [f"z1^{e}"],
                "deformation": [f"z1^{e} - {a}*z1^{e - 1}"], "points": [[str(a)]]}

    def sevens(digits):
        return int("7" * digits)

    edges = [
        # (b - 1) * e: 46 * 300 = 13,800 against 49 * 300 = 14,700
        (problem(300, sevens(14)), problem(300, sevens(15))),
        # 331 * 43 = 14,233 against 331 * 44 = 14,564
        (problem(43, sevens(100)), problem(44, sevens(100))),
        (problem(14, sevens(300)), problem(15, sevens(300))),
        (problem(4, sevens(1000)), problem(5, sevens(1000))),
        (problem(43, Fraction(1, sevens(100))), problem(44, Fraction(1, sevens(100)))),
    ]
    for accepted, refused in edges:
        assert problem_from_dict(accepted).points is not None
        with pytest.raises(InputError, match="past 4300 digits"):
            problem_from_dict(refused)
    # The coordinates of a point add up: 30 * 238 + 30 * 238 = 14,280
    # against 30 * 238 + 30 * 239 = 14,310, in 961 + 3 terms.
    two = {"group": {"order": 1}, "weights": [0, 0], "form": ["z1^2", "z2^2"],
           "deformation": ["z1^30*z2^30", "z2^2"], "points": [[str(2**238), str(2**238)]]}
    assert problem_from_dict(two).points is not None
    two["points"] = [[str(2**238), str(2**239)]]
    with pytest.raises(InputError, match="past 4300 digits"):
        problem_from_dict(two)
    for accepted, refused in edges[:2]:
        for spec, expected in ((accepted, 0), (refused, 2)):
            path = write_json(tmp_path, spec, "shift.json")
            for argv in (("index",), ("verify", "--suite", "conservation")):
                assert run(capsys, *argv, "--input", path)[0] == expected


def test_index_and_input_report_bytes_are_pinned(tmp_path, capsys):
    # The benchmark's hard ideals through eqidx index (direct Mora wins
    # mu=93, the lift mu=96 and mu=89), the coincidence suite at seed 149
    # (which races the mu=96 and mu=89 ideals), and verify --input on the
    # README example and on the bundled conservation family-001.  Each
    # problem is written as its text, and each report must keep its bytes.
    problems = {
        "mu93": '{"group": {"order": 1}, "weights": [0, 0, 0], "form": ["-3/2*z1^5 + 2*z1^2*z2*z3^2", "3*z2^5 - 3/2*z1^2*z2", "3*z1^3*z2*z3 - 2*z3^5 + z2^2*z3"]}',
        "mu96": '{"group": {"order": 1}, "weights": [0, 0, 0], "form": ["3*z1^4 + z1^3*z2 + 3*z2^3*z3", "-z2^4", "-3/2*z3^6 + 1/2*z2*z3^3 + 2*z1^3"]}',
        "mu89": '{"group": {"order": 3}, "weights": [2, 2, 1], "form": ["1/2*z1^5 + 2*z1^3*z2^2", "-z2^5 - 2*z1*z3^2", "-3/2*z3^5 - 2*z2^4 - 2*z2"]}',
        "readme": '{"group": {"order": 2}, "weights": [1], "form": ["z1^3"]}',
        "family": '{"group": {"order": 2}, "weights": [1, 0], "form": ["z1^3", "z2^3"], "deformation": ["z1^3 - z1", "z2^3 - z2"], "points": [["0", "1"], ["0", "-1"], ["1", "0"], ["1", "1"], ["1", "-1"]]}',
    }
    paths = {}
    for name, text in problems.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text + "\n", encoding="utf-8")
    for argv, digest in (
        (["verify", "--suite", "coincidence", "--seed", "149", "--cases", "50"],
         "aa1eec6e2374c979373362bfff9e54e36c2d829bebea16b13866e478ab55271b"),
        (["index", "--input", paths["mu93"]],
         "f2dc8f1ea9eef80f3d3ad19da8c2b7efc8ee2145469d0d6f94701423ac20b6ce"),
        (["index", "--input", paths["mu96"]],
         "27b2c40842cb2540970c86b325c064ef02857903be683ac2f49e9a2ec46d377a"),
        (["index", "--input", paths["mu89"]],
         "5542e7729870c4a168749bf548b720e901ab64fffc0e4ac15b2be2933bfef3f7"),
        (["verify", "--suite", "coincidence", "--cases", "0", "--input", paths["readme"]],
         "b5242955647fc7759441140bd0a640b658cfe47fc38209e06b805543726bd703"),
        (["verify", "--suite", "conservation", "--input", paths["family"]],
         "f26a644e372e5aea1d1bf2f23c37e68069a3037325a53b356b13deba444220c3"),
    ):
        code, out = run(capsys, *map(str, argv))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv
