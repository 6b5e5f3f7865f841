"""End-to-end command line behaviour: schemas, exit codes, determinism."""

import hashlib
import json
import tracemalloc

import pytest

from eqidx.cli import main, parse_report_payload, problem_from_dict, run_verify
from eqidx.errors import InputError
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
            # the pointwise families shift the form, which runs compose
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
