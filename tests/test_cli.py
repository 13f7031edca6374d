import json
from fractions import Fraction

import pytest

from refartin.cli import main
from refartin.cyclotomic import parse_value, from_rational
from refartin.ramification import herbrand_psi


QUAD_JOB = {
    "version": 1,
    "ramification": {
        "group": {"cyclic": 2},
        "filtration": [[0, 1], [0, 1], [0, 1]],
        "p": 2,
    },
    "reps": {"chi": {"values": ["1", "-1"]}},
}

TAME4_JOB = {
    "version": 1,
    "ramification": {
        "group": {"cyclic": 4},
        "filtration": [[0, 1, 2, 3]],
        "p": 7,
        "tame": {"generator": 1, "exponent": 1},
    },
    "reps": {"chi1": {"values": [{"n": 4, "terms": [[0, "1"]]},
                                 {"n": 4, "terms": [[1, "1"]]},
                                 {"n": 4, "terms": [[2, "1"]]},
                                 {"n": 4, "terms": [[3, "1"]]}]}},
}

QUAD_ORDER = {"p": 2, "f": [-2, 0, 1], "galois": [[0, 1], [0, -1]],
              "module": [[[1]], [[-1]]]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# -- validate -------------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "quad.json", QUAD_JOB)
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_invariant_violation(tmp_path, capsys):
    bad = json.loads(json.dumps(QUAD_JOB))
    bad["ramification"]["group"] = {"cyclic": 6}
    bad["ramification"]["filtration"] = [[0, 1, 2, 3, 4, 5], [0, 2, 4]]
    bad["ramification"]["tame"] = {"generator": 1, "exponent": 1}
    path = write(tmp_path, "bad.json", bad)
    assert main(["validate", path]) == 1
    assert "not a power of p" in capsys.readouterr().err


def test_validate_unknown_version(tmp_path, capsys):
    bad = dict(QUAD_JOB, version=99)
    path = write(tmp_path, "v99.json", bad)
    assert main(["validate", path]) == 2
    assert "version" in capsys.readouterr().err


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert ":" in err  # line/column location


# -- compute --------------------------------------------------------------------


def test_compute_conductor_quad(tmp_path, capsys):
    path = write(tmp_path, "quad.json", QUAD_JOB)
    assert main(["compute", path, "conductor", "chi"]) == 0
    assert capsys.readouterr().out.strip() == "3/2"


def test_compute_bar_tame4(tmp_path, capsys):
    path = write(tmp_path, "t4.json", TAME4_JOB)
    assert main(["compute", path, "bar"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("class 0:")
    v0 = parse_value(json.loads(lines[0].split(": ", 1)[1]))
    assert v0 == from_rational(Fraction(3, 2))


def test_compute_herbrand(tmp_path, capsys):
    path = write(tmp_path, "quad.json", QUAD_JOB)
    assert main(["compute", path, "herbrand", "psi", "5/2"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["compute", path, "herbrand", "phi", "3"]) == 0
    assert capsys.readouterr().out.strip() == "5/2"


def test_compute_disc(tmp_path, capsys):
    path = write(tmp_path, "quad.json", QUAD_JOB)
    assert main(["compute", path, "disc", "0"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_compute_strict_rational_exit_code(tmp_path, capsys):
    job = json.loads(json.dumps(TAME4_JOB))
    job["ramification"]["p"] = 3  # chi1 is not sigma_3-stable, pairing irrational
    path = write(tmp_path, "t4p3.json", job)
    assert main(["compute", path, "conductor", "chi1", "--strict-rational"]) == 3


def test_compute_conductor_with_p_average_matches(tmp_path, capsys):
    path = write(tmp_path, "quad.json", QUAD_JOB)
    main(["compute", path, "conductor", "chi"])
    plain = capsys.readouterr().out
    main(["compute", path, "conductor", "chi", "--p-average"])
    assert capsys.readouterr().out == plain


def test_compute_missing_rep(tmp_path, capsys):
    path = write(tmp_path, "quad.json", QUAD_JOB)
    assert main(["compute", path, "conductor", "nosuch"]) == 2


def test_compute_artin_conductor(tmp_path, capsys):
    path = write(tmp_path, "quad.json", QUAD_JOB)
    assert main(["compute", path, "artin-conductor", "chi"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_compute_bar_avg(tmp_path, capsys):
    path = write(tmp_path, "t4.json", TAME4_JOB)
    assert main(["compute", path, "bar-avg"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4


def test_perm_group_job(tmp_path, capsys):
    job = {
        "version": 1,
        "ramification": {
            "group": {"perm": [[[1, 2]], [[1, 2, 3]]]},
            # lexicographic element order puts the 3-cycles at indices 3, 4
            "filtration": [[0, 3, 4]],
            "p": 2,
            "tame": {"generator": 3, "exponent": 1},
        },
    }
    path = write(tmp_path, "s3.json", job)
    rcode = main(["validate", path])
    out, err = capsys.readouterr()
    assert rcode == 0, err
    assert main(["verify", path]) == 0


def test_perm_generator_with_overlapping_cycles_is_rejected(tmp_path, capsys):
    job = dict(QUAD_JOB, ramification={"group": {"perm": [[[3, 1], [1, 2]]]},
                                       "filtration": [[0]], "p": 2})
    path = write(tmp_path, "overlap.json", job)
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "not disjoint" in err and "Traceback" not in err


def test_outputs_reparse_and_are_deterministic(tmp_path, capsys):
    path = write(tmp_path, "t4.json", TAME4_JOB)
    main(["compute", path, "bar", "--format", "json"])
    out1 = capsys.readouterr().out
    main(["compute", path, "bar", "--format", "json"])
    out2 = capsys.readouterr().out
    assert out1 == out2
    values = [parse_value(v) for v in json.loads(out1)["values"]]
    assert values[1] is not None
    # round-trip: printed canonical encodings parse back to equal values
    for v in values:
        assert parse_value(json.loads(json.dumps(v.encode()))) == v


# -- verify ---------------------------------------------------------------------


def test_verify_quad(tmp_path, capsys):
    path = write(tmp_path, "quad.json", QUAD_JOB)
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all(rec["passed"] for rec in records)
    assert any(rec["name"] == "bisection" for rec in records)


def test_verify_tame12(tmp_path, capsys):
    job = {
        "version": 1,
        "ramification": {
            "group": {"cyclic": 12},
            "filtration": [list(range(12))],
            "p": 7,
            "tame": {"generator": 1, "exponent": 1},
        },
    }
    path = write(tmp_path, "t12.json", job)
    assert main(["verify", path]) == 0


def test_verify_corrupted_tame_exponent(tmp_path, capsys):
    job = json.loads(json.dumps(TAME4_JOB))
    job["ramification"]["tame"]["exponent"] = 2  # not injective modulo 4
    path = write(tmp_path, "corrupt.json", job)
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out
    rec = json.loads(out.strip().splitlines()[0])
    assert rec["name"] == "admissibility" and rec["binding"] and not rec["passed"]


def test_verify_advisory_flag(tmp_path, capsys):
    job = {
        "version": 1,
        "ramification": {
            "group": {"cyclic": 6},
            "filtration": [[0, 1, 2, 3, 4, 5], [0, 3], [0, 3]],
            "p": 2,
            "tame": {"generator": 1, "exponent": 1},
        },
    }
    path = write(tmp_path, "abstract.json", job)
    rcode = main(["verify", path, "--advisory"])
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert rcode == 0  # binding rows pass; pathological quotient is advisory
    assert any(not rec["binding"] and not rec["passed"] for rec in records)
    assert all(rec["passed"] for rec in records if rec["binding"])


# -- oracle ---------------------------------------------------------------------


def test_oracle_tame(capsys):
    assert main(["oracle", "tame", "5", "2"]) == 0
    assert capsys.readouterr().out.strip() == "3/5"


def test_oracle_monogenic(tmp_path, capsys):
    path = write(tmp_path, "quad_order.json", QUAD_ORDER)
    assert main(["oracle", "monogenic", path, "--module", "regular"]) == 0
    assert capsys.readouterr().out.strip() == "3/2"
    assert main(["oracle", "monogenic", path]) == 0
    assert capsys.readouterr().out.strip() == "1/2"  # file module: the sign character


def test_oracle_derive_fixture_round_trips(tmp_path, capsys):
    src = write(tmp_path, "quad_order.json", QUAD_ORDER)
    out = str(tmp_path / "derived.json")
    assert main(["oracle", "derive-fixture", src, "-o", out]) == 0
    assert main(["validate", out]) == 0
    capsys.readouterr()
    assert main(["verify", out]) == 0


def test_oracle_derive_fixture_with_tame_part(tmp_path, capsys):
    order = {"p": 3, "f": [3, 3, 1], "galois": [[0, 1], [-3, -1]]}
    src = write(tmp_path, "z3.json", order)
    assert main(["oracle", "derive-fixture", src]) == 0
    job = json.loads(capsys.readouterr().out)
    assert job["ramification"]["tame"] == {"generator": 1, "exponent": 1}
    dst = tmp_path / "z3_job.json"
    dst.write_text(json.dumps(job))
    assert main(["validate", str(dst)]) == 0


def test_oracle_derive_fixture_at_a_large_prime(tmp_path, capsys):
    """The primes above p are found without trying every residue below p."""
    p = 10**9 + 7
    src = write(tmp_path, "big_p.json", {"p": p, "f": [-p, 0, 1], "galois": [[0, 1], [0, -1]]})
    out = tmp_path / "derived.json"
    assert main(["oracle", "derive-fixture", src, "-o", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    assert json.loads(out.read_text())["ramification"]["p"] == p


def test_oracle_errors(tmp_path, capsys):
    assert main(["oracle", "tame", "5"]) == 2
    for args in (["x", "1"], ["3", "x"], ["5", "2.0"]):
        capsys.readouterr()
        assert main(["oracle", "tame", *args]) == 2
        assert capsys.readouterr().err.startswith("error: oracle tame takes integers")
    bad = write(tmp_path, "bad_order.json", {"p": 2, "f": [-3, 0, 1], "galois": [[0, 1], [0, -1]]})
    assert main(["oracle", "monogenic", bad, "--module", "regular"]) == 3


@pytest.mark.parametrize(
    "args, limit",
    [
        (["0", "1"], "between 1 and 200, not 0"),
        (["-3", "1"], "between 1 and 200, not -3"),
        (["201", "1"], "between 1 and 200, not 201"),
        ([str(10**8), "1"], f"between 1 and 200, not {10**8}"),
        (["5"] + ["1"] * 9, "at most 8 exponents, not 9"),
    ],
)
def test_oracle_tame_admission_limits(monkeypatch, capsys, args, limit):
    import refartin.oracle as oracle

    def never(n, exponents):
        raise AssertionError("the oracle ran on an inadmissible input")

    monkeypatch.setattr(oracle, "oracle_tame_clin", never)
    assert main(["oracle", "tame", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: oracle tame") and limit in err


def test_oracle_tame_admits_the_limits(monkeypatch, capsys):
    import refartin.oracle as oracle

    calls = []
    monkeypatch.setattr(oracle, "oracle_tame_clin", lambda n, exps: calls.append((n, exps)) or 0)
    assert main(["oracle", "tame", "200", "1"]) == 0
    assert main(["oracle", "tame", "1", *["0"] * 8]) == 0
    assert calls == [(200, [1]), (1, [0] * 8)]


def test_rep_value_count_mismatch(tmp_path, capsys):
    job = json.loads(json.dumps(QUAD_JOB))
    job["reps"]["chi"]["values"] = ["1", "-1", "1"]
    path = write(tmp_path, "badrep.json", job)
    assert main(["compute", path, "conductor", "chi"]) == 2
    assert "conjugacy class" in capsys.readouterr().err


def test_malformed_value_term(tmp_path, capsys):
    job = json.loads(json.dumps(QUAD_JOB))
    job["reps"]["chi"]["values"] = [{"n": 0, "terms": []}, "-1"]
    path = write(tmp_path, "badval.json", job)
    assert main(["compute", path, "conductor", "chi"]) == 2



@pytest.mark.parametrize("command", ["validate", "compute", "verify", "oracle"])
def test_non_utf8_file_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "job.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    argv = {
        "validate": ["validate", str(path)],
        "compute": ["compute", str(path), "artin"],
        "verify": ["verify", str(path)],
        "oracle": ["oracle", "monogenic", str(path)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err


@pytest.mark.parametrize("command", ["monogenic", "derive-fixture"])
def test_order_file_that_is_not_an_object_is_an_input_error(tmp_path, capsys, command):
    path = write(tmp_path, "order.json", [1, 2])
    assert main(["oracle", command, path]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "field, value, path",
    [
        ("p", [2], "oracle.p"),
        ("p", True, "oracle.p"),
        ("f", [-2, "0", 1], "oracle.f[1]"),
        ("galois", 5, "oracle.galois"),
        ("galois", [[0, 1], 5], "oracle.galois[1]"),
        ("module", [[1], [-1]], "oracle.module[0][0]"),
    ],
)
@pytest.mark.parametrize("command", ["monogenic", "derive-fixture"])
def test_wrongly_typed_order_field_is_an_input_error(tmp_path, capsys, command, field, value,
                                                     path):
    order = dict(QUAD_ORDER, **{field: value})
    assert main(["oracle", command, write(tmp_path, "order.json", {"oracle": order})]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} must be an ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "compute", "verify"])
def test_tame_that_is_not_an_object_is_an_input_error(tmp_path, capsys, command):
    job = json.loads(json.dumps(TAME4_JOB))
    job["ramification"]["tame"] = 5
    path = write(tmp_path, "tame5.json", job)
    argv = {
        "validate": ["validate", path],
        "compute": ["compute", path, "bar"],
        "verify": ["verify", path],
    }[command]
    assert main(argv) == 2
    assert "'tame' must be an object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, code",
    [("validate", 1), ("compute", 2), ("verify", 1), ("disc", 2),
     ("validate-negative", 1), ("disc-negative", 2)],
)
def test_subgroup_member_outside_the_group(tmp_path, capsys, command, code):
    command, _, negative = command.partition("-")
    member = -1 if negative else 99
    job = json.loads(json.dumps(QUAD_JOB))
    if command != "disc":
        job["ramification"]["filtration"] = [[0, 1], [0, member]]
    path = write(tmp_path, "member.json", job)
    argv = {
        "validate": ["validate", path],
        "compute": ["compute", path, "bar"],
        "verify": ["verify", path],
        "disc": ["compute", path, "disc", f"0,{-1 if negative else 5}"],
    }[command]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "is not an element of a group of order 2" in captured.out + captured.err
    assert "Traceback" not in captured.err


MALFORMED_VALUES = {
    "no-n": ({"terms": []}, "[0].n must be an integer, not null"),
    "null-n": ({"n": None}, "[0].n must be an integer, not null"),
    "list-n": ({"n": [3]}, "[0].n must be an integer, not [3]"),
    "terms": ({"n": 3, "terms": 5}, "[0].terms must be an array of [k, c] pairs, not 5"),
    "short-term": ({"n": 3, "terms": [[1]]}, "[0].terms must be an array of [k, c] pairs"),
    "null-coefficient": ({"n": 3, "terms": [[1, None]]},
                         "[0].terms[0][1] must be a string or an integer, not null"),
    "float-exponent": ({"n": 3, "terms": [[1.5, 1]]},
                       "[0].terms[0][0] must be an integer, not 1.5"),
    "boolean": (True, "[0] must be a string or an integer, not true"),
}


@pytest.mark.parametrize("case", MALFORMED_VALUES)
def test_malformed_rep_value_is_an_input_error(tmp_path, capsys, case):
    value, message = MALFORMED_VALUES[case]
    job = json.loads(json.dumps(QUAD_JOB))
    job["reps"]["chi"]["values"][0] = value
    path = write(tmp_path, "value.json", job)
    assert main(["compute", path, "conductor", "chi"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: reps.chi.values{message}")
    assert "Traceback" not in err


def test_rep_that_is_not_an_object_is_an_input_error(tmp_path, capsys):
    job = json.loads(json.dumps(QUAD_JOB))
    job["reps"] = {"c": [1]}
    path = write(tmp_path, "rep_list.json", job)
    assert main(["compute", path, "conductor", "c"]) == 2
    assert "representation 'c' has no 'values' array" in capsys.readouterr().err


WRONGLY_TYPED = {
    "options": (["options"], 5, "options"),
    "filtration-member": (["ramification", "filtration"], [[0, "x"]],
                          "ramification.filtration[0][1]"),
    "filtration": (["ramification", "filtration"], 5, "ramification.filtration"),
    "perm": (["ramification", "group"], {"perm": 5}, "ramification.group.perm"),
    "abelian": (["ramification", "group"], {"abelian": 5}, "ramification.group.abelian"),
    "p": (["ramification", "p"], [2], "ramification.p"),
    "tame-generator": (["ramification", "tame", "generator"], [1],
                       "ramification.tame.generator"),
}


@pytest.mark.parametrize(
    "command, case",
    [("compute", case) for case in WRONGLY_TYPED]
    + [(command, case) for command in ("validate", "verify")
       for case in WRONGLY_TYPED if case != "options"],  # only compute reads options
)
def test_wrongly_typed_field_is_an_input_error(tmp_path, capsys, command, case):
    keys, value, field = WRONGLY_TYPED[case]
    job = json.loads(json.dumps(TAME4_JOB))
    target = job
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = write(tmp_path, "typed.json", job)
    argv = {
        "validate": ["validate", path],
        "compute": ["compute", path, "bar"],
        "verify": ["verify", path],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be an ")
    assert "Traceback" not in err


PSI_13 = 3_317_044_064_679_887_385_961_981


@pytest.mark.parametrize(
    "argv, field",
    [
        (["validate", "job"], "ramification.p"),
        (["verify", "job"], "ramification.p"),
        (["compute", "job", "bar"], "ramification.p"),
        (["compute", "job", "conductor", "chi"], "reps.chi.values[1].n"),
        (["oracle", "monogenic", "order"], "oracle.p"),
        (["oracle", "derive-fixture", "order"], "oracle.p"),
    ],
)
def test_numbers_past_their_limits_are_input_errors(tmp_path, capsys, argv, field):
    job = json.loads(json.dumps(QUAD_JOB))
    if field == "ramification.p":
        job["ramification"]["p"] = PSI_13
    job["reps"]["chi"]["values"][1] = {"n": 401, "terms": [[1, "1"]]}
    files = {"job": write(tmp_path, "job.json", job),
             "order": write(tmp_path, "order.json", dict(QUAD_ORDER, p=PSI_13))}
    assert main([files.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    limit = "between 1 and 400, not 401" if field.startswith("reps") else f"below the primality"
    assert err.startswith(f"error: {field} must be {limit}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "order, values, n",
    [
        (2, [{"n": 400, "terms": [[1, "1"]]}, {"n": 399, "terms": [[1, "1"]]}], 159600),
        (199, [{"n": 400, "terms": [[1, "1"]]}] + ["1"] * 198, 79600),
    ],
    ids=["values-400-399", "tame-199-value-400"],
)
@pytest.mark.parametrize("command", ["conductor", "artin-conductor"])
def test_rep_pairing_conductor_limit_is_an_input_error(tmp_path, monkeypatch, capsys, order,
                                                        values, n, command):
    """Each value conductor is admissible, but the pairing would reduce at their
    lcm with the tame order; the rep is refused before any pairing runs."""
    import refartin.grouptheory as gt

    def never(*args):
        raise AssertionError("a pairing ran past the conductor limit")

    monkeypatch.setattr(gt, "hermitian_sum", never)
    job = {"version": 1,
           "ramification": {"group": {"cyclic": order}, "filtration": [list(range(order))],
                            "p": 3, "tame": {"generator": 1, "exponent": 1}},
           "reps": {"chi": {"values": values}}}
    assert main(["compute", write(tmp_path, "job.json", job), command, "chi"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: reps.chi pairs at conductor {n},")
    assert "past the limit 400" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "spec",
    [{"cyclic": 201}, {"abelian": [3, 67]}, {"table": [[0]] * 201},
     {"perm": [[list(range(1, 202))]]}],  # a 201-cycle
    ids=["cyclic", "abelian", "table", "perm"],
)
@pytest.mark.parametrize("command", ["validate", "verify"])
def test_group_order_limit_is_an_input_error(tmp_path, monkeypatch, capsys, spec, command):
    import refartin.grouptheory as gt

    def never(*args):
        raise AssertionError("a group table was built for an inadmissible spec")

    for builder in ("cyclic_group", "abelian_group", "group_from_table", "_group"):
        monkeypatch.setattr(gt, builder, never)
    job = dict(QUAD_JOB, ramification={"group": spec, "filtration": [[0]], "p": 2})
    assert main([command, write(tmp_path, "big.json", job)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "past the limit 200" in err


@pytest.mark.parametrize("order, code", [(101, 2), (100, 0)])
def test_verify_tame_order_limit(tmp_path, monkeypatch, capsys, order, code):
    """verify reads bar_n up to 4n, so a tame order past 400 / 4 is refused
    before the suite runs; 100 itself is admitted."""
    import refartin.cli as cli
    from refartin.conductor import ConductorReport

    def suite(data, advisory=False):
        assert data.n == order <= 100, "verify_suite ran past the tame order limit"
        return ConductorReport(())

    monkeypatch.setattr(cli, "verify_suite", suite)
    job = {"version": 1,
           "ramification": {"group": {"cyclic": order}, "filtration": [list(range(order))],
                            "p": 3, "tame": {"generator": 1, "exponent": 1}}}
    assert main(["verify", write(tmp_path, "tame.json", job)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ramification.filtration gives tame order 101;")
        assert "up to 100" in err and "limit 400" in err and "Traceback" not in err


def test_subgroup_lattice_limit_is_an_input_error(tmp_path, monkeypatch, capsys):
    """(Z/2)^3 has 16 subgroups; with the limit patched to 10, verify stops
    enumerating once it passes 10 and exits 2."""
    import refartin.grouptheory as gt

    monkeypatch.setattr(gt, "MAX_SUBGROUPS", 10)
    job = {"version": 1,
           "ramification": {"group": {"abelian": [2, 2, 2]}, "filtration": [list(range(8))] * 2,
                            "p": 2}}
    assert main(["verify", write(tmp_path, "lattice.json", job)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the subgroup lattice of a group of order 8")
    assert "past the limit 10" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "value, rest, field",
    [
        (None, ["herbrand", "psi", "1e20000000"], "herbrand argument"),
        ("1e20000000", ["conductor", "chi"], "reps.chi.values[1]"),
        ({"n": 4, "terms": [[1, "1e20000000"]]}, ["conductor", "chi"],
         "reps.chi.values[1].terms[0][1]"),
        (None, ["herbrand", "phi", "1/1e5"], "herbrand argument"),  # not a literal at all
        (None, ["herbrand", "psi", "1" * 4001], "herbrand argument"),
        (None, ["herbrand", "psi", "1/" + "7" * 4001], "herbrand argument"),
        (None, ["herbrand", "psi", "1.5E-3999"], "herbrand argument"),
        (None, ["herbrand", "psi", "1e" + "9" * 5000], "herbrand argument"),
    ],
    ids=["herbrand", "value", "term", "invalid", "numerator", "denominator", "decimal",
         "long-exponent"],
)
def test_rational_literal_digit_limit(tmp_path, capsys, value, rest, field):
    """Fraction("1e20000000") alone takes 39 s on a 2-vCPU Xeon VM; every
    rational literal from outside is bounded before it is parsed, and refused
    in well under a second with its field named."""
    import time

    job = json.loads(json.dumps(QUAD_JOB))
    if value is not None:
        job["reps"]["chi"]["values"][1] = value
    start = time.process_time()
    code = main(["compute", write(tmp_path, "job.json", job), *rest])
    assert time.process_time() - start < 1
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    if rest[2:] != ["1/1e5"]:
        assert err == f"error: {field} has more than 4000 digits in its numerator or denominator\n"


def test_rational_literals_at_the_digit_limit_print(tmp_path, capsys):
    """Literals at the limit are admitted, and a herbrand result a few digits
    longer than its argument still prints."""
    from refartin.cli import ramification_from_job

    path = write(tmp_path, "job.json", QUAD_JOB)
    data = ramification_from_job(QUAD_JOB)
    for arg in ["9999e3996", "2/" + "3" * 4000, "1.5e-3998"]:
        assert main(["compute", path, "herbrand", "psi", arg]) == 0
        assert Fraction(capsys.readouterr().out) == herbrand_psi(data, Fraction(arg))
    # psi(v) = 2v - 2 past v = 2 here: 4,001 digits
    assert len(str(herbrand_psi(data, Fraction("9999e3996")))) == 4001


def test_rep_literals_share_the_digit_limit(tmp_path, capsys):
    """200 values of 4,300 digits each ran past 100 s on a 2-vCPU Xeon VM,
    since the pairing multiplies their denominators; one rep's literals may
    have 4000 digits in all."""
    import time

    job = json.loads(json.dumps(QUAD_JOB))
    job["reps"]["chi"]["values"] = ["1/" + "3" * 2000, "1/" + "7" * 2001]
    start = time.process_time()
    assert main(["compute", write(tmp_path, "job.json", job), "conductor", "chi"]) == 2
    assert time.process_time() - start < 1
    err = capsys.readouterr().err
    assert err == "error: reps.chi has 4001 digits in its rational literals, past the limit 4000\n"
    job["reps"]["chi"]["values"][1] = "1/" + "7" * 2000
    assert main(["compute", write(tmp_path, "job.json", job), "conductor", "chi"]) in (0, 3)
