"""Command-line front end: validate job files, compute characters and
conductors, run the verification battery, and drive the lattice oracles.

Exit codes: 0 success; 1 a binding verification failure (``validate`` and
``verify`` count invalid ramification data as one); else the first match in
``main``'s table: 3 "computation error:" for NotRationalError, StabilityError
and OracleError, 2 "error:" for InputError, GroupOrderError, ValueError,
ZeroDivisionError and OSError.  Parsing admits group orders <= 200, value
conductors n <= 400, a rep whose value conductors and tame order have lcm
<= 400, p < psi_13, ``oracle tame`` N <= 200, <= 8 exponents, and order files
with deg f <= 12 and a module of rank <= 12.  A rational literal (a rep
value, a ``terms`` coefficient, the herbrand argument) may have at most 4000
digits on each side of its "/", its exponent counted, and one rep's literals
at most 4000 in all (``MAX_LITERAL_DIGITS``).  ``verify``
admits tame orders n <= 100, since it reads conductors up to 4n, and groups
with at most 3000 subgroups (``grouptheory.MAX_SUBGROUPS``).

Only the ``oracle`` subcommand imports :mod:`refartin.oracle` (and
``_linalg``), so a cold ``validate``, ``compute`` or ``verify`` loads neither.

Job files are JSON:

    {
      "version": 1,
      "ramification": {
        "group": {"cyclic": 6},              // or {"abelian": [...]},
                                             // {"perm": [[[1,2]],...]}, {"table": [[...]]}
        "filtration": [[0,1,2,3,4,5],[0,3]], // members of Gamma_0, Gamma_1, ...
        "p": 2,
        "tame": {"generator": 1, "exponent": 1}   // optional when n = 1
      },
      "reps": {"chi": {"values": ["1", "-1", ...]}},   // one value per class
      "oracle": {"p": 2, "f": [-2,0,1], "galois": [[0,1],[0,-1]],
                 "module": [[[1]], [[-1]]]},
      "options": {"p_average": false, "strict_rational": false}
    }

Rational values are strings like "3/2"; cyclotomic values are
{"n": N, "terms": [[k, "a/b"], ...]} meaning sum (a/b) * zeta_N^k.  All
output is exact and deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING

from .cyclotomic import PSI_13, NotRationalError, parse_value
from .grouptheory import (
    MAX_GROUP_ORDER,
    ClassFunction,
    GroupOrderError,
    build_group,
    subgroup,
)
from .ramification import (
    OracleError,
    RamificationData,
    artin_character,
    build_ramification,
    herbrand_phi,
    herbrand_psi,
    discriminant_valuation,
    refined_artin,
)
from .conductor import (
    ConductorReport,
    ReportRecord,
    StabilityError,
    artin_conductor,
    conductor,
    verify_suite,
)

if TYPE_CHECKING:
    from .oracle import MonogenicOrder

EXIT_OK = 0
EXIT_BINDING_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_COMPUTE_ERROR = 3

FORMAT_VERSION = 1

# oracle tame admission limits: the tame kernel grows steeply with N (about
# 1 s at N = 192 and 15 s at N = 384 for one exponent) and linearly with the
# number of exponents
TAME_MAX_DEGREE = 200
TAME_MAX_EXPONENTS = 8

# order file admission limit on deg f and on the module rank: the monogenic
# oracle takes a determinant of side rank * deg f, and 12 (Phi_13(x+1)) is the
# largest degree any fixture uses
ORDER_MAX_DEGREE = 12

# characters of a group of order m take values in Q(zeta_m) = Q(zeta_2m) (m odd),
# so 2 * 200 covers them; parse_value allocates a row of n and builds Phi_n
MAX_VALUE_CONDUCTOR = 2 * MAX_GROUP_ORDER

# rational literals from outside: Fraction("1e20000000") alone takes 39 s of
# CPU on a 2-vCPU Xeon VM.  300 below Python's int-to-string limit of 4300
# digits, so that results a few digits longer than their input (psi scales by
# up to 200) still print
MAX_LITERAL_DIGITS = 4000


class InputError(Exception):
    """Anything wrong with the job file itself; not a ValueError, so never a verdict."""


# ---------------------------------------------------------------------------
# job file parsing


def _read_json(path: str):
    """Parse a JSON file: an unreadable file raises OSError, a bad one InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as ex:
        raise InputError(f"{path}: not UTF-8 text: {ex.reason} at byte {ex.start}") from ex
    except json.JSONDecodeError as ex:
        raise InputError(f"{path}:{ex.lineno}:{ex.colno}: invalid JSON: {ex.msg}") from ex
    except ValueError as ex:  # the only other one json raises: int()'s digit limit
        raise InputError(f"{path}: an integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from ex
    except RecursionError as ex:
        raise InputError(f"{path}: arrays or objects nested too deeply") from ex


def load_job(path: str) -> dict:
    job = _read_json(path)
    if not isinstance(job, dict):
        raise InputError("job file must be a JSON object")
    version = job.get("version")
    if version != FORMAT_VERSION:
        raise InputError(f"unknown format version {version!r} (expected {FORMAT_VERSION})")
    return job


# array nesting depth of each group spec kind's integers
_GROUP_SPEC_DEPTH = {"cyclic": 0, "abelian": 1, "table": 2, "perm": 3}
_ORDER_DEPTH = (("p", 0), ("f", 1), ("galois", 2))


def _integers(value, depth: int, where: str):
    """``value``, checked to be integers nested ``depth`` arrays deep."""
    if depth:
        if not isinstance(value, list):
            raise InputError(f"{where} must be an array, not {json.dumps(value)}")
        for i, item in enumerate(value):
            _integers(item, depth - 1, f"{where}[{i}]")
    elif isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where} must be an integer, not {json.dumps(value)}")
    return value


def _rational(value, where: str) -> int:
    """Check that ``value`` is an integer or a string whose digits on each
    side of a "/", plus the size of its exponent, are at most
    MAX_LITERAL_DIGITS, and return that count.  ``Fraction`` scales by
    10**|exponent| before it reduces, so the count bounds its numerator and
    denominator."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise InputError(f"{where} must be a string or an integer, not {json.dumps(value)}")
    if isinstance(value, int):  # json refuses integers past the limit
        return len(str(value))
    mantissa, _, exponent = value.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "")
    digits = max(sum(c.isdigit() for c in side) for side in mantissa.split("/"))
    # Fraction refuses an exponent that is not decimal digits, and one longer
    # than the limit is past it whatever it reads
    if exponent.isdecimal():
        digits += int(exponent) if len(exponent) <= MAX_LITERAL_DIGITS else MAX_LITERAL_DIGITS + 1
    if digits > MAX_LITERAL_DIGITS:
        raise InputError(f"{where} has more than {MAX_LITERAL_DIGITS} digits "
                         "in its numerator or denominator")
    return digits


def _checked_p(value, where: str) -> int:
    """An integer residue characteristic small enough for primality to be decided."""
    if _integers(value, 0, where) >= PSI_13:
        raise InputError(f"{where} must be below the primality testing limit {PSI_13}, not {value}")
    return value


def _value(value, where: str) -> int:
    """Check that ``value`` is a rational or {"n": N, "terms": [[k, c], ...]};
    return the digits of its rational literals, as :func:`_rational` counts."""
    if not isinstance(value, dict):
        return _rational(value, where)
    n = _integers(value.get("n"), 0, f"{where}.n")
    if not 1 <= n <= MAX_VALUE_CONDUCTOR:
        raise InputError(f"{where}.n must be between 1 and {MAX_VALUE_CONDUCTOR}, not {n}")
    terms = value.get("terms", [])
    if not isinstance(terms, list) or any(not isinstance(t, list) or len(t) != 2 for t in terms):
        raise InputError(f"{where}.terms must be an array of [k, c] pairs, not {json.dumps(terms)}")
    digits = 0
    for i, (k, c) in enumerate(terms):
        _integers(k, 0, f"{where}.terms[{i}][0]")
        digits += _rational(c, f"{where}.terms[{i}][1]")
    return digits


def ramification_from_job(job: dict) -> RamificationData:
    sec = job.get("ramification")
    if not isinstance(sec, dict):
        raise InputError("job file has no 'ramification' section")
    try:
        spec = sec["group"]
        if isinstance(spec, dict) and len(spec) == 1:
            ((kind, arg),) = spec.items()
            if kind in _GROUP_SPEC_DEPTH:
                _integers(arg, _GROUP_SPEC_DEPTH[kind], f"ramification.group.{kind}")
        gamma = build_group(spec)
        filtration = _integers(sec.get("filtration", []), 2, "ramification.filtration")
        tame = None
        if sec.get("tame") is not None:
            if not isinstance(sec["tame"], dict):
                raise InputError("'tame' must be an object with 'generator' and 'exponent'")
            tame = tuple(
                _integers(sec["tame"][k], 0, f"ramification.tame.{k}")
                for k in ("generator", "exponent")
            )
        return build_ramification(gamma, filtration, _checked_p(sec["p"], "ramification.p"), tame)
    except KeyError as ex:
        raise InputError(f"ramification section is missing {ex}") from ex


def rep_from_job(job: dict, name: str, data: RamificationData) -> ClassFunction:
    reps = job.get("reps", {})
    if not isinstance(reps, dict) or name not in reps:
        raise InputError(f"no representation named {name!r} in the job file")
    rep = reps[name]
    values = rep.get("values") if isinstance(rep, dict) else None
    if not isinstance(values, list):
        raise InputError(f"representation {name!r} has no 'values' array")
    # a pairing multiplies the denominators: 200 values of 4300 digits each
    # ran past 100 s on a 2-vCPU Xeon VM, so one rep's literals share the limit
    digits = sum([_value(v, f"reps.{name}.values[{i}]") for i, v in enumerate(values)])
    if digits > MAX_LITERAL_DIGITS:
        raise InputError(f"reps.{name} has {digits} digits in its rational literals, "
                         f"past the limit {MAX_LITERAL_DIGITS}")
    vals = tuple(parse_value(v) for v in values)
    if len(vals) != len(data.gamma.classes):
        raise InputError(
            f"representation {name!r} has {len(vals)} values, "
            f"expected one per conjugacy class ({len(data.gamma.classes)})"
        )
    # the pairing with bAr reduces at this lcm, not at each value's conductor
    n = lcm(data.n, *[v.conductor for v in vals])
    if n > MAX_VALUE_CONDUCTOR:
        raise InputError(f"reps.{name} pairs at conductor {n}, the lcm of its value conductors "
                         f"and the tame order {data.n}, past the limit {MAX_VALUE_CONDUCTOR}")
    return ClassFunction(data.gamma, vals)


def oracle_from_job(obj) -> tuple[MonogenicOrder, list | None]:
    from .oracle import build_monogenic_order

    if not isinstance(obj, dict):
        raise InputError("order file must be a JSON object")
    sec = obj.get("oracle", obj)
    if not isinstance(sec, dict) or "f" not in sec:
        raise InputError("no oracle section (fields p, f, galois) found")
    try:
        fields = [_integers(sec[k], depth, f"oracle.{k}") for k, depth in _ORDER_DEPTH]
    except KeyError as ex:
        raise InputError(f"oracle section is missing {ex}") from ex
    _checked_p(fields[0], "oracle.p")
    if len(fields[1]) - 1 > ORDER_MAX_DEGREE:
        raise InputError(f"oracle.f has degree {len(fields[1]) - 1}, "
                         f"past the limit {ORDER_MAX_DEGREE}")
    module = sec.get("module")
    if module is not None:
        _integers(module, 3, "oracle.module")
        if any(len(x) > ORDER_MAX_DEGREE for m in module for x in (m, *m)):
            raise InputError(f"oracle.module has a matrix of more than "
                             f"{ORDER_MAX_DEGREE} rows or columns")
    return build_monogenic_order(*fields), module


# ---------------------------------------------------------------------------
# output helpers


def _emit_class_function(chi: ClassFunction, fmt: str, out) -> None:
    if fmt == "json":
        print(
            json.dumps(
                {"values": [v.encode() for v in chi.values]},
                sort_keys=True,
                separators=(",", ":"),
            ),
            file=out,
        )
    else:
        for i, v in enumerate(chi.values):
            print(f"class {i}: {json.dumps(v.encode(), sort_keys=True, separators=(',', ':'))}",
                  file=out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    job = load_job(args.path)
    try:
        ramification_from_job(job)
    except ValueError as ex:  # a datum that violates an invariant is the verdict
        print(f"invalid: {ex}", file=sys.stderr)
        return EXIT_BINDING_FAILURE
    print("ok")
    return EXIT_OK


def cmd_compute(args) -> int:
    job = load_job(args.path)
    what, rest = args.what, args.args
    data = ramification_from_job(job)
    options = job.get("options", {})
    if not isinstance(options, dict):
        raise InputError(f"options must be an object, not {json.dumps(options)}")
    averaged = args.p_average or bool(options.get("p_average"))
    strict = args.strict_rational or bool(options.get("strict_rational"))
    on_unstable = "error" if strict else "warn"
    if what == "artin":
        _emit_class_function(artin_character(data), args.format, sys.stdout)
    elif what in ("bar", "bar-avg"):  # bar-avg is bar --p-average
        if averaged or what == "bar-avg":
            chi = refined_artin(data, averaged=True)
        else:
            chi = refined_artin(data)
        _emit_class_function(chi, args.format, sys.stdout)
    elif what == "conductor":
        chi = rep_from_job(job, _one_arg(rest, "conductor REP"), data)
        print(conductor(data, chi, averaged=averaged, on_unstable=on_unstable))
    elif what == "artin-conductor":
        chi = rep_from_job(job, _one_arg(rest, "artin-conductor REP"), data)
        print(artin_conductor(data, chi))
    elif what == "herbrand":
        if len(rest) != 2 or rest[0] not in ("phi", "psi"):
            raise InputError("usage: compute PATH herbrand {phi|psi} RATIONAL")
        fn = herbrand_phi if rest[0] == "phi" else herbrand_psi
        _rational(rest[1], "herbrand argument")
        print(fn(data, Fraction(rest[1])))
    else:  # disc
        members = [int(x) for x in _one_arg(rest, "disc MEMBERS").split(",")]
        print(discriminant_valuation(data, subgroup(data.gamma, members)))
    return EXIT_OK


def _one_arg(rest: list[str], usage: str) -> str:
    if len(rest) != 1:
        raise InputError(f"usage: compute PATH {usage}")
    return rest[0]


def cmd_verify(args) -> int:
    job = load_job(args.path)
    try:
        data = ramification_from_job(job)
    except ValueError as ex:
        # admissibility is the zeroth binding check
        record = ReportRecord(
            "admissibility", args.path, "valid ramification data", f"error: {ex}", False, True
        )
        report = ConductorReport((record,))
    else:
        # verify_suite reads bar_n at the tame order n up to 4n
        if 4 * data.n > MAX_VALUE_CONDUCTOR:
            raise InputError(f"ramification.filtration gives tame order {data.n}; verify admits "
                             f"tame orders up to {MAX_VALUE_CONDUCTOR // 4}, a quarter of the "
                             f"limit {MAX_VALUE_CONDUCTOR}")
        report = verify_suite(data, advisory=args.advisory)
    for rec in report.records:
        print(rec.to_json())
    print(report.summary(), file=sys.stderr)
    return EXIT_OK if report.binding_ok else EXIT_BINDING_FAILURE


def cmd_oracle(args) -> int:
    from .oracle import (
        filtration_from_monogenic,
        oracle_monogenic_clin,
        oracle_tame_clin,
        regular_action,
    )

    sub = args.oracle_what
    if sub == "tame":
        if len(args.args) < 2:
            raise InputError("usage: oracle tame N I [I ...]")
        if not all(a.removeprefix("-").isdecimal() for a in args.args):
            raise InputError(f"oracle tame takes integers, not {' '.join(args.args)}")
        n, *exps = map(int, args.args)
        if not 1 <= n <= TAME_MAX_DEGREE:
            raise InputError(
                f"oracle tame degree N must be between 1 and {TAME_MAX_DEGREE}, not {n}"
            )
        if len(exps) > TAME_MAX_EXPONENTS:
            raise InputError(
                f"oracle tame takes at most {TAME_MAX_EXPONENTS} exponents, not {len(exps)}"
            )
        print(oracle_tame_clin(n, exps))
    elif sub == "monogenic":
        if len(args.args) != 1:
            raise InputError("usage: oracle monogenic ORDER.json [--module NAME]")
        order, module = oracle_from_job(_read_json(args.args[0]))
        if args.module == "regular" or (args.module is None and module is None):
            action = regular_action(order.group)
        elif args.module is None:
            action = module
        else:
            raise InputError(f"unknown module {args.module!r} (only 'regular' is named)")
        print(oracle_monogenic_clin(order, action))
    else:  # derive-fixture
        if len(args.args) != 1:
            raise InputError("usage: oracle derive-fixture ORDER.json [-o OUT]")
        order, _ = oracle_from_job(_read_json(args.args[0]))
        data = filtration_from_monogenic(order, args.prime_choice)
        text = json.dumps(_job_from_data(data), indent=2, sort_keys=True)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    return EXIT_OK


def _job_from_data(data: RamificationData) -> dict:
    sec = {
        "group": {"table": [list(row) for row in data.gamma.table]},
        "filtration": [sorted(m) for m in data.filtration],
        "p": data.p,
    }
    if data.n > 1:
        sec["tame"] = {"generator": data.tame_generator, "exponent": data.tame_exponent}
    return {"version": FORMAT_VERSION, "ramification": sec}


# ---------------------------------------------------------------------------
# driver


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="refartin",
        description="Exact refined Artin characters and base-change conductors.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a job file")
    p_val.add_argument("path")
    p_val.set_defaults(func=cmd_validate)

    p_cmp = sub.add_parser("compute", help="run one computation from a job file")
    p_cmp.add_argument("path")
    p_cmp.add_argument(
        "what",
        choices=["artin", "bar", "bar-avg", "conductor", "artin-conductor", "herbrand", "disc"],
    )
    p_cmp.add_argument("args", nargs="*")
    p_cmp.add_argument("--p-average", action="store_true")
    p_cmp.add_argument("--strict-rational", action="store_true")
    p_cmp.add_argument("--format", choices=["json", "text"], default="text")
    p_cmp.set_defaults(func=cmd_compute)

    p_ver = sub.add_parser("verify", help="replay the identity battery")
    p_ver.add_argument("path")
    p_ver.add_argument(
        "--advisory",
        action="store_true",
        help="mark extension-dependent identities advisory (for abstract data)",
    )
    p_ver.set_defaults(func=cmd_verify)

    p_orc = sub.add_parser("oracle", help="lattice-determinant oracles")
    p_orc.add_argument("oracle_what", choices=["tame", "monogenic", "derive-fixture"])
    p_orc.add_argument("args", nargs="*")
    p_orc.add_argument("--module", default=None, help="'regular' to override the file module")
    p_orc.add_argument("--prime-choice", type=int, default=0)
    p_orc.add_argument("-o", "--output", default=None)
    p_orc.set_defaults(func=cmd_oracle)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    # the exit-code table, first match winning: StabilityError and OracleError
    # are ValueErrors, so the computation row comes first
    except (NotRationalError, StabilityError, OracleError) as ex:
        print(f"computation error: {ex}", file=sys.stderr)
        return EXIT_COMPUTE_ERROR
    except (InputError, GroupOrderError, ValueError, ZeroDivisionError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
