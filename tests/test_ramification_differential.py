"""The vertex-list Herbrand functions and the running-sum quotient filtration
against the earlier segment walks kept in ``ramification_reference.py``.

Every datum is checked on phi, psi and the upper jumps, and on
``quotient_data`` for each normal subgroup: the same filtration, tame pair
and group, or the same error.  The data are the curated fixtures, the
abstract mixed C6, a random admissible sample, and the subextension data of
every subgroup of each of these.
"""

from fractions import Fraction

import datagen
import ramification_reference as ref
from refartin.fixtures import curated_fixtures, mixed_c6_abstract
from refartin.grouptheory import all_subgroups
from refartin.ramification import (
    herbrand_phi,
    herbrand_psi,
    quotient_data,
    subgroup_data,
    upper_jumps,
)

GRID = [Fraction(x) for x in ("-2", "-3/2", "-1", "-1/2", "0", "1/7", "1/3", "1/2",
                              "2/3", "1", "3/2", "2", "7/3", "5/2", "3", "4", "5",
                              "13/2", "10", "1000000000")]


def _data():
    base = [r for _, r in curated_fixtures()] + [mixed_c6_abstract()]
    base += datagen.sample(60, seed=424242)
    out = list(base)
    for r in base:
        out += [subgroup_data(r, sub).data for sub in all_subgroups(r.gamma)]
    return out


DATA = _data()


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        result = fn(*args)
    except Exception as ex:  # noqa: BLE001 - the raised error is the outcome
        return ("raised", type(ex).__name__, str(ex))
    if hasattr(result, "filtration"):
        return (result.gamma, result.filtration, result.p,
                result.tame_generator, result.tame_exponent)
    return result


def test_herbrand_and_quotients_match_the_reference():
    for r in DATA:
        for x in GRID:
            assert outcome(herbrand_phi, r, x) == outcome(ref.herbrand_phi, r, x), (r, x)
            assert outcome(herbrand_psi, r, x) == outcome(ref.herbrand_psi, r, x), (r, x)
        assert upper_jumps(r) == ref.upper_jumps(r), r
        for nsub in datagen.all_normal_subgroups(r.gamma):
            assert outcome(quotient_data, r, nsub) == outcome(ref.quotient_data, r, nsub), (
                r, nsub)


def test_the_data_cover_deep_filtrations_and_failing_quotients():
    assert len(DATA) > 500
    assert max(len(r.filtration) for r in DATA) >= 4
    raised = [
        (r, nsub)
        for r in DATA
        for nsub in datagen.all_normal_subgroups(r.gamma)
        if outcome(ref.quotient_data, r, nsub)[0] == "raised"
    ]
    assert raised, "no quotient in the sample fails, so error outcomes go unchecked"
