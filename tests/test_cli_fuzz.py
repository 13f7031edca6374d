"""Fuzz of the CLI's error boundary: one-node mutations of curated job and
order files must end in an exit code 0-3, never in an exception.

Each example takes a curated job or order file, replaces one leaf or subtree
with a value from a pool of awkward JSON values (wrong types, numbers just
past each admission limit, a zero denominator, empty containers) and runs one
command on it through ``refartin.cli.main``.
"""

import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from refartin import fixtures
from refartin.cli import _job_from_data, main
from refartin.cyclotomic import PSI_13
from refartin.grouptheory import standard_characters

# just past the group order (200), value conductor (400) and prime limits
POOL = [None, True, False, 0, 1, -1, 2, 3, 201, 401, PSI_13, 0.5, -2.5, "1/0", [], {}]


def _job(data) -> dict:
    job = _job_from_data(data)
    reg, triv, aug = standard_characters(data.gamma)
    job["reps"] = {name: {"values": [v.encode() for v in chi.values]}
                   for name, chi in (("reg", reg), ("triv", triv), ("aug", aug))}
    job["reps"]["zeta"] = {"values": [{"n": 4, "terms": [[1, "1/2"], [3, "-1/2"]]}]
                           * len(data.gamma.classes)}
    return job


JOBS = [_job(data) for data in (fixtures.quad_sqrt2(), fixtures.tame_cyclic(4, 5),
                                fixtures.mixed_c6(), fixtures.cyclotomic_tower_data(3, 1))]
JOBS.append({
    "version": 1,
    "ramification": {"group": {"perm": [[[1, 2]], [[1, 2, 3]]]}, "filtration": [[0, 3, 4]],
                     "p": 2, "tame": {"generator": 3, "exponent": 1}},
    "reps": {"chi": {"values": ["1", "-1", "2"]}},
    "options": {"p_average": True, "strict_rational": False},
})
JOBS.append({
    "version": 1,
    "ramification": {"group": {"abelian": [2, 2]}, "filtration": [[0, 1], [0, 1]], "p": 2},
    "reps": {"chi": {"values": ["1", "-1", "1", "-1"]}},
})
ORDERS = [
    {"p": 2, "f": [-2, 0, 1], "galois": [[0, 1], [0, -1]], "module": [[[1]], [[-1]]]},
    {"oracle": {"p": 7, "f": [7, 14, 7, 1], "galois": [[0, 1], [0, 4, 1], [-7, -5, -1]]}},
    {"p": 3, "f": [3, 3, 1], "galois": [[0, 1], [-3, -1]]},
]

JOB_COMMANDS = [
    ["validate"], ["verify", "--advisory"], ["compute", "artin"], ["compute", "bar"],
    ["compute", "bar-avg"], ["compute", "conductor", "aug"], ["compute", "conductor", "chi"],
    ["compute", "artin-conductor", "reg"], ["compute", "herbrand", "psi", "1/2"],
    ["compute", "disc", "0,1"],
]
ORDER_COMMANDS = [["oracle", "monogenic"], ["oracle", "derive-fixture"]]


def _paths(node, path=()):
    """Every position in a JSON tree, the root included."""
    yield path
    if isinstance(node, list):
        node = dict(enumerate(node))
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))


def _replace(node, path, value):
    if not path:
        return value
    node = json.loads(json.dumps(node))
    target = node
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return node


@st.composite
def mutations(draw):
    is_job = draw(st.booleans())
    seed = draw(st.sampled_from(JOBS if is_job else ORDERS))
    path = draw(st.sampled_from(list(_paths(seed))))
    mutated = _replace(seed, path, draw(st.sampled_from(POOL)))
    command = draw(st.sampled_from(JOB_COMMANDS if is_job else ORDER_COMMANDS))
    return mutated, command


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(mutations())
def test_mutated_inputs_end_in_an_exit_code(tmp_path_factory, case):
    mutated, command = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(mutated))
    if command[0] == "oracle":
        argv = [*command, str(path)]
    else:
        argv = [command[0], str(path), *command[1:]]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, mutated)
