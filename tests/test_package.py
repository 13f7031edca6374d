"""The package surface: ``__all__``, the README's library example, and what
a cold CLI call or the benchmark's tracer finds loaded."""

import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import refartin
from refartin.cli import _job_from_data
from refartin.fixtures import mixed_c6

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports refartin from src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_all_lists_the_api_and_no_submodule():
    names = refartin.__all__
    assert len(set(names)) == len(names)
    values = {name: getattr(refartin, name) for name in names}
    assert not [n for n, v in values.items() if isinstance(v, types.ModuleType)]
    public = {n for n, v in vars(refartin).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public <= set(names)
    assert {"OracleError", "MonogenicOrder", "oracle_tame_clin", "regular_action"} <= set(names)
    assert refartin.OracleError is sys.modules["refartin.oracle"].OracleError
    namespace: dict = {}
    exec("from refartin import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == sorted(names)


def test_readme_library_example_runs_cold():
    """The ```python block under README's "Library" heading, in a fresh
    interpreter: it imports * and reaches the oracle names on first use."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    proc = run_fresh(block + "\nimport sys\nprint('refartin.oracle' in sys.modules)\n")
    assert proc.stdout.splitlines()[-1] == "True"


def test_cold_compute_loads_neither_the_oracle_nor_dataclasses(tmp_path):
    """A cold ``compute JOB bar`` on a curated job imports no oracle module,
    no ``_linalg`` and no ``dataclasses``."""
    path = tmp_path / "mixed_c6.json"
    path.write_text(json.dumps(_job_from_data(mixed_c6())))
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import refartin.cli\n"
        "code = refartin.cli.main(['compute', sys.argv[1], 'bar'])\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]), file=sys.stderr)\n"
    )
    proc = run_fresh(code, str(path))
    code, loaded = json.loads(proc.stderr)
    assert code == 0 and proc.stdout.startswith("class 0: ")
    loaded = set(loaded)
    assert "refartin.cli" in loaded and "refartin.conductor" in loaded
    assert not loaded & {"refartin.oracle", "refartin._linalg", "dataclasses"}


def test_benchmark_tracer_finds_every_layer():
    """perfbench/tracer.py imports refartin, refartin.cli and refartin.fixtures
    and then reads one module per layer from sys.modules; it also needs the
    package's ``conductor`` to stay the function.  No module uses dataclasses."""
    code = (
        "import sys, types\n"
        "sys.path.insert(0, 'perfbench')\n"
        "from tracer import LAYERS, MODULES\n"
        "before = set(sys.modules)\n"
        "import refartin, refartin.cli, refartin.fixtures\n"
        "missing = [m for m in LAYERS if f'refartin.{MODULES.get(m, m)}' not in sys.modules]\n"
        "assert len(LAYERS) == 8 and not missing, missing\n"
        "assert isinstance(refartin.conductor, types.FunctionType)\n"
        "assert 'dataclasses' not in set(sys.modules) - before\n"
    )
    run_fresh(code)


def test_records_compare_hash_and_copy_as_before():
    """The records are NamedTuples: those with derived fields compare and
    hash by their defining fields only (``!=`` included), hash as the tuple
    of those fields, stay immutable, and copy through their constructors."""
    import copy
    import pickle

    import pytest

    from refartin import from_rational, make_root
    from refartin.fixtures import quad_order, tame_cyclic

    data = tame_cyclic(4, 7)
    sub = data.subgroups[0]
    order = quad_order()
    for record, derived, key in [
        (data.gamma, {"classes": ()}, (data.gamma.table,)),
        (sub, {"group": data.gamma}, (sub.parent, sub.members)),
        (data, {"phi_vertices": (), "subgroups": ()}, tuple(data)[:5]),
        (order, {"group": data.gamma, "powers": ()}, (order.p, order.f, order.galois)),
    ]:
        other = record._replace(**derived)
        assert other == record and not other != record and hash(other) == hash(key)
        assert record != key and not record == key
        assert copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record
        with pytest.raises(AttributeError):
            record.p = 2
    assert data != data._replace(tame_exponent=3)
    assert "subgroups" not in repr(data) and repr(data).startswith("RamificationData(gamma=")
    assert repr(order) == ("MonogenicOrder(p=2, f=(-2, 0, 1), galois=((0, 1), (0, -1)), "
                           "group=FiniteGroup(order=2))")
    z = make_root(8, 1) + from_rational(1)
    assert hash(z) == hash((z.conductor, z.num, z.den)) and copy.copy(z) == z
