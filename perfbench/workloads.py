"""The benchmark's workloads: inputs made from a seed, one op at a time, and
the exactness gate on every op's output.

Each workload yields an endless stream of ops in rounds; a round is the
workload's full op mix, so any window of the stream has about the same mix.
The seed picks the variants in each round (tame exponents, the prime that is
not split, the representation, subgroup and Herbrand argument a CLI query
uses) and the order.  It never picks the size ranges.

An op fails on a wrong or non-canonical result, a golden mismatch, an
unexpected exit code, a binding verification failure or an uncaught
exception.  ``run`` returns the failure reason, or None.

All calls into refartin go through module attributes at call time
(``refartin.conductor(...)``, ``_mod("ramification").power_character``), so
the tracer's rebinding sees them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from typing import Iterator, NamedTuple

import refartin
import refartin.fixtures

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")


def _mod(name: str):
    # ``refartin.conductor`` is the function, so modules come from sys.modules
    return sys.modules[f"refartin.{name}"]


def sha256(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def rng_for(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


class Op(NamedTuple):
    key: str  # golden key; stable across seeds
    params: tuple


def stratified(ops: list[Op], cost: dict[str, float], rng: random.Random, strata: int) -> list[Op]:
    """Order ``ops`` so that every prefix mixes cheap and dear ops alike:
    rank by golden cost, cut into ``strata`` bands, shuffle each band and
    deal one op from each band in turn."""
    ranked = sorted(ops, key=lambda op: (cost.get(op.key, 0.0), op.key))
    size = max(1, math.ceil(len(ranked) / strata))
    bands = [ranked[i : i + size] for i in range(0, len(ranked), size)]
    for band in bands:
        rng.shuffle(band)
    out = []
    for i in range(size):
        order = list(range(len(bands)))
        rng.shuffle(order)
        out.extend(bands[b][i] for b in order if i < len(bands[b]))
    return out


def load_golden(name: str) -> dict:
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


# ---------------------------------------------------------------------------
# conductor-sweep


def primes_one_mod(n: int, count: int) -> list[int]:
    return list(itertools.islice((p for p in itertools.count(n + 1, n) if is_prime(p)), count))


OTHER_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def sweep_candidates(n: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(p, k) pairs for tame cyclic data of degree n: p split (p = 1 mod n)
    and p small, prime to n and not split; k the tame exponent, 1 or -1."""
    exps = sorted({1, n - 1})
    split = [(p, k) for p in primes_one_mod(n, 4) for k in exps]
    other = [(p, k) for p in OTHER_PRIMES if n % p and p % n != 1 for k in exps][:8]
    return split, other


def frobenius_orbits(n: int, p: int) -> list[list[int]]:
    seen: set[int] = set()
    out = []
    for a in range(n):
        if a in seen:
            continue
        orbit, x = [], a
        while x not in orbit:
            orbit.append(x)
            x = x * p % n
        seen.update(orbit)
        out.append(orbit)
    return out


# Cost grows faster than n; n <= 24 keeps a 30 s run above a hundred ops (ten
# beyond p90) when the host is slow.  n = 25, 26 cost about 1 s and 0.5 s per op.
N_MAX = 24


class ConductorSweep:
    """Tame cyclic data of degree 2..N_MAX in one warm worker.

    One op is one (n, p, k): build the data, the refined character by the
    lower and the upper route (they must agree), the bisection against the
    Artin character, the conductor of every power character chi_j against
    the closed form (j k^-1 mod n)/n, and the averaged conductor of every
    Q_p-irreducible against the sum of that closed form over its Frobenius
    orbit.
    """

    name = "conductor-sweep"
    golden_name = "conductor_sweep"

    def __init__(self, seed: int, smoke: bool = False, **_):
        self.seed = seed
        self.n_max = 6 if smoke else N_MAX
        self.golden = load_golden(self.golden_name)

    @classmethod
    def universe(cls, n_max: int = N_MAX) -> list[Op]:
        out = []
        for n in range(2, n_max + 1):
            split, other = sweep_candidates(n)
            out += [cls.op(n, p, k) for p, k in split + other]
        return out

    @staticmethod
    def op(n: int, p: int, k: int) -> Op:
        return Op(f"n={n} p={p} k={k}", (n, p, k))

    def ops(self) -> Iterator[Op]:
        rng = rng_for(self.seed, self.name)
        combos = {}
        for n in range(2, self.n_max + 1):
            split, other = sweep_candidates(n)
            rng.shuffle(split)
            rng.shuffle(other)
            combos[n] = (split, other or split[len(split) // 2 :] + split[: len(split) // 2])
        cost = {key: entry["seconds"] for key, entry in self.golden.items()}
        for r in itertools.count():
            batch = []
            for n, (split, other) in combos.items():
                batch.append(self.op(n, *split[r % len(split)]))
                batch.append(self.op(n, *other[r % len(other)]))
            yield from stratified(batch, cost, rng, 5)

    def run(self, op: Op) -> str | None:
        bad, text = self.result(op)
        return "closed-form" if bad else self.check_golden(op, text)

    def check_golden(self, op: Op, text: str) -> str | None:
        entry = self.golden.get(op.key)
        if entry is None:
            return "no-golden"
        return None if entry["sha256"] == sha256(text) else "golden"

    @staticmethod
    def result(op: Op) -> tuple[bool, str]:
        """(whether a closed-form check failed, the op's printed result)."""
        n, p, k = op.params
        ram = _mod("ramification")
        data = refartin.build_ramification(
            _mod("grouptheory").cyclic_group(n), [list(range(n))], p, (1, k)
        )
        bar = refartin.refined_artin(data)
        bad = refartin.refined_artin_upper(data).values != bar.values
        bad |= (bar + bar.conjugate()).values != refartin.artin_character(data).values
        # canonical form: the printed value parses back to the same element
        bad |= any(refartin.parse_value(v.encode()) != v for v in bar.values)
        kinv = pow(k, -1, n)
        lines = [json.dumps([v.encode() for v in bar.values], sort_keys=True)]
        for i in range(n):
            j = (n - i) % n
            c = refartin.conductor(data, ram.power_character(n, j), on_unstable="ignore")
            bad |= c != Fraction(j * kinv % n, n)
            lines.append(f"chi{j} {c}")
        averaged = sorted(
            refartin.conductor(data, chi, averaged=True)
            for chi in refartin.qp_irreducibles_cyclic(n, p)
        )
        expected = sorted(
            sum((Fraction(j * kinv % n, n) for j in orbit), Fraction(0))
            for orbit in frobenius_orbits(n, p)
        )
        bad |= averaged != expected
        lines.append("averaged " + " ".join(map(str, averaged)))
        return bad, "\n".join(lines)


# ---------------------------------------------------------------------------
# oracle-lattice


def binomial_row(j: int) -> list[int]:
    return [math.comb(j, m) for m in range(j + 1)]


def cyclotomic_shifted(p: int, k: int) -> list[int]:
    """Phi_{p^k}(x + 1), coefficients ascending."""
    step = p ** (k - 1)
    out = [0] * ((p - 1) * step + 1)
    for i in range(p):
        for m, c in enumerate(binomial_row(i * step)):
            out[m] += c
    return out


def tower_order_data(p: int, k: int) -> tuple[int, list[int], list[list[int]]]:
    """(p, f, galois) for Z_p[zeta_{p^k}] generated by x = zeta - 1: the
    Galois maps x -> (x + 1)^j - 1 for j prime to p, identity first, left
    unreduced modulo f."""
    q = p**k
    maps = []
    for j in range(1, q):
        if j % p:
            g = binomial_row(j)
            g[0] -= 1
            maps.append(g)
    return p, cyclotomic_shifted(p, k), maps


# Z[y], y = zeta_7 + zeta_7^-1 - 2: the real cubic subfield of Q(zeta_7) at 7
REAL_CUBIC_7 = (7, [7, 14, 7, 1], [[0, 1], [0, 4, 1], [-7, -5, -1]])

TOWERS = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1))


class OracleLattice:
    """The two lattice oracles on exact data.

    Tame: ``oracle_tame_clin(n, [i])`` for every i and n <= 14 against
    ((n - i) mod n)/n, and ``oracle_tame_clin(n, [i, j])`` for n <= 7 against
    the sum of the two.  These ranges put the 90th percentile of a round
    inside the n = 11 block of similar costs, not on the step between it and
    the dearer n = 13 block, where it would jump between runs.  Monogenic: orders built here from Phi_{p^k}(x+1) and
    the real cubic order at 7; the oracle with the regular action must equal
    both the conductor of the regular character and half the different
    valuation.
    """

    name = "oracle-lattice"
    golden_name = "oracle_lattice"

    def __init__(self, seed: int, smoke: bool = False, **_):
        self.seed = seed
        self.smoke = smoke
        self.golden = load_golden(self.golden_name)

    @classmethod
    def universe(cls, smoke: bool = False) -> list[Op]:
        tame_max, pair_max = (5, 3) if smoke else (14, 7)
        towers = TOWERS[:3] if smoke else TOWERS
        out = [Op(f"tame n={n} e={i}", ("tame", n, (i,))) for n in range(2, tame_max + 1) for i in range(n)]
        out += [
            Op(f"tame n={n} e={i},{j}", ("tame", n, (i, j)))
            for n in range(2, pair_max + 1)
            for i in range(n)
            for j in range(i, n)
        ]
        out += [Op(f"tower p={p} k={k}", ("tower", p, k)) for p, k in towers]
        out += [Op(f"cubic7 prime={c}", ("cubic7", c)) for c in (0, 1)]
        return out

    def ops(self) -> Iterator[Op]:
        rng = rng_for(self.seed, self.name)
        base = [op for op in self.universe(self.smoke) if op.params[0] != "cubic7"]
        cost = {key: entry["seconds"] for key, entry in self.golden.items()}
        while True:
            choice = rng.randrange(2)
            batch = base + [Op(f"cubic7 prime={choice}", ("cubic7", choice))]
            yield from stratified(batch, cost, rng, 8)

    run = ConductorSweep.run
    check_golden = ConductorSweep.check_golden

    @staticmethod
    def result(op: Op) -> tuple[bool, str]:
        kind = op.params[0]
        if kind == "tame":
            _, n, exps = op.params
            value = refartin.oracle_tame_clin(n, list(exps))
            return value != sum((Fraction((n - i) % n, n) for i in exps), Fraction(0)), str(value)
        if kind == "tower":
            p, f, galois = tower_order_data(*op.params[1:])
            choice = 0
        else:
            p, f, galois = REAL_CUBIC_7
            choice = op.params[1]
        order = refartin.build_monogenic_order(p, f, galois)
        data = refartin.filtration_from_monogenic(order, choice)
        value = refartin.oracle_monogenic_clin(order, refartin.regular_action(order.group))
        regular = refartin.standard_characters(data.gamma)[0]
        bad = value != refartin.conductor(data, regular)
        bad |= value != Fraction(refartin.different_valuation(data), 2)
        return bad, str(value)


# ---------------------------------------------------------------------------
# cli-jobs

# group spec, residue characteristic; the filtration is built at set-up
GROUP_JOBS = {
    "s3-p3": ({"perm": [[[1, 2]], [[1, 2, 3]]]}, 3),
    "d4-p2": ({"perm": [[[1, 2, 3, 4]], [[1, 3]]]}, 2),
    "q8-p2": ({"perm": [[[1, 2, 3, 4], [5, 6, 7, 8]], [[1, 5, 3, 7], [2, 8, 4, 6]]]}, 2),
    "a4-p2": ({"perm": [[[1, 2, 3]], [[1, 2], [3, 4]]]}, 2),
    "ab2x2x2-p2": ({"abelian": [2, 2, 2]}, 2),
    "ab4x4-p2": ({"abelian": [4, 4]}, 2),
    "ab2x2x2x2-p2": ({"abelian": [2, 2, 2, 2]}, 2),
    "ab3x3-p3": ({"abelian": [3, 3]}, 3),
    "ab3x9-p3": ({"abelian": [3, 9]}, 3),
    "ab2x12-p2": ({"abelian": [2, 12]}, 2),
    "ab2x2x6-p2": ({"abelian": [2, 2, 6]}, 2),
    "ab4x12-p2": ({"abelian": [4, 12]}, 2),
}

PSI_ARGS = ("1/2", "2", "7/3")
SMOKE_JOBS = ("quad-sqrt2", "tame-c3-p7", "mixed-c6", "group-s3-p3")


class Job(NamedTuple):
    job_id: str  # fixture or group job name plus the tame exponent
    base: str  # fixture or group job name
    text: str  # the job file, as written
    advisory: bool
    reps: tuple[str, ...]  # representation names the conductor query may use
    subgroups: tuple[str, ...]  # member lists the disc query may use


def _p_part(n: int, p: int) -> int:
    q = 1
    while n % p == 0:
        n, q = n // p, q * p
    return q


def _group_job_data(spec: dict, p: int):
    """Totally ramified data on ``spec``: Gamma_1 the normal Sylow p-subgroup,
    then a chain of normal subgroups of largest order, the i-th repeated i
    times.  The data is abstract, so its jobs run ``verify --advisory``.
    Returns the data and all subgroups of the group."""
    g = refartin.build_group(spec)
    subs = _mod("grouptheory").all_subgroups(g)
    normals = [s for s in subs if s.is_normal()]
    q = _p_part(g.order, p)
    chain = [next(s for s in normals if s.order == q)]
    while chain[-1].order > 1:
        inside = [s for s in normals if set(s.members) < set(chain[-1].members)]
        top = max(s.order for s in inside)
        chain.append(next(s for s in inside if s.order == top))
    filtration = [list(range(g.order))]
    for i, s in enumerate(chain[:-1]):
        filtration += [list(s.members)] * (i + 1)
    n = g.order // q
    tame = None
    if n > 1:
        groups = [frozenset(m) for m in filtration]
        gen = min(x for x in range(g.order) if _mod("ramification").proj_order(g, groups, x) == n)
        tame = (gen, 1)
    return refartin.build_ramification(g, filtration, p, tame), subs


def _encode_cf(chi) -> dict:
    return {"values": [v.encode() for v in chi.values]}


def make_jobs(smoke: bool = False) -> list[Job]:
    """Every job file variant the workload can use: each curated fixture and
    each group job, once per tame exponent (the curated one and its negative)."""
    gt = _mod("grouptheory")
    bases = []
    subgroups: dict[int, list] = {}  # by id of the group
    for name, data in refartin.fixtures.curated_fixtures():
        g = data.gamma
        spec = {"cyclic": g.order} if g is gt.cyclic_group(g.order) else {"table": [list(r) for r in g.table]}
        bases.append((name, spec, data, False))
    for name, (spec, p) in GROUP_JOBS.items():
        if not smoke or f"group-{name}" in SMOKE_JOBS:
            data, subgroups[id(data.gamma)] = _group_job_data(spec, p)
            bases.append((f"group-{name}", spec, data, True))
    if smoke:
        bases = [b for b in bases if b[0] in SMOKE_JOBS]
    jobs = []
    for name, spec, data, advisory in bases:
        g, n = data.gamma, data.n
        reg, triv, aug = refartin.standard_characters(g)
        reps = {"reg": _encode_cf(reg), "triv": _encode_cf(triv), "aug": _encode_cf(aug)}
        if g is gt.cyclic_group(g.order):
            for i, chi in enumerate(refartin.qp_irreducibles_cyclic(g.order, data.p)[1:4], 1):
                reps[f"irr{i}"] = _encode_cf(chi)
        if id(g) not in subgroups:
            subgroups[id(g)] = gt.all_subgroups(g)
        subs = subgroups[id(g)]
        picks = sorted({0, len(subs) // 3, 2 * len(subs) // 3, len(subs) - 1})
        disc = tuple(",".join(map(str, subs[i].members)) for i in picks)
        exps = sorted({data.tame_exponent, (-data.tame_exponent) % n}) if n > 1 else [0]
        for k in exps:
            sec = {"group": spec, "filtration": [sorted(m) for m in data.filtration], "p": data.p}
            if n > 1:
                sec["tame"] = {"generator": data.tame_generator, "exponent": k}
            text = json.dumps({"version": 1, "ramification": sec, "reps": reps}, sort_keys=True)
            jobs.append(Job(f"{name}-k{k}", name, text, advisory, tuple(reps), disc))
    return jobs


def job_ops(job: Job) -> dict[str, list[Op]]:
    """The CLI queries on one job file, by kind; argv names the file
    relative to the jobs directory."""
    path = f"{job.job_id}.json"
    verify = ["verify", path] + (["--advisory"] if job.advisory else [])
    kinds = {
        "verify": [verify],
        "bar": [["compute", path, "bar"]],
        "conductor": [["compute", path, "conductor", r] for r in job.reps],
        "disc": [["compute", path, "disc", s] for s in job.subgroups],
        "psi": [["compute", path, "herbrand", "psi", v] for v in PSI_ARGS],
    }
    return {
        kind: [Op(f"{job.job_id}: " + " ".join(a[:1] + a[2:]), (job, tuple(a))) for a in argvs]
        for kind, argvs in kinds.items()
    }


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliJobs:
    """Each op is one ``python -m refartin ...`` child with cold caches."""

    name = "cli-jobs"
    golden_name = "cli_jobs"

    def __init__(self, seed: int, smoke: bool = False, root: str = ".", workdir: str = "."):
        self.seed = seed
        self.golden = load_golden(self.golden_name)
        self.jobs = make_jobs(smoke)
        self.workdir = workdir
        self.env = child_env(root)
        for job in self.jobs:
            with open(os.path.join(workdir, f"{job.job_id}.json"), "w", encoding="utf-8") as fh:
                fh.write(job.text)
        # set by the worker in a traced run: argv prefix of the tracing bootstrap
        self.boot: list[str] | None = None
        self.child_traces: list[dict] = []
        self.stdout_bytes = 0

    @staticmethod
    def universe(smoke: bool = False) -> list[Op]:
        return [op for job in make_jobs(smoke) for ops in job_ops(job).values() for op in ops]

    def ops(self) -> Iterator[Op]:
        rng = rng_for(self.seed, self.name)
        by_base: dict[str, list[Job]] = {}
        for job in self.jobs:
            by_base.setdefault(job.base, []).append(job)
        cost = {key: entry["seconds"] for key, entry in self.golden.items()}
        while True:
            batch = []
            for variants in by_base.values():
                kinds = job_ops(rng.choice(variants))
                batch += [rng.choice(ops) for ops in kinds.values()]
            yield from stratified(batch, cost, rng, 10)

    def command(self, op: Op, op_id: int, spawn_ns: int) -> list[str]:
        argv = list(op.params[1])
        if self.boot is None:
            return [sys.executable, "-m", "refartin", *argv]
        return [*self.boot, str(op_id), str(spawn_ns), *argv]

    def run(self, op: Op, op_id: int = 0) -> str | None:
        job = op.params[0]
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run(
            self.command(op, op_id, spawn_ns),
            cwd=self.workdir,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=170,
        )
        stdout = proc.stdout
        if self.boot is not None:
            # the bootstrap appends its trace as the last stderr line
            head, _, last = proc.stderr.rstrip(b"\n").rpartition(b"\n")
            trace = json.loads(last)
            trace["op_ns"] = time.monotonic_ns() - spawn_ns
            self.child_traces.append(trace)
            stderr = head
        else:
            stderr = proc.stderr
        self.stdout_bytes += len(stdout)
        if b"Traceback" in stderr:
            return "exception"
        entry = self.golden.get(op.key)
        if entry is None:
            return "no-golden"
        if entry["job_sha256"] != sha256(job.text):
            return "input-drift"
        if proc.returncode != entry["exit"]:
            return "exit"
        if entry["stdout_sha256"] != sha256(stdout):
            return "golden"
        return None


WORKLOADS = {w.name: w for w in (CliJobs, ConductorSweep, OracleLattice)}
