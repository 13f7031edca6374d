"""Per-layer tracing from outside the package.

The layers are refartin's modules (``_poly`` and ``_linalg`` appear as
``poly`` and ``linalg``).  ``LAYERS`` names, per module, the public
callables whose calls are timed; several callables can share one metric name
(``add`` covers ``__add__``, ``__sub__`` and ``cyclo_sum``).  ``install``
rebinds every such name in every ``refartin.*`` namespace that imported it,
because calls inside the package resolve through ``from .x import y``
bindings, and replaces the listed ``Cyclotomic``/``ClassFunction`` methods on
the class.  Nothing inside ``src/`` changes.

A span is (id, name, start_ns, end_ns, parent id, op id).  Spans stay in
memory (at most ``SPAN_CAP`` per process) and are written as JSONL when the
run ends.  Self time is a span's duration minus the time its child spans
cover, accumulated per callable while the calls happen, so the aggregate
figures cover every call even when raw spans are dropped.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from typing import Callable

LAYERS: dict[str, dict[str, tuple[str, ...]]] = {
    "cyclotomic": {
        "mul": ("Cyclotomic.__mul__", "Cyclotomic.__rmul__"),
        "add": (
            "Cyclotomic.__add__",
            "Cyclotomic.__radd__",
            "Cyclotomic.__sub__",
            "Cyclotomic.__rsub__",
            "cyclo_sum",
        ),
        "inverse": ("Cyclotomic.inverse", "Cyclotomic.__truediv__", "Cyclotomic.__rtruediv__"),
        "galois": (
            "Cyclotomic.galois",
            "Cyclotomic.conjugate",
            "frobenius_average",
            "galois_apply",
            "conjugate",
        ),
        "construct": ("make_root", "from_terms", "from_rational", "parse_value"),
    },
    "poly": {name: (name,) for name in ("pcompose", "pxgcd", "presultant", "pmul", "pdivmod")},
    "linalg": {
        name: (name,)
        for name in ("integer_kernel", "field_kernel", "field_solve", "bareiss_poly_det")
    },
    "grouptheory": {
        **{
            name: (name,)
            for name in (
                "build_group",
                "all_subgroups",
                "subgroup",
                "quotient",
                "pushforward",
                "pullback",
                "pair",
            )
        },
        "classfn": (
            "ClassFunction.__add__",
            "ClassFunction.__sub__",
            "ClassFunction.__neg__",
            "ClassFunction.scale",
            "ClassFunction.__mul__",
            "ClassFunction.__rmul__",
            "ClassFunction.conjugate",
        ),
    },
    "ramification": {
        **{
            name: (name,)
            for name in (
                "build_ramification",
                "refined_artin",
                "refined_artin_upper",
                "artin_character",
                "bar_n",
                "p_average",
                "subgroup_data",
                "quotient_data",
            )
        },
        "herbrand": ("herbrand_phi", "herbrand_psi", "upper_group", "upper_jumps"),
    },
    "conductor": {
        name: (name,)
        for name in (
            "verify_suite",
            "conductor",
            "artin_conductor",
            "qp_irreducibles_cyclic",
            "weil_restriction_check",
        )
    },
    "oracle": {
        name: (name,)
        for name in (
            "oracle_tame_clin",
            "build_monogenic_order",
            "oracle_monogenic_clin",
            "filtration_from_monogenic",
            "tame_character_from_monogenic",
            "valuation_monogenic",
        )
    },
    "cli": {"main": ("main",)},
}

# Metric names must start with a letter or a digit, so the private modules
# report under their names without the underscore.
MODULES = {"poly": "_poly", "linalg": "_linalg"}

# Calls whose argument tuples are counted per op: distinct / calls is the
# share of calls that were not a repeat of an earlier call in the same op.
DISTINCT = (
    "ramification.refined_artin",
    "ramification.refined_artin_upper",
    "ramification.artin_character",
    "ramification.subgroup_data",
    "ramification.quotient_data",
)

MAX_COUNTERS = ("cyclotomic.max_conductor", "grouptheory.max_order")
SUM_COUNTERS = ("grouptheory.subgroups_visited", "conductor.verify_records")

SPAN_CAP = 50_000

_now = time.monotonic_ns


def _key(value):
    """A hashable stand-in for an argument (lists become tuples)."""
    if isinstance(value, (list, tuple)):
        return tuple(_key(v) for v in value)
    return value


class Tracer:
    """Collects spans and per-callable aggregates for one process."""

    def __init__(self) -> None:
        # metric name -> [calls, self_ns]
        self.stats: dict[str, list[int]] = {
            f"{layer}.{group}": [0, 0] for layer, groups in LAYERS.items() for group in groups
        }
        self.raised = {layer: 0 for layer in LAYERS}
        self.counters = {name: 0 for name in MAX_COUNTERS + SUM_COUNTERS}
        self.distinct = {name: [0, 0] for name in DISTINCT}  # [distinct, calls]
        self._seen: dict[str, set] = {name: set() for name in DISTINCT}
        self.missing: list[str] = []
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op_ns = 0  # wall time of all ops
        self.root_child_ns = 0  # time of all top-level spans
        self._ids = itertools.count()
        self._op = -1
        # frame: [child_ns, layer, span id]; the root frame stands for the op
        self._stack: list[list] = [[0, "bench", -1]]

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        self._stack[:] = [[0, "bench", -1]]
        for seen in self._seen.values():
            seen.clear()
        return _now()

    def end_op(self, start_ns: int) -> int:
        """Close the op opened at ``start_ns``; returns its wall time."""
        wall = _now() - start_ns
        self.op_ns += wall
        self.root_child_ns += self._stack[0][0]
        for name, seen in self._seen.items():
            self.distinct[name][0] += len(seen)
            seen.clear()
        return wall

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, group: str) -> Callable:
        name = f"{layer}.{group}"
        stat = self.stats[name]
        post = self._post_hook(name)
        seen = self._seen.get(name)
        distinct = self.distinct.get(name)
        frames = self._stack
        push, pop = frames.append, frames.pop
        spans = self.spans
        keep = spans.append
        ids = self._ids
        tracer = self

        def traced(*args, **kwargs):
            parent = frames[-1]
            frame = [0, layer, next(ids)]
            push(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent[1] != layer:
                    tracer.raised[layer] += 1
                raise
            finally:
                end = _now()
                pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur - frame[0]
                parent[0] += dur
                if len(spans) < SPAN_CAP:
                    keep((frame[2], name, start, end, parent[2], tracer._op))
                else:
                    tracer.spans_dropped += 1
            if seen is not None:
                distinct[1] += 1
                try:
                    seen.add((_key(args), _key(tuple(sorted(kwargs.items())))))
                except TypeError:
                    seen.add(object())  # unhashable: count as distinct
            if post is not None:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", group)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _post_hook(self, name: str):
        counters = self.counters
        if name.startswith("cyclotomic."):
            from refartin.cyclotomic import Cyclotomic

            def post(args, result):
                if isinstance(result, Cyclotomic) and result.conductor > counters[
                    "cyclotomic.max_conductor"
                ]:
                    counters["cyclotomic.max_conductor"] = result.conductor

            return post
        if name == "grouptheory.all_subgroups":

            def post(args, result):
                counters["grouptheory.subgroups_visited"] += len(result)
                counters["grouptheory.max_order"] = max(
                    counters["grouptheory.max_order"], args[0].order
                )

            return post
        if name == "grouptheory.build_group":

            def post(args, result):
                counters["grouptheory.max_order"] = max(
                    counters["grouptheory.max_order"], result.order
                )

            return post
        if name == "conductor.verify_suite":

            def post(args, result):
                counters["conductor.verify_records"] += len(result.records)

            return post
        return None

    def install(self) -> None:
        """Wrap every callable in ``LAYERS`` wherever refartin binds it."""
        import refartin  # noqa: F401  (the package must be imported first)
        import refartin.cli  # noqa: F401
        import refartin.fixtures  # noqa: F401

        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "refartin" or name.startswith("refartin."))
        ]
        for layer, groups in LAYERS.items():
            home = sys.modules[f"refartin.{MODULES.get(layer, layer)}"]
            for group, names in groups.items():
                for qualified in names:
                    cls_name, _, attr = qualified.rpartition(".")
                    if cls_name:
                        cls = getattr(home, cls_name)
                        orig = cls.__dict__.get(attr)
                        if orig is None:
                            self.missing.append(f"{layer}.{qualified}")
                            continue
                        setattr(cls, attr, self.wrap(orig, layer, group))
                        continue
                    orig = home.__dict__.get(attr)
                    if orig is None:
                        self.missing.append(f"{layer}.{qualified}")
                        continue
                    wrapper = self.wrap(orig, layer, group)
                    for mod in namespaces:
                        if mod.__dict__.get(attr) is orig:
                            setattr(mod, attr, wrapper)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates in a form that ``merge`` can add up across processes."""
        return {
            "stats": self.stats,
            "raised": self.raised,
            "counters": self.counters,
            "distinct": self.distinct,
            "op_ns": self.op_ns,
            "root_child_ns": self.root_child_ns,
            "spans_kept": len(self.spans),
            "spans_dropped": self.spans_dropped,
            "missing": self.missing,
        }


def empty_snapshot() -> dict:
    return Tracer().snapshot() | {"startup_ns": 0, "stdout_bytes": 0}


def merge(total: dict, part: dict) -> None:
    """Add the aggregates of ``part`` into ``total``."""
    for name, (calls, self_ns) in part["stats"].items():
        total["stats"][name][0] += calls
        total["stats"][name][1] += self_ns
    for layer, n in part["raised"].items():
        total["raised"][layer] += n
    for name, value in part["counters"].items():
        if name in MAX_COUNTERS:
            total["counters"][name] = max(total["counters"][name], value)
        else:
            total["counters"][name] += value
    for name, (distinct, calls) in part["distinct"].items():
        total["distinct"][name][0] += distinct
        total["distinct"][name][1] += calls
    for key in ("op_ns", "root_child_ns", "spans_kept", "spans_dropped"):
        total[key] += part[key]
    for key in ("startup_ns", "stdout_bytes"):
        total[key] += part.get(key, 0)
    total["missing"] = sorted(set(total["missing"]) | set(part["missing"]))


def layer_metrics(snap: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit).

    ``snap["op_ns"]`` is the wall time of all ops and ``root_child_ns`` the
    part covered by top-level spans; for CLI children ``startup_ns`` (spawn
    to entering ``main``) is counted as cli self time.  The rest of the op
    wall time is ``bench.unattributed_s``.
    """
    out: dict[str, tuple[float, str]] = {}
    layer_self = {layer: 0 for layer in LAYERS}
    for name, (calls, self_ns) in snap["stats"].items():
        layer = name.split(".", 1)[0]
        layer_self[layer] += self_ns
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_ns / 1e9, "s")
    layer_self["cli"] += snap["startup_ns"]
    out["cli.startup_s"] = (snap["startup_ns"] / 1e9, "s")
    out["cli.stdout_bytes"] = (snap["stdout_bytes"], "bytes")
    for layer, self_ns in layer_self.items():
        out[f"{layer}.self_s"] = (self_ns / 1e9, "s")
        out[f"{layer}.raised"] = (snap["raised"][layer], "count")
    for name, value in snap["counters"].items():
        unit = {"cyclotomic.max_conductor": "conductor", "grouptheory.max_order": "elements"}.get(
            name, "count"
        )
        out[name] = (value, unit)
    for name, (distinct, calls) in snap["distinct"].items():
        out[f"{name}.distinct_frac"] = (distinct / calls if calls else 1.0, "fraction")
    attributed = snap["root_child_ns"] + snap["startup_ns"]
    out["bench.unattributed_s"] = ((snap["op_ns"] - attributed) / 1e9, "s")
    return out


def closure(snap: dict) -> dict:
    """Span accounting: layer self times plus unattributed time against op wall.

    Layer self times are summed from the per-callable aggregates; the top-level
    span total is summed from the root frames.  The two agree when every
    nested span was attributed exactly once, so ``residual_s`` should be 0.
    """
    layer_self = sum(self_ns for _, self_ns in snap["stats"].values()) + snap["startup_ns"]
    unattributed = snap["op_ns"] - snap["root_child_ns"] - snap["startup_ns"]
    return {
        "op_wall_s": snap["op_ns"] / 1e9,
        "layer_self_s": layer_self / 1e9,
        "unattributed_s": unattributed / 1e9,
        "residual_s": (snap["op_ns"] - layer_self - unattributed) / 1e9,
    }


def write_spans(path: str, spans: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, name, start, end, parent, op in spans:
            fh.write(
                json.dumps(
                    {"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "op": op},
                    separators=(",", ":"),
                )
                + "\n"
            )
