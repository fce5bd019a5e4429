"""Spans around qcoarse's public functions, installed at run time.

The library is not edited: ``Tracer.install`` replaces each target function,
wherever a qcoarse module binds it, by a wrapper that records a span (name,
start, end, parent id, whether it raised) and, for the two operator-space
kernels, the bytes their inputs imply.  ``Tracer.uninstall`` puts every
original back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

_B_PER_MB = 1e6
_COMPLEX_B = 16


def _product_mb(u, v, *args, **kwargs) -> float:
    """Products subspace_product forms: u.dim * v.dim matrices of n x n."""
    return u.dim * v.dim * u.n * u.n * _COMPLEX_B / _B_PER_MB


def _commutant_mb(mats, *args, **kwargs) -> float:
    """The stacked (k n^2) x n^2 map plus the full left factor its SVD returns."""
    rows = len(mats) * len(mats[0]) ** 2
    cols = len(mats[0]) ** 2
    return (rows * cols + rows * rows) * _COMPLEX_B / _B_PER_MB


_DECODERS = ["load_json_file", "matrix_from_json", "projection_from_json",
             "subspace_from_json", "kraus_from_json", "expander_from_json",
             "space_from_json", "subset_from_json", "distance_from_json",
             "cover_from_json", "map_from_json"]

# (span name, module, attribute, work counter); attributes with a dot are
# methods.  Several attributes may share one span name.
TARGETS = [
    ("matcore.subspace_product", "matcore", "subspace_product", _product_mb),
    ("matcore.commutant", "matcore", "commutant", _commutant_mb),
    ("matcore.image_range_projection", "matcore", "image_range_projection", None),
    ("matcore.Projection.from_range_vectors", "matcore",
     "Projection.from_range_vectors", None),
    ("matcore.subspace_from_spanning", "matcore", "subspace_from_spanning", None),
    ("matcore.proj_join", "matcore", "proj_join", None),
    ("matcore.proj_product_nonzero", "matcore", "proj_product_nonzero", None),
    *[(f"qmetric.GraphQuantumMetric.{m}", "qmetric", f"GraphQuantumMetric.{m}", None)
      for m in ("neighborhood", "dist", "diam_graph_proxy", "diam_lower_bound_sampled")],
    ("qmetric.graph_metric", "qmetric", "graph_metric", None),
    *[(f"expander.{f}", "expander", f, None)
      for f in ("spectral_gap", "random_expander", "is_connected", "cheeger_quantity",
                "verify_isoperimetric", "verify_rank_diameter")],
    *[(f"asdim.{f}", "asdim", f, None)
      for f in ("certify_counting", "validate_cover", "greedy_cover", "saturated_union")],
    ("moduli.quantum_moduli_bruteforce", "moduli", "quantum_moduli_bruteforce", None),
    *[("jsonio.decode", "jsonio", f, None) for f in _DECODERS],
    ("jsonio.dump_json", "jsonio", "dump_json", None),
    ("cli.main", "cli", "main", None),
]

SPAN_NAMES = list(dict.fromkeys(t[0] for t in TARGETS))

# which statistics each span reports, besides "errors"
_STATS = {
    "matcore.subspace_product": ("calls", "self_s", "computed_mb"),
    "matcore.commutant": ("calls", "self_s", "computed_mb"),
    "matcore.subspace_from_spanning": ("self_s",),
    "matcore.proj_join": ("self_s",),
    "matcore.proj_product_nonzero": ("calls",),
    "qmetric.graph_metric": ("self_s",),
    "expander.spectral_gap": ("calls", "self_s", "calls_per_op"),
    "moduli.quantum_moduli_bruteforce": ("self_s",),
    "jsonio.decode": ("self_s",),
    "jsonio.dump_json": ("self_s",),
    "cli.main": ("self_s",),
}
_UNITS = {"calls": "count", "self_s": "s", "computed_mb": "MB",
          "calls_per_op": "calls/op", "errors": "count"}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for name in SPAN_NAMES:
        for stat in _STATS.get(name, ("calls", "self_s")) + ("errors",):
            out.append((f"{name}.{stat}", _UNITS[stat]))
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    """Records spans; one instance per traced run."""

    def __init__(self):
        # span rows: [id, parent id, name, start, end, raised]
        self.spans: list[list] = []
        self.work: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> list:
        row = [len(self.spans), self._stack[-1] if self._stack else None, name,
               time.perf_counter(), None, False]
        self.spans.append(row)
        self._stack.append(row[0])
        return row

    def end(self, row: list, raised: bool = False) -> None:
        row[4] = time.perf_counter()
        row[5] = raised
        self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.work[name] += counter(*args, **kwargs)
            row = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.end(row, raised=True)
                raise
            self.end(row)
            return out
        wrapper.__bench_wrapper__ = True
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {k: m for k, m in sys.modules.items()
                if k == "qcoarse" or k.startswith("qcoarse.")}
        for name, modname, attr, counter in TARGETS:
            home = mods[f"qcoarse.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, None))
                else:
                    new = self._wrap(name, raw, counter)
                self._set(cls, meth, new)
                continue
            orig = getattr(home, attr)
            new = self._wrap(name, orig, counter)
            # rebind every module-level name that refers to the original
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, new)

    def _set(self, owner, key: str, new) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    # -- reports --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = defaultdict(float)
        for _, parent, _, t0, t1, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, t0, t1, _ in self.spans:
            out[name] += (t1 - t0) - child[sid]
        return out

    def metrics(self, ops: int, first_op_span: int,
                overhead_ratio: float) -> dict[str, dict]:
        """Every per-layer metric; spans from ``first_op_span`` on belong to
        the ``ops`` traced operations."""
        calls: dict[str, int] = defaultdict(int)
        errors: dict[str, int] = defaultdict(int)
        in_ops: dict[str, int] = defaultdict(int)
        for sid, _, name, _, _, raised in self.spans:
            calls[name] += 1
            errors[name] += raised
            in_ops[name] += sid >= first_op_span
        selfs = self.self_times()
        values = {
            "calls": lambda n: calls[n],
            "self_s": lambda n: selfs[n],
            "computed_mb": lambda n: self.work[n],
            "calls_per_op": lambda n: in_ops[n] / max(ops, 1),
            "errors": lambda n: errors[n],
        }
        out = {}
        for metric, unit in per_layer_metrics():
            if metric == "trace.overhead_ratio":
                value = overhead_ratio
            else:
                name, stat = metric.rsplit(".", 1)
                value = values[stat](name)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "raised")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, row)) for row in self.spans], fh)


def installed_wrappers() -> list[str]:
    """Names of qcoarse attributes currently replaced by a wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "qcoarse" and not modname.startswith("qcoarse."):
            continue
        for key, val in vars(mod).items():
            if getattr(val, "__bench_wrapper__", False):
                found.append(f"{modname}.{key}")
            if isinstance(val, type):
                for meth, raw in vars(val).items():
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if getattr(fn, "__bench_wrapper__", False):
                        found.append(f"{modname}.{key}.{meth}")
    return found
