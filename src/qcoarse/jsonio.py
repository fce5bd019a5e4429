"""JSON schemas for every value that crosses the CLI boundary.

One file holds one object.  Infinite values are encoded as the string
"inf" inside distance matrices, moduli tables and reports, and as
{"finite": false, "value": 0.0} for distances, since strict JSON has no
Infinity literal.  Loaders raise SchemaError with the offending path.

A channel or metric file is read by the input rule (``_shape``): the first
of its keys "labels", "ops" and "unitaries" makes it a metric space, a
Kraus set or an expander spec (whose Kraus set is {U_j/sqrt(d)}), and a run
report (keys "command" and "results") is read as its results.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .matcore import (DEFAULT_TOL, OperatorSubspace, Projection, ToleranceConfig,
                      as_complex_matrix, subspace_from_spanning)
from .qmetric import (ClassicalQuantumMetric, ExtendedDistance, FiniteMetricSpace,
                      KrausSet, graph_metric)
from .expander import ExpanderSpec
from .asdim import CoverFamily
from .moduli import MapTable, ModuliTable

__all__ = [
    "SchemaError",
    "load_json_file",
    "dump_json",
    "matrix_to_json",
    "matrix_from_json",
    "projection_to_json",
    "projection_from_json",
    "subspace_to_json",
    "subspace_from_json",
    "kraus_to_json",
    "kraus_from_json",
    "space_to_json",
    "space_from_json",
    "subset_to_json",
    "subset_from_json",
    "member_to_json",
    "member_from_json",
    "distance_to_json",
    "distance_from_json",
    "expander_to_json",
    "expander_from_json",
    "channel_from_json",
    "metric_from_json",
    "spec_from_json",
    "cover_to_json",
    "cover_from_json",
    "metric_cover_from_json",
    "map_to_json",
    "map_from_json",
    "moduli_table_to_json",
]


class SchemaError(ValueError):
    """Malformed input object; message carries the schema path."""


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _get(obj: dict, key: str, path: str) -> Any:
    _expect(isinstance(obj, dict), path, f"expected an object with key {key!r}")
    _expect(key in obj, path, f"missing key {key!r}")
    return obj[key]


def _is_number(v) -> bool:
    """The number rule: a finite JSON number, and a boolean is not one."""
    try:  # type(), not isinstance(): a JSON true/false is not a number
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _number(obj, path: str) -> float:
    """A JSON scalar under the number rule, as a float."""
    _expect(_is_number(obj), path, "expected a finite number")
    return float(obj)


def _index(obj, path: str) -> int:
    """The index rule: a nonnegative JSON integer, and a boolean is not one."""
    _expect(type(obj) is int and obj >= 0, path, "expected a nonnegative integer")
    return obj


def _dimension(obj, path: str) -> int:
    """The dimension rule: a positive JSON integer, and a boolean is not one."""
    _expect(type(obj) is int and obj >= 1, path, "expected a positive dimension")
    return obj


def load_json_file(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON ({exc})") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read file ({exc.strerror})") from exc


def dump_json(obj: Any) -> str:
    """obj as strict JSON, each infinite float written as "inf".  A NaN or
    -inf has no meaning in a report and raises ArithmeticError."""
    return json.dumps(_inf_as_sentinel(obj), indent=2, sort_keys=True,
                      allow_nan=False)


def _inf_as_sentinel(obj):
    if isinstance(obj, dict):
        return {k: _inf_as_sentinel(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_inf_as_sentinel(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        if obj != math.inf:
            raise ArithmeticError(f"a report holds {obj!r}, which JSON cannot carry")
        return "inf"
    return obj


# -- matrices ---------------------------------------------------------------


def matrix_to_json(mat) -> dict:
    m = as_complex_matrix(mat)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(v) for v in m.real.reshape(-1)],
        "im": [float(v) for v in m.imag.reshape(-1)],
    }


def matrix_from_json(obj, path: str = "$") -> np.ndarray:
    rows = _index(_get(obj, "rows", path), f"{path}.rows")
    cols = _index(_get(obj, "cols", path), f"{path}.cols")
    re = _get(obj, "re", path)
    im = _get(obj, "im", path)
    m = (_real_entries(re, rows * cols, f"{path}.re")
         + 1j * _real_entries(im, rows * cols, f"{path}.im"))
    return m.reshape(rows, cols)


def _real_entries(obj, count: int, path: str) -> np.ndarray:
    """A flat list of count finite JSON numbers as a float array."""
    _expect(isinstance(obj, list) and len(obj) == count, path,
            f"expected a list of {count} entries")
    for i, v in enumerate(obj):
        if not _is_number(v):  # the path is formatted only for a bad entry
            raise SchemaError(f"{path}[{i}]: expected a finite number")
    return np.array(obj, dtype=float)


# -- projections and subspaces ----------------------------------------------


def projection_to_json(p: Projection) -> dict:
    return {"n": p.n, "range_basis": matrix_to_json(p.range_basis)}


def projection_from_json(obj, path: str = "$") -> Projection:
    n = _dimension(_get(obj, "n", path), f"{path}.n")
    rb = matrix_from_json(_get(obj, "range_basis", path), f"{path}.range_basis")
    _expect(rb.shape[0] == n, f"{path}.range_basis", f"expected {n} rows")
    p = Projection(n, rb)
    _expect(p.column_residuals() <= 1e-8, f"{path}.range_basis",
            "columns are not orthonormal")
    return p


def subspace_to_json(sub) -> dict:
    return {"n": sub.n, "basis": [matrix_to_json(b) for b in sub.basis]}


def subspace_from_json(obj, path: str = "$"):
    n = _index(_get(obj, "n", path), f"{path}.n")
    basis_obj = _get(obj, "basis", path)
    _expect(isinstance(basis_obj, list), f"{path}.basis", "expected a list")
    mats = [matrix_from_json(b, f"{path}.basis[{i}]")
            for i, b in enumerate(basis_obj)]
    for i, m in enumerate(mats):
        _expect(m.shape == (n, n), f"{path}.basis[{i}]", f"expected {n}x{n}")
    if not mats:
        return OperatorSubspace(n, np.zeros((0, n, n), dtype=complex))
    return subspace_from_spanning(mats)


# -- channels ----------------------------------------------------------------


def kraus_to_json(k: KrausSet) -> dict:
    return {"n": k.n, "ops": [matrix_to_json(op) for op in k.ops]}


def kraus_from_json(obj, path: str = "$", tol: ToleranceConfig = DEFAULT_TOL) -> KrausSet:
    n = _dimension(_get(obj, "n", path), f"{path}.n")
    ops_obj = _get(obj, "ops", path)
    _expect(isinstance(ops_obj, list) and ops_obj, f"{path}.ops",
            "expected a nonempty list")
    ops = [matrix_from_json(o, f"{path}.ops[{i}]") for i, o in enumerate(ops_obj)]
    for i, op in enumerate(ops):
        _expect(op.shape == (n, n), f"{path}.ops[{i}]", f"expected {n}x{n}")
    return KrausSet(ops, tol)


def expander_to_json(spec: ExpanderSpec) -> dict:
    return {
        "n": spec.n,
        "d": spec.d,
        "unitaries": [matrix_to_json(u) for u in spec.unitaries],
        "epsilon": float(spec.epsilon),
    }


def expander_from_json(obj, path: str = "$", tol: ToleranceConfig = DEFAULT_TOL) -> ExpanderSpec:
    n = _dimension(_get(obj, "n", path), f"{path}.n")
    d = _index(_get(obj, "d", path), f"{path}.d")
    us_obj = _get(obj, "unitaries", path)
    _expect(isinstance(us_obj, list) and len(us_obj) == d, f"{path}.unitaries",
            f"expected {d} matrices")
    us = [matrix_from_json(u, f"{path}.unitaries[{i}]")
          for i, u in enumerate(us_obj)]
    for i, u in enumerate(us):
        _expect(u.shape == (n, n), f"{path}.unitaries[{i}]", f"expected {n}x{n}")
    spec = ExpanderSpec(n=n, d=d, unitaries=us,
                        epsilon=_number(_get(obj, "epsilon", path), f"{path}.epsilon"),
                        tol=tol)
    try:
        spec.validate()
    except ValueError as exc:  # validate names the failing field
        raise SchemaError(f"{path}.{exc}") from exc
    return spec


# -- metric spaces -----------------------------------------------------------


def _real_or_inf_to_json(v: float):
    return "inf" if math.isinf(v) else float(v)


def _real_or_inf_from_json(v, path: str) -> float:
    if v == "inf":
        return math.inf
    _expect(_is_number(v), path, "expected a finite number or 'inf'")
    return float(v)


def space_to_json(space: FiniteMetricSpace) -> dict:
    return {
        "labels": list(space.labels),
        "d": [[_real_or_inf_to_json(float(v)) for v in row] for row in space.d],
    }


def space_from_json(obj, path: str = "$") -> FiniteMetricSpace:
    labels = _get(obj, "labels", path)
    rows = _get(obj, "d", path)
    _expect(isinstance(labels, list), f"{path}.labels", "expected a list")
    _expect(isinstance(rows, list) and len(rows) == len(labels), f"{path}.d",
            f"expected {len(labels)} rows")
    d = np.zeros((len(labels), len(labels)))
    for i, row in enumerate(rows):
        _expect(isinstance(row, list) and len(row) == len(labels),
                f"{path}.d[{i}]", f"expected {len(labels)} entries")
        for j, v in enumerate(row):
            d[i, j] = _real_or_inf_from_json(v, f"{path}.d[{i}][{j}]")
    try:
        return FiniteMetricSpace(labels, d)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def subset_to_json(subset) -> list[int]:
    return sorted(int(i) for i in subset)


def subset_from_json(obj, path: str = "$") -> tuple[int, ...]:
    _expect(isinstance(obj, list), path, "expected a sorted index array")
    return tuple(sorted(set(_index(v, f"{path}[{i}]") for i, v in enumerate(obj))))


def member_to_json(member, backend: str):
    return (subset_to_json(member) if backend == "classical"
            else projection_to_json(member))


def member_from_json(obj, metric, nonempty: bool, path: str):
    """A member of metric read from an index array or a projection object,
    checked against metric.n at the offending entry and converted by
    metric.from_subset or metric.from_projection.  An empty one is refused
    when asked, and always by a graph metric: the zero projection has no
    distance, neighborhood or diameter."""
    if isinstance(obj, list):
        value = subset_from_json(obj, path)
        if value and value[-1] >= metric.n:  # name the largest index's position
            raise SchemaError(f"{path}[{obj.index(value[-1])}]: "
                              f"expected an index below {metric.n}")
        size, what, convert = len(value), "a nonempty subset", metric.from_subset
    else:
        value = projection_from_json(obj, path)
        _expect(value.n == metric.n, f"{path}.n",
                f"expected {metric.n}, the metric's dimension")
        size, what = value.rank, "a projection of positive rank"
        convert = metric.from_projection
    _expect(size or not (nonempty or metric.backend == "quantum"), path,
            f"expected {what}")
    try:
        return convert(value)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# -- the input rule -----------------------------------------------------------

_SHAPES = {"labels": "a metric space", "ops": "a Kraus set",
           "unitaries": "an expander spec"}


def _shape(obj, path: str, accepted: tuple[str, ...]) -> tuple[str, Any, str]:
    """(key, object, path) of obj under the input rule, refused at path
    unless its deciding key is one of accepted."""
    if isinstance(obj, dict):
        key = next((k for k in _SHAPES if k in obj), None)
        if key is None and "command" in obj and "results" in obj:
            return _shape(obj["results"], f"{path}.results", accepted)
        if key in accepted:
            return key, obj, path
    names = [f"{_SHAPES[k]} (key {k!r})" for k in accepted]
    listed = (", ".join(names[:-1]) + " or " + names[-1] if len(names) > 1
              else names[0])
    raise SchemaError(f"{path}: expected {listed}")


def channel_from_json(obj, path: str = "$",
                      tol: ToleranceConfig = DEFAULT_TOL) -> KrausSet:
    """The Kraus set of a Kraus set, an expander spec or a run report of one."""
    key, obj, path = _shape(obj, path, ("ops", "unitaries"))
    if key == "ops":
        return kraus_from_json(obj, path, tol)
    return expander_from_json(obj, path, tol).kraus()


def metric_from_json(obj, path: str = "$", tol: ToleranceConfig = DEFAULT_TOL):
    """The metric of a metric space, or the graph metric of a channel."""
    key, obj, path = _shape(obj, path, ("labels", "ops", "unitaries"))
    if key == "labels":
        return ClassicalQuantumMetric(space_from_json(obj, path), tol)
    return graph_metric(channel_from_json(obj, path, tol))


def spec_from_json(obj, path: str = "$",
                   tol: ToleranceConfig = DEFAULT_TOL) -> ExpanderSpec:
    """An expander spec, or the spec of a gen-expander report."""
    _, obj, path = _shape(obj, path, ("unitaries",))
    return expander_from_json(obj, path, tol)


# -- distances ---------------------------------------------------------------


def distance_to_json(dist: ExtendedDistance) -> dict:
    return {"finite": dist.finite,
            "value": float(dist.value) if dist.finite else 0.0}


def distance_from_json(obj, path: str = "$") -> ExtendedDistance:
    finite = _get(obj, "finite", path)
    _expect(isinstance(finite, bool), f"{path}.finite", "expected a bool")
    if not finite:
        return ExtendedDistance.infinite()
    return ExtendedDistance.of(_number(_get(obj, "value", path), f"{path}.value"))


# -- covers -------------------------------------------------------------------


def cover_to_json(fam: CoverFamily) -> dict:
    colors = [[member_to_json(m, fam.backend) for m in color]
              for color in fam.colors]
    return {"backend": fam.backend, "r": float(fam.r), "R": float(fam.R),
            "colors": colors, "metadata": fam.metadata}


def cover_from_json(obj, path: str = "$") -> CoverFamily:
    """A cover family whose members are in its backend's format."""
    backend = _get(obj, "backend", path)
    _expect(backend in ("classical", "quantum"), f"{path}.backend",
            "expected 'classical' or 'quantum'")
    member = subset_from_json if backend == "classical" else projection_from_json
    return _cover(obj, path, backend, member)


def metric_cover_from_json(obj, metric, path: str) -> CoverFamily:
    """A cover family of metric, each member read by ``member_from_json``."""
    backend = _get(obj, "backend", path)
    _expect(backend == metric.backend, f"{path}.backend",
            f"expected {metric.backend!r}, the metric's backend")
    return _cover(obj, path, backend,
                  lambda m, mp: member_from_json(m, metric, True, mp))


def _cover(obj, path: str, backend: str, member) -> CoverFamily:
    colors_obj = _get(obj, "colors", path)
    _expect(isinstance(colors_obj, list), f"{path}.colors", "expected a list")
    colors = []
    for ci, color in enumerate(colors_obj):
        _expect(isinstance(color, list), f"{path}.colors[{ci}]", "expected a list")
        colors.append([member(m, f"{path}.colors[{ci}][{mi}]")
                       for mi, m in enumerate(color)])
    r = _real_or_inf_from_json(_get(obj, "r", path), f"{path}.r")
    _expect(r > 0, f"{path}.r", "expected a positive number")
    big_r = _real_or_inf_from_json(_get(obj, "R", path), f"{path}.R")
    try:
        return CoverFamily(backend, colors, r=r, R=big_r,
                           metadata=str(obj.get("metadata", "")))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# -- maps and moduli ----------------------------------------------------------


def map_to_json(mapping: MapTable) -> dict:
    return {
        "from": space_to_json(mapping.domain),
        "to": space_to_json(mapping.codomain),
        "map": list(mapping.images),
    }


def map_from_json(obj, path: str = "$") -> MapTable:
    dom_obj = _get(obj, "from", path)
    _expect(isinstance(dom_obj, dict), f"{path}.from",
            "expected a metric-space object (bare label lists carry no "
            "distances; embed the full space)")
    cod_obj = _get(obj, "to", path)
    _expect(isinstance(cod_obj, dict), f"{path}.to",
            "expected a metric-space object")
    images = _get(obj, "map", path)
    _expect(isinstance(images, list), f"{path}.map", "expected an index list")
    images = tuple(_index(v, f"{path}.map[{i}]") for i, v in enumerate(images))
    try:
        return MapTable(space_from_json(dom_obj, f"{path}.from"),
                        space_from_json(cod_obj, f"{path}.to"), images)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _series_to_json(series) -> list:
    return [[float(t), _real_or_inf_to_json(float(v))] for t, v in series]


def moduli_table_to_json(table: ModuliTable) -> dict:
    return {
        "omega": _series_to_json(table.omega),
        "rho": _series_to_json(table.rho),
        "omega_tilde": _series_to_json(table.omega_tilde),
        "rho_tilde": _series_to_json(table.rho_tilde),
        "domain_note": table.domain_note,
    }
