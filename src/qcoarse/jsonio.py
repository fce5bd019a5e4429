"""JSON schemas for every value that crosses the CLI boundary.

One file holds one object.  Infinite values are encoded as the string
"inf" inside distance matrices and moduli tables, and as
{"finite": false, "value": 0.0} for distances, since strict JSON has no
Infinity literal.  Loaders raise SchemaError with the offending path.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .matcore import DEFAULT_TOL, Projection, ToleranceConfig, as_complex_matrix
from .qmetric import ExtendedDistance, FiniteMetricSpace, KrausSet
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
    "distance_to_json",
    "distance_from_json",
    "expander_to_json",
    "expander_from_json",
    "cover_to_json",
    "cover_from_json",
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


def load_json_file(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON ({exc})") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read file ({exc.strerror})") from exc


def dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


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
    rows = _get(obj, "rows", path)
    cols = _get(obj, "cols", path)
    re = _get(obj, "re", path)
    im = _get(obj, "im", path)
    _expect(isinstance(rows, int) and rows >= 0, f"{path}.rows", "nonnegative int")
    _expect(isinstance(cols, int) and cols >= 0, f"{path}.cols", "nonnegative int")
    _expect(len(re) == rows * cols, f"{path}.re", f"expected {rows * cols} entries")
    _expect(len(im) == rows * cols, f"{path}.im", f"expected {rows * cols} entries")
    m = (np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float))
    return m.reshape(rows, cols)


# -- projections and subspaces ----------------------------------------------


def projection_to_json(p: Projection) -> dict:
    return {"n": p.n, "range_basis": matrix_to_json(p.range_basis)}


def projection_from_json(obj, path: str = "$") -> Projection:
    n = _get(obj, "n", path)
    rb = matrix_from_json(_get(obj, "range_basis", path), f"{path}.range_basis")
    _expect(rb.shape[0] == n, f"{path}.range_basis", f"expected {n} rows")
    p = Projection(n, rb)
    _expect(p.column_residuals() <= 1e-8, f"{path}.range_basis",
            "columns are not orthonormal")
    return p


def subspace_to_json(sub) -> dict:
    return {"n": sub.n, "basis": [matrix_to_json(b) for b in sub.basis]}


def subspace_from_json(obj, path: str = "$"):
    from .matcore import subspace_from_spanning

    n = _get(obj, "n", path)
    basis_obj = _get(obj, "basis", path)
    _expect(isinstance(basis_obj, list), f"{path}.basis", "expected a list")
    mats = [matrix_from_json(b, f"{path}.basis[{i}]")
            for i, b in enumerate(basis_obj)]
    for i, m in enumerate(mats):
        _expect(m.shape == (n, n), f"{path}.basis[{i}]", f"expected {n}x{n}")
    if not mats:
        from .matcore import OperatorSubspace
        return OperatorSubspace(n, np.zeros((0, n, n), dtype=complex), True, False)
    return subspace_from_spanning(mats)


# -- channels ----------------------------------------------------------------


def kraus_to_json(k: KrausSet) -> dict:
    return {"n": k.n, "ops": [matrix_to_json(op) for op in k.ops]}


def kraus_from_json(obj, path: str = "$", tol: ToleranceConfig = DEFAULT_TOL) -> KrausSet:
    n = _get(obj, "n", path)
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
    n = _get(obj, "n", path)
    d = _get(obj, "d", path)
    us_obj = _get(obj, "unitaries", path)
    _expect(isinstance(us_obj, list) and len(us_obj) == d, f"{path}.unitaries",
            f"expected {d} matrices")
    us = [matrix_from_json(u, f"{path}.unitaries[{i}]")
          for i, u in enumerate(us_obj)]
    for i, u in enumerate(us):
        _expect(u.shape == (n, n), f"{path}.unitaries[{i}]", f"expected {n}x{n}")
    spec = ExpanderSpec(n=n, d=d, unitaries=us,
                        epsilon=float(_get(obj, "epsilon", path)), tol=tol)
    spec.validate()
    return spec


# -- metric spaces -----------------------------------------------------------


def _real_or_inf_to_json(v: float):
    return "inf" if math.isinf(v) else float(v)


def _real_or_inf_from_json(v, path: str) -> float:
    if v == "inf":
        return math.inf
    _expect(isinstance(v, (int, float)), path, "expected a number or 'inf'")
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
    for i, v in enumerate(obj):
        _expect(isinstance(v, int), f"{path}[{i}]", "expected an integer index")
    return tuple(sorted(set(int(v) for v in obj)))


# -- distances ---------------------------------------------------------------


def distance_to_json(dist: ExtendedDistance) -> dict:
    return {"finite": dist.finite,
            "value": float(dist.value) if dist.finite else 0.0}


def distance_from_json(obj, path: str = "$") -> ExtendedDistance:
    finite = _get(obj, "finite", path)
    _expect(isinstance(finite, bool), f"{path}.finite", "expected a bool")
    if not finite:
        return ExtendedDistance.infinite()
    return ExtendedDistance.of(float(_get(obj, "value", path)))


# -- covers -------------------------------------------------------------------


def cover_to_json(fam: CoverFamily) -> dict:
    colors = []
    for color in fam.colors:
        if fam.backend == "classical":
            colors.append([subset_to_json(m) for m in color])
        else:
            colors.append([projection_to_json(m) for m in color])
    return {"backend": fam.backend, "r": float(fam.r), "R": float(fam.R),
            "colors": colors, "metadata": fam.metadata}


def cover_from_json(obj, path: str = "$") -> CoverFamily:
    backend = _get(obj, "backend", path)
    _expect(backend in ("classical", "quantum"), f"{path}.backend",
            "expected 'classical' or 'quantum'")
    colors_obj = _get(obj, "colors", path)
    _expect(isinstance(colors_obj, list), f"{path}.colors", "expected a list")
    colors = []
    for ci, color in enumerate(colors_obj):
        _expect(isinstance(color, list), f"{path}.colors[{ci}]", "expected a list")
        members = []
        for mi, m in enumerate(color):
            mp = f"{path}.colors[{ci}][{mi}]"
            if backend == "classical":
                members.append(subset_from_json(m, mp))
            else:
                members.append(projection_from_json(m, mp))
        colors.append(members)
    try:
        return CoverFamily(backend, colors,
                           r=float(_get(obj, "r", path)),
                           R=float(_get(obj, "R", path)),
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
    try:
        return MapTable(space_from_json(dom_obj, f"{path}.from"),
                        space_from_json(cod_obj, f"{path}.to"),
                        tuple(int(i) for i in images))
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
