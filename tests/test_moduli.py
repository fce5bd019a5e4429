import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcoarse.qmetric import FiniteMetricSpace
from qcoarse.moduli import (
    EquiCoarseData,
    MapTable,
    check_equi_coarse,
    classical_moduli,
    coarse_flags,
    quantum_moduli_bruteforce,
)


def line_space(points):
    pts = np.asarray(sorted(points), dtype=float)
    d = np.abs(pts[:, None] - pts[None, :])
    return FiniteMetricSpace([str(p) for p in pts], d)


def random_space(rng, n):
    pts = np.cumsum(rng.uniform(0.3, 2.5, size=n))
    return line_space(pts)


def path_space(n):
    return line_space(range(n))


def table_dict(series):
    return dict(series)


class TestMapTable:
    def test_totality_enforced(self):
        x, y = path_space(3), path_space(2)
        with pytest.raises(ValueError):
            MapTable(x, y, (0, 1))
        with pytest.raises(ValueError):
            MapTable(x, y, (0, 1, 5))


class TestClassicalModuli:
    def test_identity_map(self):
        x = path_space(4)
        t = classical_moduli(MapTable(x, x, (0, 1, 2, 3)))
        for tt, vv in t.omega_tilde:
            assert vv == tt
        for tt, vv in t.rho_tilde:
            assert vv == tt
        for tt, vv in t.omega:
            assert vv == tt

    def test_constant_map(self):
        x = path_space(4)
        y = path_space(2)
        t = classical_moduli(MapTable(x, y, (0, 0, 0, 0)))
        d = table_dict(t.rho_tilde)
        assert d[0.0] == 3.0  # every pair has image distance 0
        for tt, vv in t.omega_tilde:
            if tt > 0:
                assert vv == math.inf

    def test_doubling_embedding(self):
        x = path_space(3)
        y = line_space([0.0, 2.0, 4.0])
        t = classical_moduli(MapTable(x, y, (0, 1, 2)))
        d = table_dict(t.omega_tilde)
        assert d[2.0] == 1.0
        assert d[4.0] == 2.0

    def test_monotone_in_t(self):
        rng = np.random.default_rng(4)
        x, y = random_space(rng, 5), random_space(rng, 4)
        f = tuple(int(i) for i in rng.integers(0, 4, size=5))
        t = classical_moduli(MapTable(x, y, f))
        for name in ("omega", "rho", "omega_tilde", "rho_tilde"):
            vals = [v for _, v in t.series(name)]
            assert vals == sorted(vals)


class TestQuantumBruteforce:
    def test_identity_map_matches(self):
        x = path_space(4)
        mt = MapTable(x, x, (0, 1, 2, 3))
        cl = classical_moduli(mt)
        qt = quantum_moduli_bruteforce(mt)
        assert qt.omega_tilde == cl.omega_tilde
        assert qt.rho_tilde == cl.rho_tilde

    def test_constant_map_rho_at_zero(self):
        x = path_space(4)
        y = path_space(2)
        qt = quantum_moduli_bruteforce(MapTable(x, y, (0, 0, 0, 0)))
        assert table_dict(qt.rho_tilde)[0.0] == 3.0

    def test_random_maps_match_exactly(self):
        for seed in range(25):
            rng = np.random.default_rng([9, seed])
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            x, y = random_space(rng, nx), random_space(rng, ny)
            f = tuple(int(i) for i in rng.integers(0, ny, size=nx))
            mt = MapTable(x, y, f)
            cl = classical_moduli(mt)
            qt = quantum_moduli_bruteforce(mt)
            assert qt.omega_tilde == cl.omega_tilde
            assert qt.rho_tilde == cl.rho_tilde

    def test_size_cap(self):
        x = path_space(13)
        with pytest.raises(ValueError):
            quantum_moduli_bruteforce(MapTable(x, x, tuple(range(13))))

    def test_eleven_points_refused_before_enumerating(self):
        # 11 points would take about a minute and 1 GB; the cap refuses first
        x = path_space(11)
        y = path_space(4)
        with pytest.raises(ValueError, match="capped at 10 points"):
            quantum_moduli_bruteforce(MapTable(x, y, (0,) * 11))
        with pytest.raises(ValueError, match="capped at 10 points"):
            quantum_moduli_bruteforce(MapTable(y, x, (0, 1, 2, 3)))


class TestCoarseFlags:
    def test_identity_flags(self):
        x = path_space(4)
        flags = coarse_flags(classical_moduli(MapTable(x, x, (0, 1, 2, 3))))
        assert flags.expanding_at_truncation
        assert flags.coarse_at_truncation

    def test_constant_flags(self):
        x, y = path_space(4), path_space(2)
        flags = coarse_flags(classical_moduli(MapTable(x, y, (0, 0, 0, 0))))
        assert flags.expanding_at_truncation
        assert not flags.coarse_at_truncation
        assert "truncation" in flags.caveat


class TestEquiCoarse:
    def test_family_with_common_bounds(self):
        tables = []
        for n in (3, 4, 5):
            x = path_space(n)
            tables.append(classical_moduli(MapTable(x, x, tuple(range(n)))))
        data = EquiCoarseData(
            f_lower=[(0.0, 0.0), (1.0, 0.5), (2.0, 1.5), (3.0, 2.5)],
            g_upper=[(0.0, 0.5), (1.0, 1.5), (2.0, 2.5), (3.0, 3.5), (4.0, 4.5)],
        )
        out = check_equi_coarse(tables, data)
        assert out["ok"] and out["members"] == 3

    def test_violation_reported(self):
        x = path_space(3)
        tables = [classical_moduli(MapTable(x, x, (0, 1, 2)))]
        data = EquiCoarseData(f_lower=[(0.0, 5.0)], g_upper=[(0.0, 100.0)])
        out = check_equi_coarse(tables, data)
        assert not out["ok"]
        assert out["violations"][0]["modulus"] == "omega_tilde"


@given(st.integers(0, 3_000))
def test_composition_bound(seed):
    # omega_tilde_{g o f}(t) >= omega_tilde_f(omega_tilde_g(t)) at every t,
    # checked against fresh inf-evaluations of the definitions
    rng = np.random.default_rng(seed)
    nx, ny, nz = (int(rng.integers(2, 5)) for _ in range(3))
    x, y, z = (random_space(rng, k) for k in (nx, ny, nz))
    f = tuple(int(i) for i in rng.integers(0, ny, size=nx))
    g = tuple(int(i) for i in rng.integers(0, nz, size=ny))
    fx = np.asarray(f)
    dx = x.d.reshape(-1)
    dy_f = y.d[np.ix_(fx, fx)].reshape(-1)
    dy = y.d.reshape(-1)
    gy = np.asarray(g)
    dz_g = z.d[np.ix_(gy, gy)].reshape(-1)
    gfx = gy[fx]
    dz_gf = z.d[np.ix_(gfx, gfx)].reshape(-1)

    def omega_tilde(dom, img, t):
        sel = dom[img >= t]
        return float(sel.min()) if sel.size else math.inf

    for t in sorted(set(dz_gf.tolist()) | {0.5, 1.7}):
        lhs = omega_tilde(dx, dz_gf, t)
        wg = omega_tilde(dy, dz_g, t)
        rhs = 0.0 if wg == 0.0 else (
            math.inf if math.isinf(wg) else omega_tilde(dx, dy_f, wg))
        assert lhs >= rhs or math.isclose(lhs, rhs)
