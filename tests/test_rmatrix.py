"""R-matrix families: entries, Yang-Baxter residuals, gauge, intertwining."""

import cmath

import numpy as np
import pytest

import spinchain as sc

MU_VALUES = [0.3, 0.3 + 0.1j]


def seeded_pairs(count: int, seed: int = 11) -> list:
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        z = rng.uniform(-1.4, 1.4, size=4)
        l1, l2 = complex(z[0], z[1]), complex(z[2], z[3])
        if abs(l1) <= 2 and abs(l2) <= 2:
            pairs.append((l1, l2))
    return pairs


def test_r_xxx_entries():
    lam = 0.7 - 0.2j
    r = sc.mat(sc.r_xxx(lam))
    assert np.allclose(r, lam * np.eye(4) + 1j * sc.mat(sc.permutation(2)))


def test_r_xxz_entry_conventions():
    lam, mu = 0.4, 0.3
    r = sc.mat(sc.r_xxz(lam, mu, "homogeneous"))
    assert r[0, 0] == pytest.approx(cmath.sinh(lam + 1j * mu))
    assert r[3, 3] == pytest.approx(cmath.sinh(lam + 1j * mu))
    assert r[1, 1] == pytest.approx(cmath.sinh(lam))
    assert r[1, 2] == pytest.approx(cmath.exp(lam) * cmath.sinh(1j * mu))
    assert r[2, 1] == pytest.approx(cmath.exp(-lam) * cmath.sinh(1j * mu))
    # frozen numbers pin the convention against silent sign flips
    assert r[0, 0] == pytest.approx(0.3924066848326388 + 0.31947873074156474j)
    assert r[2, 1] == pytest.approx(0.19809311853369077j)
    rp = sc.mat(sc.r_xxz(lam, mu, "principal"))
    assert rp[1, 2] == pytest.approx(cmath.sinh(1j * mu))
    assert rp[1, 2] == pytest.approx(rp[2, 1])
    with pytest.raises(ValueError):
        sc.r_xxz(lam, mu, "diagonal")


def test_gauge_relates_the_gradations():
    mu = 0.3 + 0.1j
    for lam in (0.47 - 0.12j, -1.1, 0.9j):
        v_pos = np.kron(sc.gauge_v(lam), np.eye(2))
        v_neg = np.kron(sc.gauge_v(-lam), np.eye(2))
        rh = sc.mat(sc.r_xxz(lam, mu, "homogeneous"))
        rp = sc.mat(sc.r_xxz(lam, mu, "principal"))
        assert sc.rel_norm(v_neg @ rh @ v_pos, rp) < 1e-12


def test_regularity_points():
    c, resid = sc.regularity_constant(sc.xxx_family())
    assert abs(c - 1j) < 1e-14 and resid < 1e-14
    for grad in ("principal", "homogeneous"):
        c, resid = sc.regularity_constant(sc.xxz_family(0.3, grad))
        assert abs(c - cmath.sinh(0.3j)) < 1e-14
        assert resid < 1e-14


@pytest.mark.parametrize("mu", MU_VALUES)
@pytest.mark.parametrize("gradation", ["principal", "homogeneous"])
def test_ybe_xxz(mu, gradation):
    fam = sc.xxz_family(mu, gradation)
    for l1, l2 in seeded_pairs(8):
        assert sc.ybe_residual(fam, l1, l2) < 1e-11


def test_ybe_xxx():
    fam = sc.xxx_family()
    for l1, l2 in seeded_pairs(8):
        assert sc.ybe_residual(fam, l1, l2) < 1e-11


@pytest.mark.parametrize("mu", MU_VALUES)
def test_braided_ybe(mu):
    rc = sc.braided(sc.xxz_family(mu, "homogeneous"))
    for l1, l2 in seeded_pairs(5):
        assert sc.braided_ybe_residual(rc, l1, l2) < 1e-11


def test_r_pm_triangular_pair():
    q = cmath.exp(0.3j)
    rp, rm = sc.r_pm(q)
    mp, mm = sc.mat(rp), sc.mat(rm)
    assert np.allclose(mp, np.triu(mp))
    assert np.allclose(mm, np.tril(mm))
    assert mp[0, 0] == pytest.approx(q) and mm[0, 0] == pytest.approx(1 / q)
    # constant solutions of the Yang-Baxter equation
    assert sc.ybe_residual(lambda _: mp, 0.3, 0.9) < 1e-12
    assert sc.ybe_residual(lambda _: mm, 0.3, 0.9) < 1e-12
    # sinh rebuild of the homogeneous six-vertex matrix
    for lam in (0.47 - 0.12j, -0.8):
        rebuilt = cmath.exp(lam) * mp - cmath.exp(-lam) * mm
        assert sc.rel_norm(rebuilt, 2 * sc.mat(sc.r_xxz(lam, 0.3, "homogeneous"))) < 1e-12


def test_intertwiner_selects_homogeneous_gradation():
    mu = 0.3
    rep = sc.uq_sl2_spin_rep(2, cmath.exp(1j * mu))
    assert sc.intertwiner_residual(sc.xxz_family(mu, "homogeneous"), rep, 0.6) < 1e-10
    assert sc.intertwiner_residual(sc.xxz_family(mu, "principal"), rep, 0.6) > 0.01
    with pytest.raises(ValueError):
        sc.intertwiner_residual(
            sc.xxz_family(mu, "homogeneous"), sc.uq_sl2_spin_rep(3, cmath.exp(1j * mu)), 0.6
        )


def test_ybe_detects_perturbation():
    fam = sc.xxz_family(0.3, "homogeneous")

    def bad(lam):
        m = sc.mat(fam(lam)).copy()
        m[0, 1] += 1e-3
        return m

    assert sc.ybe_residual(bad, 0.6, -0.3) > 1e-5
