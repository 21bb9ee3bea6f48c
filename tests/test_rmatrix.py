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


def test_intertwiner_residual_of_a_nan_r_is_nan():
    rep = sc.uq_sl2_spin_rep(2, cmath.exp(0.3j))
    nan_r = lambda lam: np.full((4, 4), np.nan, dtype=complex)
    assert np.isnan(sc.intertwiner_residual(nan_r, rep, 0.6))
    assert np.isnan(sc.intertwiner_residual(nan_r, rep, [0.6, -0.2])).all()


def test_ybe_detects_perturbation():
    fam = sc.xxz_family(0.3, "homogeneous")

    def bad(lam):
        m = sc.mat(fam(lam)).copy()
        m[0, 1] += 1e-3
        return m

    assert sc.ybe_residual(bad, 0.6, -0.3) > 1e-5


def _draws(count: int, seed: int = 5) -> tuple:
    pairs = seeded_pairs(count, seed)
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _spin_one_yang(lam):
    # lambda I + i P on C^3 (x) C^3, the rational R of the spin-1 fundamental
    return lam * np.eye(9) + 1j * sc.permutation(3)


def _perturbed_xxz(lam):
    m = sc.mat(sc.r_xxz(lam, 0.3, "homogeneous")).copy()
    m[0, 1] += 1e-4
    return m


YBE_CASES = {
    "xxx": (sc.ybe_residual, sc.xxx_family()),
    "xxz-homogeneous": (sc.ybe_residual, sc.xxz_family(0.3, "homogeneous")),
    "xxz-principal": (sc.ybe_residual, sc.xxz_family(0.3 + 0.1j, "principal")),
    "xxz-perturbed": (sc.ybe_residual, _perturbed_xxz),
    "spin-one-yang": (sc.ybe_residual, _spin_one_yang),
    "braided": (sc.braided_ybe_residual, sc.braided(sc.xxz_family(0.3, "homogeneous"))),
}


@pytest.mark.parametrize("budget_draws", [None, 3])
@pytest.mark.parametrize("case", sorted(YBE_CASES))
def test_batched_ybe_residuals_equal_their_scalar_calls(case, budget_draws, monkeypatch):
    residual, fam = YBE_CASES[case]
    lam1, lam2 = _draws(10)
    if budget_draws:
        # chunks of 3 draws: 3 + 3 + 3 + 1
        D = round(np.shape(fam(0.0))[0] ** 1.5)
        monkeypatch.setattr(sc.linalg, "BLOCK_ENTRIES", 8 * D * D * budget_draws)
    got = residual(fam, lam1, lam2)
    assert isinstance(got, np.ndarray) and got.shape == (10,)
    want = [residual(fam, l1, l2) for l1, l2 in zip(lam1, lam2)]
    assert all(type(w) is float for w in want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n, fam", [(2, sc.xxz_family(0.3, "homogeneous")),
                                    (2, sc.xxz_family(0.3, "principal")),
                                    (3, _spin_one_yang)], ids=["half-hom", "half-pri", "one"])
def test_batched_intertwiner_builds_the_coproduct_once(n, fam, monkeypatch):
    from spinchain import rmatrix

    rep = sc.uq_sl2_spin_rep(n, cmath.exp(0.3j))
    lams, _ = _draws(7)
    calls, build = [], rmatrix.coproduct_uq

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(rmatrix, "coproduct_uq", counted)
    got = sc.intertwiner_residual(fam, rep, lams)
    assert len(calls) == 1
    assert np.array_equal(got, [sc.intertwiner_residual(fam, rep, lam) for lam in lams])
    assert len(calls) == 1 + len(lams)


@pytest.mark.parametrize("lam1, lam2", [([0.1, 0.2], [0.3]), ([], []), (0.1, [0.2]),
                                        ([[0.1, 0.2]], [[0.3, 0.4]])],
                         ids=["unequal", "empty", "mixed", "two-dimensional"])
def test_residual_draw_lists_are_checked(lam1, lam2):
    fam = sc.xxz_family(0.3)
    with pytest.raises(ValueError):
        sc.ybe_residual(fam, lam1, lam2)
