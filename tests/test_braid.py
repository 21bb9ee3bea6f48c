"""Hecke, Temperley-Lieb, and blob representations with their quotients."""

import cmath

import numpy as np
import pytest

import spinchain as sc

Q_HECKE = cmath.exp(0.3j)
Q_BLOB = cmath.exp(0.45j)
C_BLOB = 1.3


def worst(residuals: dict) -> float:
    return max(residuals.values())


def test_hecke_u_matrix_entries():
    q = Q_HECKE
    u = sc.hecke_u_matrix(2, q)
    want = np.array(
        [[0, 0, 0, 0], [0, -q, 1, 0], [0, 1, -1 / q, 0], [0, 0, 0, 0]], dtype=complex
    )
    assert np.allclose(u, want)


@pytest.mark.parametrize("n,N", [(2, 2), (2, 4), (3, 3)])
def test_hecke_braid_relations(n, N):
    fam = sc.hecke_rep(n, N, Q_HECKE)
    res = sc.check_braid_hecke(fam)
    assert f"(g1 - q)(g1 + 1/q) = 0" in res
    assert worst(res) < 1e-10
    if N >= 3:
        assert "g1 g2 g1 = g2 g1 g2" in res
        assert "U1 U2 U1 - U1 = U2 U1 U2 - U2" in res
    if N >= 4:
        assert "[g1, g3] = 0" in res


def test_hecke_two_dim_is_temperley_lieb():
    res = sc.check_temperley_lieb(sc.hecke_rep(2, 4, Q_HECKE))
    assert "U1^2 = -(q+1/q) U1" in res
    assert "U1 U2 U1 = U1" in res
    assert worst(res) < 1e-10


def test_hecke_three_dim_is_not_temperley_lieb():
    # the quadratic still holds, but the sandwich relation picks out n=2
    res = sc.check_temperley_lieb(sc.hecke_rep(3, 3, Q_HECKE))
    assert res["U1^2 = -(q+1/q) U1"] < 1e-12
    assert res["U1 U2 U1 = U1"] > 0.1


@pytest.mark.parametrize("N", [2, 3, 4])
def test_blob_relations(N):
    fam = sc.blob_rep(N, Q_HECKE, Q_BLOB, C_BLOB)
    tl = sc.check_temperley_lieb(fam)
    assert "U0^2 = -(Q+1/Q) U0" in tl
    assert worst(tl) < 1e-10
    assert worst(sc.check_braid_hecke(fam)) < 1e-10


def test_blob_quotient_is_one_sided():
    # U1 U0 U1 = kappa U1 holds, but U0 U1 U0 = kappa U0 must not
    fam = sc.blob_rep(2, Q_HECKE, Q_BLOB, C_BLOB)
    kappa = complex(fam.params["kappa"])
    assert abs(kappa - (Q_HECKE / Q_BLOB + Q_BLOB / Q_HECKE)) < 1e-14
    u0, u1 = fam.gen("U0"), fam.gen("U1")
    assert sc.rel_norm(u1 @ u0 @ u1, kappa * u1) < 1e-12
    assert sc.rel_norm(u0 @ u1 @ u0, kappa * u0) > 0.1


def test_btype_quotients():
    fam = sc.blob_rep(3, Q_HECKE, Q_BLOB, C_BLOB)
    res = sc.check_btype_quotients(fam)
    assert res["prod_(k=1..2) (g0 - gamma_k) = 0"] < 1e-12
    assert res["gamma1 gamma2 = -1"] < 1e-12
    with pytest.raises(KeyError):
        sc.check_btype_quotients(sc.hecke_rep(2, 3, Q_HECKE))


def test_baxterize_sinh_decomposition():
    mu = 0.3
    fam = sc.hecke_rep(2, 2, cmath.exp(1j * mu))
    lam = 0.47 - 0.12j
    bx = sc.mat(sc.baxterize(fam, 1, lam))
    model = 2 * cmath.sinh(lam + 1j * mu) * np.eye(4) + 2 * cmath.sinh(lam) * fam.gen("U1")
    assert sc.rel_norm(bx, model) < 1e-12
    # and it reproduces the braided six-vertex matrix
    braided = sc.mat(sc.permutation(2)) @ sc.mat(sc.r_xxz(lam, mu, "homogeneous"))
    assert sc.rel_norm(bx, 2 * braided) < 1e-12


def test_baxterized_family_solves_braided_ybe():
    fam = sc.hecke_rep(2, 2, cmath.exp(1j * 0.3))
    rc = lambda lam: sc.mat(sc.baxterize(fam, 1, lam))
    assert sc.braided_ybe_residual(rc, 0.7, -0.4 + 0.2j) < 1e-11


def test_baxterize_rejects_non_hecke_generator():
    # g0 of a blob family squares against Q, not the bulk q
    fam = sc.blob_rep(2, Q_HECKE, Q_BLOB, C_BLOB)
    with pytest.raises(ValueError):
        sc.baxterize(fam, 0, 0.3)


def test_constructor_guards():
    with pytest.raises(ValueError):
        sc.hecke_rep(1, 3, Q_HECKE)
    with pytest.raises(ValueError):
        sc.hecke_rep(2, 1, Q_HECKE)
    with pytest.raises(ValueError):
        sc.blob_rep(2, Q_HECKE, 0.0, C_BLOB)
