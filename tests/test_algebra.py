"""sl2, its q-deformation, cyclic Weyl pairs, co-products, Casimir."""

import cmath

import numpy as np
import pytest

import spinchain as sc

Q = cmath.exp(0.3j)


def worst(residuals: dict) -> float:
    return max(residuals.values())


def test_q_integer_closed_forms():
    assert sc.q_integer(1, Q) == pytest.approx(1.0)
    assert sc.q_integer(2, Q) == pytest.approx(Q + 1 / Q)
    assert sc.q_integer(3, Q) == pytest.approx(Q**2 + 1 + Q**-2)
    # classical limit [k]_q -> k
    assert sc.q_integer(5, 1 + 1e-9) == pytest.approx(5.0, abs=1e-6)


def test_sl2_spin_half_is_pauli_over_two():
    rep = sc.sl2_spin_rep(2)
    assert np.allclose(rep.gen("Jz"), np.diag([0.5, -0.5]))
    assert np.allclose(rep.gen("Jp"), [[0, 1], [0, 0]])
    assert np.allclose(rep.gen("Jm"), [[0, 0], [1, 0]])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sl2_relations(n):
    res = sc.check_relations(sc.sl2_spin_rep(n))
    assert set(res) == {"[Jz, Jp] = +Jp", "[Jz, Jm] = -Jm", "[Jp, Jm] = 2 Jz"}
    assert worst(res) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("q", [Q, 1.3, cmath.exp(0.2 + 0.7j)])
def test_uq_relations(n, q):
    res = sc.check_relations(sc.uq_sl2_spin_rep(n, q))
    assert "[Jp, Jm] = (qJz^2 - qJzInv^2)/(q - q^-1)" in res
    assert "[B, C] = (q - q^-1)(qJz^2 - qJzInv^2)" in res
    assert worst(res) < 1e-10


def test_uq_classical_limit_recovers_sl2():
    q = 1 + 1e-7
    uq = sc.uq_sl2_spin_rep(3, q)
    cl = sc.sl2_spin_rep(3)
    for label in ("Jz", "Jp", "Jm"):
        assert sc.rel_norm(uq.gen(label), cl.gen(label)) < 1e-6


def test_uq_rejects_degenerate_q():
    with pytest.raises(ValueError):
        sc.uq_sl2_spin_rep(2, 1.0)
    with pytest.raises(ValueError):
        sc.uq_sl2_spin_rep(3, -1.0)  # q^2 = 1 kills the dimension-3 ladder
    with pytest.raises(ValueError):
        sc.uq_sl2_spin_rep(2, 0.0)


def test_cyclic_rep_small_case_and_relations():
    rep = sc.cyclic_rep(2)
    assert np.allclose(rep.gen("X"), np.diag([-1, 1]))
    assert np.allclose(rep.gen("Y"), [[0, 1], [1, 0]])
    res = sc.check_relations(sc.cyclic_rep(5))
    assert set(res) == {"XY = q YX", "X^p = 1", "Y^p = 1"}
    assert worst(res) < 1e-12
    with pytest.raises(ValueError):
        sc.cyclic_rep(1)


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (5, 2)])
def test_q_oscillator_relations(p, k):
    res = sc.check_relations(sc.q_oscillator_rep(p, k))
    assert set(res) == {"adag a = 1 - q V^2", "a adag = 1 - q^-1 V^2"}
    assert worst(res) < 1e-12


def test_coproduct_images_satisfy_relations():
    rep = sc.uq_sl2_spin_rep(2, Q)
    cop = sc.coproduct_uq(rep, sc.uq_sl2_spin_rep(3, Q))
    assert worst(sc.check_relations(cop)) < 1e-10
    with pytest.raises(ValueError):
        sc.coproduct_uq(rep, sc.uq_sl2_spin_rep(2, 1.2))


@pytest.mark.parametrize("N", [2, 3, 4])
def test_ncoproduct_images_satisfy_relations(N):
    assert worst(sc.check_relations(sc.ncoproduct(sc.uq_sl2_spin_rep(2, Q), N))) < 1e-10
    assert worst(sc.check_relations(sc.ncoproduct(sc.sl2_spin_rep(2), N))) < 1e-10


def test_ncoproduct_matches_pairwise_coproduct():
    rep = sc.uq_sl2_spin_rep(2, Q)
    two = sc.ncoproduct(rep, 2)
    pair = sc.coproduct_uq(rep, rep)
    for label in ("Jz", "Jp", "Jm", "qJz", "qJzInv"):
        assert sc.rel_norm(two.gen(label), pair.gen(label)) < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_casimir_scalar_on_irrep(n):
    rep = sc.uq_sl2_spin_rep(n, Q)
    c = sc.mat(sc.casimir_uq(rep))
    scalar = Q**n + Q**-n
    assert sc.rel_norm(c, scalar * np.eye(n)) < 1e-12


def test_casimir_commutes_with_coproduct_images():
    rep = sc.uq_sl2_spin_rep(2, Q)
    cop = sc.ncoproduct(rep, 3)
    c = sc.mat(sc.casimir_uq(cop))
    for label in ("Jz", "Jp", "Jm", "qJz"):
        assert sc.comm_norm(c, cop.gen(label)) < 1e-12


def test_casimir_needs_deformed_generators():
    with pytest.raises(KeyError):
        sc.casimir_uq(sc.sl2_spin_rep(2))


def test_rep_accessors_raise_on_unknowns():
    rep = sc.sl2_spin_rep(2)
    with pytest.raises(KeyError):
        rep.gen("nope")
    with pytest.raises(KeyError):
        sc.ncoproduct(rep, 2).gen("nope")


def test_every_generator_set_is_an_algebra_rep():
    # co-products and braid families are representations: one type, read with
    # gen(label) and params
    uq = sc.uq_sl2_spin_rep(2, Q)
    sets = {
        "coproduct_uq": sc.coproduct_uq(uq, uq),
        "ncoproduct deformed": sc.ncoproduct(uq, 3),
        "ncoproduct undeformed": sc.ncoproduct(sc.sl2_spin_rep(2), 3),
        "hecke_rep": sc.hecke_rep(2, 3, Q),
        "blob_rep": sc.blob_rep(3, Q, 1j * Q, 1.0),
    }
    for name, rep in sets.items():
        assert type(rep) is sc.AlgebraRep, name
        with pytest.raises(KeyError):
            rep.gen("nope")
    assert sets["hecke_rep"].params["N"] == sets["blob_rep"].params["N"] == 3
    assert "Coproduct" not in sc.__all__ and "BraidFamily" not in sc.__all__


@pytest.mark.parametrize("name, rep", [
    ("hecke", sc.hecke_rep(2, 3, 0.5)),
    ("blob", sc.blob_rep(3, Q, 1j * Q, 1.0)),
], ids=["hecke", "blob"])
def test_check_relations_refuses_braid_families(name, rep):
    # a Hecke, Temperley-Lieb or blob family has its own checkers in braid:
    # one ValueError that names the family and points there
    with pytest.raises(ValueError, match=f"has no {name} relations; see the braid checkers"):
        sc.check_relations(rep)
