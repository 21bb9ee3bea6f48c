"""Lax operators, monodromy/transfer, momentum, charges, display spectra."""

import cmath

import numpy as np
import pytest

import spinchain as sc
from spinchain import lax

MU = 0.3


def test_p_matrix_spin_half_is_permutation():
    pm = sc.mat(sc.p_matrix(sc.sl2_spin_rep(2)))
    assert np.abs(pm - sc.mat(sc.permutation(2))).max() < 1e-15


def test_spin_half_lax_equals_r_matrix():
    lam = 0.41 - 0.23j
    lx = sc.lax_xxx(sc.sl2_spin_rep(2))
    assert np.abs(sc.mat(lx(lam)) - sc.mat(sc.r_xxx(lam))).max() < 1e-14
    rep = sc.uq_sl2_spin_rep(2, cmath.exp(1j * MU))
    for grad in ("principal", "homogeneous"):
        lz = sc.lax_xxz(rep, grad)
        assert np.abs(sc.mat(lz(lam)) - sc.mat(sc.r_xxz(lam, MU, grad))).max() < 1e-14


def test_lax_rejects_inconsistent_mu():
    rep = sc.uq_sl2_spin_rep(2, cmath.exp(1j * MU))
    with pytest.raises(ValueError):
        sc.lax_xxz(rep, "principal", mu=0.5)
    with pytest.raises(ValueError):
        sc.lax_xxz(rep, "diagonal")


@pytest.mark.parametrize("grad", ["principal", "homogeneous"])
def test_rll_spin_one(grad):
    rep = sc.uq_sl2_spin_rep(3, cmath.exp(1j * MU))
    fam = sc.xxz_family(MU, grad)
    lx = sc.lax_xxz(rep, grad)
    for pair in [(0.37, -0.21 + 0.4j), (1.1 - 0.3j, 0.05)]:
        assert sc.rll_residual(fam, lx, *pair) < 1e-10


def test_rll_rational_spin_one():
    lx = sc.lax_xxx(sc.sl2_spin_rep(3))
    assert sc.rll_residual(sc.xxx_family(), lx, 0.37, -0.21 + 0.4j) < 1e-10


def test_rll_cyclic_quartet():
    # all four cyclic-representation Lax operators intertwine with the
    # principal six-vertex R at the root-of-unity point mu = 2 pi k / p
    p, s, k = 5, 0.7, 1
    fam = sc.xxz_family(2 * np.pi * k / p, "principal")
    quartet = [
        sc.lax_generic_xxz(p, s, k),
        sc.lax_sine_gordon(p, s, k),
        sc.lax_qoscillator(p, k),
        sc.lax_liouville(p, s, k),
    ]
    for lx in quartet:
        assert sc.rll_residual(fam, lx, 0.37, -0.21 + 0.4j) < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_triangular_lax_pair(n):
    rep = sc.uq_sl2_spin_rep(n, cmath.exp(1j * MU))
    res = sc.triangular_residuals(rep)
    assert set(res) == {
        "R+ L+1 L+2 = L+2 L+1 R+",
        "R- L-1 L-2 = L-2 L-1 R-",
        "R+ L+1 L-2 = L-2 L+1 R+",
        "e^l L+ - e^-l L- = 2 L^h(l)",
    }
    assert max(res.values()) < 1e-10


def test_monodromy_single_site_is_lax():
    ch = lax.uniform_chain("xxz", 1, MU, 3, "principal")
    lam = 0.6 - 0.1j
    lx = sc.lax_xxz(ch.site_reps[0], "principal")
    assert sc.rel_norm(sc.mat(sc.monodromy(ch, lam)), sc.mat(lx(lam))) < 1e-14


def test_transfer_family_commutes():
    ch = lax.uniform_chain("xxz", 4, MU, 2, "principal")
    fam = sc.transfer(ch)
    pts = [0.29, -0.7 + 0.2j, 1.3j]
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            assert sc.comm_norm(fam(a), fam(b)) < 1e-12


def test_transfer_commutes_on_mixed_spin_chain():
    q = cmath.exp(1j * MU)
    reps = (sc.uq_sl2_spin_rep(2, q), sc.uq_sl2_spin_rep(3, q), sc.uq_sl2_spin_rep(2, q))
    ch = lax.ChainSpec("xxz", 3, reps, MU, "homogeneous")
    fam = sc.transfer(ch)
    assert sc.comm_norm(fam(0.29), fam(-0.7 + 0.2j)) < 1e-12


def test_frt_relation_for_monodromy():
    # the monodromy satisfies the same exchange relation as one Lax matrix
    q = cmath.exp(1j * MU)
    reps = (sc.uq_sl2_spin_rep(2, q), sc.uq_sl2_spin_rep(3, q))
    ch = lax.ChainSpec("xxz", 2, reps, MU, "principal")
    fam = sc.xxz_family(MU, "principal")
    res = sc.rll_residual(fam, lambda lam: sc.monodromy(ch, lam), 0.37, -0.21 + 0.4j, aux_dim=2)
    assert res < 1e-10


@pytest.mark.parametrize(
    "model, N, n",
    [("xxz", 2, 2), ("xxz", 4, 2), ("xxz", 6, 2), ("xxz", 2, 3), ("xxz", 3, 3), ("xxx", 3, 2)],
)
def test_monodromy_blocks_match_kron_recursion(model, N, n):
    # reference: grow every block by an explicit Kronecker product per site
    ch = lax.uniform_chain(model, N, MU if model == "xxz" else None, n)
    lam = 0.41 - 0.23j
    lb = sc.mat(lax._site_lax(ch, ch.site_reps[0])(lam)).reshape(2, n, 2, n)
    ref = [[np.eye(1, dtype=complex) * (a == b) for b in range(2)] for a in range(2)]
    for _ in range(N):
        ref = [
            [sum(np.kron(ref[c][b], lb[a, :, c, :]) for c in range(2)) for b in range(2)]
            for a in range(2)
        ]
    blocks = sc.monodromy_blocks(ch, lam)
    for a in range(2):
        for b in range(2):
            assert np.array_equal(blocks[a][b], ref[a][b])


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (2,) * 4, (3, 3, 3)])
def test_cyclic_shift_matches_basis_rotation(dims):
    D = int(np.prod(dims))
    ref = np.zeros((D, D))
    for col, state in enumerate(np.ndindex(*dims)):
        ref[np.ravel_multi_index(state[-1:] + state[:-1], dims), col] = 1.0
    assert np.array_equal(sc.mat(sc.cyclic_shift_matrix(dims)), ref)


def test_momentum_operator_is_cyclic_shift():
    ch = lax.uniform_chain("xxz", 4, MU, 2, "principal")
    pi_op = sc.mat(sc.momentum_operator(ch))
    shift = sc.mat(sc.cyclic_shift_matrix((2,) * 4))
    assert np.abs(pi_op - shift).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(pi_op, 4) - np.eye(16)).max() < 1e-11
    h = sc.mat(sc.hamiltonian_from_transfer(ch))
    assert sc.comm_norm(pi_op, h) < 1e-11
    chx = lax.uniform_chain("xxx", 3)
    assert np.abs(sc.mat(sc.momentum_operator(chx)) - sc.mat(sc.cyclic_shift_matrix((2,) * 3))).max() < 1e-12


def test_momentum_requires_fundamental_sites():
    ch = lax.uniform_chain("xxz", 2, MU, 3, "principal")
    with pytest.raises(ValueError):
        sc.momentum_operator(ch)


def test_rational_hamiltonian_is_sum_of_permutations():
    ch = lax.uniform_chain("xxx", 4)
    h = sc.mat(sc.hamiltonian_from_transfer(ch))
    p = sc.mat(sc.permutation(2))
    dims = (2,) * 4
    explicit = sum(sc.linalg.embed_pair(p, i, dims) for i in (1, 2, 3))
    explicit = explicit + sc.linalg.embed_wrap_pair(p, dims)
    assert np.abs(h - explicit).max() < 1e-10


def test_hamiltonian_two_routes_agree():
    # c t(0)^-1 t'(0) equals the sum of braided-R derivatives, c = sinh(i mu)
    ch = lax.uniform_chain("xxz", 4, MU, 2, "principal")
    h_sum = sc.mat(sc.hamiltonian_from_transfer(ch))
    h_log = cmath.sinh(1j * MU) * sc.mat(sc.transfer_log_derivative(ch))
    assert sc.rel_norm(h_sum, h_log) < 1e-9


def test_transfer_derivative_fits_display_hamiltonian():
    ch = lax.uniform_chain("xxz", 4, MU, 2, "principal")
    h_raw = sc.mat(sc.hamiltonian_from_transfer(ch))
    display = sc.mat(sc.xxz_hamiltonian(4, np.cos(MU)))
    coef, resid = sc.fit_affine(display, [h_raw, np.eye(16)])
    assert resid < 1e-8
    assert abs(coef[0] + 1.0) < 1e-8


def test_yangian_charge_relations():
    ch = lax.uniform_chain("xxx", 3)
    q0, q1 = sc.yangian_charges(ch)
    delta = np.eye(2)
    worst00 = worst01 = 0.0
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    lhs = sc.mat(q0[a][b]) @ sc.mat(q0[c][d]) - sc.mat(q0[c][d]) @ sc.mat(q0[a][b])
                    rhs = 1j * delta[c][b] * sc.mat(q0[a][d]) - 1j * delta[a][d] * sc.mat(q0[c][b])
                    worst00 = max(worst00, np.abs(lhs - rhs).max())
                    lhs1 = sc.mat(q0[a][b]) @ sc.mat(q1[c][d]) - sc.mat(q1[c][d]) @ sc.mat(q0[a][b])
                    rhs1 = 1j * delta[c][b] * sc.mat(q1[a][d]) - 1j * delta[a][d] * sc.mat(q1[c][b])
                    worst01 = max(worst01, np.abs(lhs1 - rhs1).max())
    assert worst00 < 1e-10
    assert worst01 < 1e-10
    tm = sc.mat(sc.transfer(ch)(0.29))
    assert sc.comm_norm(sc.mat(q0[0][1]), tm) < 1e-12
    # the level-1 charge is not a symmetry of the finite periodic chain
    assert sc.comm_norm(sc.mat(q1[0][1]), tm) > 0.1
    with pytest.raises(ValueError):
        sc.yangian_charges(lax.uniform_chain("xxz", 2, MU))


def test_monodromy_polynomial_coefficients():
    # T(lam) = lam^2 I + i lam (p_1 + p_2) - p_2 p_1 as auxiliary 2x2 blocks
    ch = lax.uniform_chain("xxx", 2)
    coeffs = sc.polynomial_matrix_coefficients(lambda x: sc.mat(sc.monodromy(ch, x)), 2)
    D = 4
    assert np.abs(coeffs[2] - np.eye(2 * D)).max() < 1e-10
    blk = lax.p_blocks(ch.site_reps[0])
    p1 = [[sc.mat(sc.embed(blk[a][b], 1, (2, 2))) for b in range(2)] for a in range(2)]
    p2 = [[sc.mat(sc.embed(blk[a][b], 2, (2, 2))) for b in range(2)] for a in range(2)]

    def auxfull(x, scale):
        out = np.zeros((2 * D, 2 * D), dtype=complex)
        for a in range(2):
            for b in range(2):
                e = np.zeros((2, 2))
                e[a, b] = 1
                out += scale * np.kron(e, x[a][b])
        return out

    lin = auxfull([[p1[a][b] + p2[a][b] for b in range(2)] for a in range(2)], 1j)
    assert np.abs(coeffs[1] - lin).max() < 1e-10
    prod = [[sum(p2[a][c] @ p1[c][b] for c in range(2)) for b in range(2)] for a in range(2)]
    assert np.abs(coeffs[0] - auxfull(prod, -1.0)).max() < 1e-10


def test_xxz_hamiltonian_two_site_matrix():
    delta = 0.5
    h = sc.mat(sc.xxz_hamiltonian(2, delta))
    # basis uu, ud, du, dd
    want = np.array(
        [
            [-delta, 0, 0, 0],
            [0, delta, -2, 0],
            [0, -2, delta, 0],
            [0, 0, 0, -delta],
        ],
        dtype=complex,
    )
    assert np.abs(h - want).max() < 1e-14
    assert np.abs(sc.mat(sc.xxz_hamiltonian(2, delta, "open")) - want).max() < 1e-14
    with pytest.raises(ValueError):
        sc.xxz_hamiltonian(1, delta)


@pytest.mark.parametrize("delta", [-2.0, 0.5, 1.0, 3.0])
def test_two_site_spectrum(delta):
    energies = sorted(rec["energy"] for rec in sc.spectrum_table(2, delta))
    want = sorted([-delta, -delta, delta - 2, delta + 2])
    assert np.abs(np.asarray(energies) - want).max() < 1e-12


def test_spectrum_table_labels():
    tab = sc.spectrum_table(2, 0.5)
    assert tab[0] == {"energy": pytest.approx(-1.5), "momentum": 0, "sz": 0.0}
    assert tab[-1]["momentum"] == 1 and tab[-1]["sz"] == 0.0
    szs = sorted(rec["sz"] for rec in tab)
    assert szs == [-1.0, 0.0, 0.0, 1.0]
    open_tab = sc.spectrum_table(2, 0.5, "open")
    assert all("momentum" not in rec for rec in open_tab)


def test_spectrum_table_ferromagnetic_point_multiplet():
    tab = sc.spectrum_table(4, 1.0)
    e0 = tab[0]["energy"]
    ground = [rec for rec in tab if rec["energy"] - e0 < 1e-8]
    assert len(ground) == 5
    assert sorted(rec["sz"] for rec in ground) == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert all(rec["momentum"] == 0 for rec in ground)


@pytest.mark.parametrize("N, n", [(1, 2), (5, 2), (1, 3), (4, 3)])
def test_sz_sector_indices_match_enumeration(N, n):
    weights = (n - 1) / 2 - np.arange(n)
    totals = [sum(weights[a] for a in state) for state in np.ndindex(*(n,) * N)]
    for m in range(N * (n - 1) + 1):
        want = [i for i, t in enumerate(totals) if t == N * (n - 1) / 2 - m]
        assert sc.sz_sector_indices(N, n, m).tolist() == want


def test_spectrum_table_dimension_gate():
    with pytest.raises(ValueError):
        sc.spectrum_table(13, 0.5)
