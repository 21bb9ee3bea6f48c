"""Reflection matrices, open transfer families, boundary symmetry, Casimir."""

import cmath
import re
import tracemalloc

import numpy as np
import pytest

import spinchain as sc
from spinchain import lax

MU = 0.3
Q = cmath.exp(1j * MU)
XI = 0.5
KAPPA = 0.27


def rand_pairs(count, seed=7, imag=0.4):
    rng = np.random.default_rng(seed)
    return [
        tuple(rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-imag, imag, 2))
        for _ in range(count)
    ]


def test_k_gz_dvgr_entries_and_origin():
    lam = 0.37 - 0.11j
    kh = sc.mat(sc.k_gz_dvgr(XI, KAPPA, "homogeneous")(lam))
    off = KAPPA * cmath.sinh(2 * lam)
    assert kh[0, 0] == pytest.approx(cmath.sinh(-lam + 1j * XI) * cmath.exp(lam))
    assert kh[1, 1] == pytest.approx(cmath.sinh(lam + 1j * XI) * cmath.exp(-lam))
    assert kh[0, 1] == pytest.approx(off) and kh[1, 0] == pytest.approx(off)
    kp = sc.mat(sc.k_gz_dvgr(XI, KAPPA, "principal")(lam))
    assert kp[0, 0] == pytest.approx(cmath.sinh(-lam + 1j * XI))
    assert kp[1, 1] == pytest.approx(cmath.sinh(lam + 1j * XI))
    assert kp[0, 1] == pytest.approx(off)
    for grad in ("homogeneous", "principal"):
        k0 = sc.mat(sc.k_gz_dvgr(XI, KAPPA, grad)(0.0))
        assert sc.rel_norm(k0, cmath.sinh(1j * XI) * np.eye(2)) < 1e-14
    with pytest.raises(ValueError):
        sc.k_gz_dvgr(XI, KAPPA, "diagonal")


def test_k_blob_structure():
    kb = sc.k_blob(MU, 0.7, 0.4)
    # the docstring's closed form x(l) I + y(l) e at one point pins Q
    lam, q, Qb = 0.37 - 0.1j, cmath.exp(1j * MU), 1j * cmath.exp(1j * MU * 0.7)
    e = np.array([[-1 / Qb, 1.0], [1.0, -Qb]])
    x = ((Qb + 1 / Qb) * cmath.cosh(2 * lam + 1j * MU) - cmath.cosh(2j * MU * 0.4)
         - (q / Qb + Qb / q) * cmath.cosh(2 * lam))
    y = 2 * cmath.sinh(1j * MU) * cmath.sinh(2 * lam)
    assert sc.rel_norm(kb(lam), x * np.eye(2) + y * e) < 1e-14
    # at the origin the idempotent direction drops out
    k0 = sc.mat(kb(0.0))
    assert abs(k0[0, 1]) < 1e-14 and abs(k0[1, 0]) < 1e-14
    assert abs(k0[0, 0] - k0[1, 1]) < 1e-14


@pytest.mark.parametrize(
    "family,k",
    [
        ("xxz_p", "identity"),
        ("xxz_h", "identity"),
        ("xxx", "identity"),
        ("xxz_h", "gz"),
        ("xxz_p", "gz_p"),
        ("xxz_h", "blob"),
    ],
)
def test_reflection_equation(family, k):
    fams = {
        "xxz_p": sc.xxz_family(MU, "principal"),
        "xxz_h": sc.xxz_family(MU, "homogeneous"),
        "xxx": sc.xxx_family(),
    }
    ks = {
        "identity": sc.k_identity(),
        "gz": sc.k_gz_dvgr(XI, KAPPA, "homogeneous"),
        "gz_p": sc.k_gz_dvgr(XI, KAPPA, "principal"),
        "blob": sc.k_blob(MU, 0.7, 0.4),
    }
    for l1, l2 in rand_pairs(8):
        assert sc.re_residual(fams[family], ks[k], l1, l2) < 1e-10


def test_reflection_equation_detects_perturbation():
    fh = sc.xxz_family(MU, "homogeneous")
    kh = sc.k_gz_dvgr(XI, KAPPA, "homogeneous")

    def bad(lam):
        return sc.mat(kh(lam)) + np.array([[0, 0.05], [0, 0]])

    assert sc.re_residual(fh, bad, 0.31, -0.42) > 1e-3


def test_crossed_k_plus_of_identity_is_m():
    kp_h = sc.crossed_k_plus(sc.k_identity(), "xxz", MU, "homogeneous")
    kp_p = sc.crossed_k_plus(sc.k_identity(), "xxz", MU, "principal")
    kp_x = sc.crossed_k_plus(sc.k_identity(), "xxx")
    for lam in (0.0, 0.37, -1.2 + 0.4j):
        assert np.abs(sc.mat(kp_h(lam)) - np.diag([Q, 1 / Q])).max() < 1e-14
        assert np.abs(sc.mat(kp_p(lam)) - np.eye(2)).max() < 1e-14
        assert np.abs(sc.mat(kp_x(lam)) - np.eye(2)).max() < 1e-14
    with pytest.raises(ValueError):
        sc.crossed_k_plus(sc.k_identity(), "xxz", None, "homogeneous")


def test_m_matrix_commutes_with_r():
    m = np.diag([Q, 1 / Q])
    mm = np.kron(m, m)
    for lam in (0.41, -0.7 + 0.2j):
        assert sc.comm_norm(sc.mat(sc.r_xxz(lam, MU, "homogeneous")), mm) < 1e-14
        assert sc.comm_norm(sc.mat(sc.r_xxz(lam, MU, "principal")), np.eye(4)) < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_dressed_reflection_matrices(n):
    rep = sc.uq_sl2_spin_rep(n, Q)
    lx = sc.lax_xxz(rep, "principal", MU)
    fp = sc.xxz_family(MU, "principal")
    dk = lambda lam: sc.dressed_k(lx, sc.k_identity(), lam)
    for l1, l2 in rand_pairs(5, seed=3, imag=0.3):
        assert sc.re_residual(fp, dk, l1, l2) < 1e-10
    # dressing by a c-number solution stays a solution
    if n == 2:
        kp = sc.k_gz_dvgr(XI, KAPPA, "principal")
        dk2 = lambda lam: sc.dressed_k(lx, kp, lam)
        for l1, l2 in rand_pairs(5, seed=5, imag=0.3):
            assert sc.re_residual(fp, dk2, l1, l2) < 1e-10
    # at the origin L(0) K(0) L(0)^-1 collapses back to K(0)
    d0 = sc.mat(sc.dressed_k(lx, sc.k_identity(), 0.0))
    assert sc.rel_norm(d0, np.eye(2 * n)) < 1e-12


@pytest.mark.parametrize(
    "N,kname",
    [(2, "identity"), (4, "identity"), (3, "gz_h"), (3, "gz_p"), (4, "gz_h"), (2, "blob"), (4, "blob")],
)
def test_open_transfer_commutes(N, kname):
    grad = "principal" if kname == "gz_p" else "homogeneous"
    k = {
        "identity": sc.k_identity(),
        "gz_h": sc.k_gz_dvgr(XI, KAPPA, "homogeneous"),
        "gz_p": sc.k_gz_dvgr(XI, KAPPA, "principal"),
        "blob": sc.k_blob(MU, 0.7, 0.4),
    }[kname]
    ch = sc.open_chain("xxz", N, MU, 2, grad, k)
    fam = sc.open_transfer(ch)
    pts = [0.3, -0.7, 0.41 + 0.2j]
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            assert sc.comm_norm(sc.mat(fam(a)), sc.mat(fam(b))) < 1e-9


def _dense_open_transfer(chain):
    # independent oracle: Tr_0[K+ T(l) K- T^{-1}(-l)] with each monodromy a
    # product of embed-placed Lax matrices and T(-l) inverted densely
    dims = (2,) + chain.local_dims

    def monodromy(lam):
        out = np.eye(int(np.prod(dims)), dtype=complex)
        for site, rep in enumerate(chain.site_reps, start=2):
            out = sc.embed(sc.mat(lax._site_lax(chain, rep)(lam)), (1, site), dims) @ out
        return out

    def ev(lam):
        D = int(np.prod(dims)) // 2
        km = sc.embed(chain.boundary.k_minus(lam), 1, (2, D))
        dressed = (monodromy(lam) @ km @ np.linalg.inv(monodromy(-lam))).reshape(2, D, 2, D)
        kp = sc.mat(chain.boundary.k_plus(lam))
        return sum(kp[a, b] * dressed[b, :, a, :] for a in range(2) for b in range(2))

    return ev


def _open_chains():
    gz = {grad: sc.k_gz_dvgr(XI, 0.2, grad) for grad in ("homogeneous", "principal")}
    half = sc.uq_sl2_spin_rep(2, Q)
    return {
        "3-homogeneous-identity": sc.open_chain("xxz", 3, MU, 2, "homogeneous"),
        "4-gz-homogeneous": sc.open_chain("xxz", 4, MU, 2, "homogeneous", gz["homogeneous"]),
        "4-gz-principal": sc.open_chain("xxz", 4, MU, 2, "principal", gz["principal"]),
        "3-spin-one": sc.open_chain("xxz", 3, MU, 3, "principal", gz["principal"]),
        "3-xxx": sc.open_chain("xxx", 3, None, 2),
        "5-blob": sc.open_chain("xxz", 5, MU, 2, "homogeneous", sc.k_blob(MU, 0.7, 0.4)),
        # the reversed kernel pass on unequal site dimensions
        "3-mixed-spin": lax.ChainSpec(
            "xxz", 3, (half, sc.uq_sl2_spin_rep(3, Q), half), MU, "homogeneous",
            sc.open_chain("xxz", 3, MU, 2, "homogeneous", gz["homogeneous"]).boundary,
        ),
    }


OPEN_CHAINS = _open_chains()


@pytest.mark.parametrize("name", sorted(OPEN_CHAINS))
def test_open_transfer_matches_the_dense_inverse(name):
    chain = OPEN_CHAINS[name]
    fam, ref = sc.open_transfer(chain), _dense_open_transfer(chain)
    for lam in (0.37, -0.22 + 0.1j, 0.0, 1.3):
        want = ref(lam)
        assert np.linalg.norm(fam(lam) - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "model, n, grad",
    [("xxx", 2, "principal"), ("xxx", 3, "principal")]
    + [("xxz", n, grad) for n in (2, 3, 4) for grad in ("principal", "homogeneous")],
)
def test_lax_inversion_identity(model, n, grad):
    # L(l) V(2l) L(-l) = f(l) V(2l), V the gradation gauge, or I in the
    # principal gradation and for xxx: the identity open_transfer rests on
    if model == "xxx":
        lx = sc.lax_xxx(sc.sl2_spin_rep(n))
    else:
        lx = sc.lax_xxz(sc.uq_sl2_spin_rep(n, Q), grad, MU)
    for lam in (0.37, -0.22 + 0.1j, 1.3):
        v = sc.gauge_v(2 * lam) if grad == "homogeneous" else np.eye(2)
        vv = np.kron(v, np.eye(n))
        prod = sc.mat(lx(lam)) @ vv @ sc.mat(lx(-lam))
        f = prod[0, 0] / vv[0, 0]
        assert abs(f) > 1e-3
        assert sc.rel_norm(prod, f * vv) < 1e-14


@pytest.mark.parametrize("grad", ["principal", "homogeneous"])
def test_open_transfer_commutes_next_to_a_pole(grad):
    # T(-l) is singular at l = i mu; the dense inverse loses all digits at
    # a distance 1e-6 from it, the product formula none
    chain = sc.open_chain("xxz", 3, MU, 2, grad, sc.k_gz_dvgr(XI, 0.2, grad))
    fam = sc.open_transfer(chain)
    assert sc.comm_norm(fam(1j * MU + 1e-6), fam(0.4)) < 1e-12


@pytest.mark.parametrize("lam", [1j * MU, -1j * MU])
def test_open_transfer_refuses_its_singular_points(lam):
    fam = sc.open_transfer(sc.open_chain("xxz", 3, MU, 2, "principal"))
    with pytest.raises(ValueError, match=re.escape(f"lambda = {complex(lam)}")):
        fam(lam)


def test_open_transfer_inverts_nothing_and_stays_near_its_output(monkeypatch):
    # no dense inverse and no dense monodromy: at N = 8 the transient is a
    # few kernel block states beyond the 256 x 256 output
    def refuse(*args, **kwargs):
        raise AssertionError("a dense inverse or monodromy was formed")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(lax, "monodromy_blocks", refuse)
    monkeypatch.setattr(lax, "monodromy", refuse)
    fam = sc.open_transfer(sc.open_chain("xxz", 8, MU, 2, "principal", sc.k_gz_dvgr(XI, KAPPA)))
    tracemalloc.start()
    try:
        out = fam(0.37)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (256, 256)
    assert peak < out.nbytes + 3 * 16 * sc.linalg.BLOCK_ENTRIES


def test_open_transfer_requires_open_boundary():
    ch = lax.uniform_chain("xxz", 2, MU, 2, "homogeneous")
    with pytest.raises(ValueError):
        sc.open_transfer(ch)


def test_open_transfer_scalar_at_origin():
    ch = sc.open_chain("xxz", 3, MU, 2, "homogeneous", sc.k_gz_dvgr(XI, KAPPA, "homogeneous"))
    t0 = sc.mat(sc.open_transfer(ch)(0.0))
    scalar = np.trace(t0) / t0.shape[0]
    assert abs(scalar) > 1e-6
    assert sc.rel_norm(t0, scalar * np.eye(t0.shape[0])) < 1e-12


def test_open_transfer_quantum_group_symmetry():
    # K- = I, K+ = M: every transfer value commutes with the coproduct images
    ch = sc.open_chain("xxz", 3, MU, 2, "homogeneous", sc.k_identity())
    fam = sc.open_transfer(ch)
    cop = sc.ncoproduct(sc.uq_sl2_spin_rep(2, Q), 3)
    for lam in (0.3, -0.7, 0.45, 0.11 + 0.2j, -0.23):
        tm = sc.mat(fam(lam))
        for label in ("Jp", "Jm", "qJz"):
            assert sc.comm_norm(tm, cop.gen(label)) < 1e-10


def test_open_hamiltonian_fits_invariant_model():
    ch = sc.open_chain("xxz", 3, MU, 2, "homogeneous", sc.k_identity())
    h = sc.mat(sc.open_hamiltonian(ch))
    model = sc.mat(sc.uq_invariant_hamiltonian(3, MU))
    coef, resid = sc.fit_affine(h, [model, np.eye(8)])
    assert resid < 1e-8
    assert abs(coef[0] - (-12.93091258j)) < 1e-6
    assert abs(coef[1] - (-17.93901852j)) < 1e-6
    cop = sc.ncoproduct(sc.uq_sl2_spin_rep(2, Q), 3)
    for label in ("Jp", "Jm", "qJz"):
        assert sc.comm_norm(h, cop.gen(label)) < 1e-10
        assert sc.comm_norm(model, cop.gen(label)) < 1e-12


def test_invariant_hamiltonian_two_site_multiplets():
    # the N=2 spectrum is real: a triplet at cos(mu)/2 and a singlet at
    # -3 cos(mu)/2, with Jz content {-1, 0, 1} and {0}
    h = sc.mat(sc.uq_invariant_hamiltonian(2, MU))
    cop = sc.ncoproduct(sc.uq_sl2_spin_rep(2, Q), 2)
    w, v = np.linalg.eig(h)
    assert np.abs(w.imag).max() < 1e-12
    jz = cop.gen("Jz")
    triplet = np.flatnonzero(np.abs(w - np.cos(MU) / 2) < 1e-10)
    singlet = np.flatnonzero(np.abs(w + 3 * np.cos(MU) / 2) < 1e-10)
    assert len(triplet) == 3 and len(singlet) == 1
    for idx, want in ((triplet, [-1.0, 0.0, 1.0]), (singlet, [0.0])):
        block = v[:, idx]
        jz_block = np.linalg.pinv(block) @ jz @ block
        content = sorted(np.linalg.eigvals(jz_block).real)
        assert np.abs(np.asarray(content) - want).max() < 1e-9


def test_invariant_hamiltonian_three_site_multiplets():
    # non-Hermitian at real mu: cluster complex eigenvalues, then read the
    # Jz content of each eigenspace through the restricted coproduct image
    h = sc.mat(sc.uq_invariant_hamiltonian(3, MU))
    cop = sc.ncoproduct(sc.uq_sl2_spin_rep(2, Q), 3)
    w, v = np.linalg.eig(h)
    jz = cop.gen("Jz")
    clusters = {}
    for i, z in enumerate(w):
        for key in clusters:
            if abs(z - key) < 1e-8:
                clusters[key].append(i)
                break
        else:
            clusters[complex(z)] = [i]
    contents = []
    for key, idx in clusters.items():
        block = v[:, idx]
        jz_block = np.linalg.pinv(block) @ jz @ block
        contents.append(sorted(np.round(np.linalg.eigvals(jz_block).real, 6)))
    contents.sort(key=len)
    assert contents == [[-0.5, 0.5], [-0.5, 0.5], [-1.5, -0.5, 0.5, 1.5]]


@pytest.mark.parametrize("n", [2, 3])
def test_casimir_from_transfer_asymptotics(n):
    rep = sc.uq_sl2_spin_rep(n, Q)
    t_plus, t_minus = sc.casimir_from_asymptotics(rep)
    c = sc.mat(sc.casimir_uq(rep))
    assert sc.rel_norm(sc.mat(t_plus), -Q * c) < 1e-12
    assert sc.rel_norm(sc.mat(t_minus), -(1 / Q) * c) < 1e-12
    for label in ("Jp", "Jm", "qJz"):
        assert sc.comm_norm(sc.mat(t_plus), rep.gen(label)) < 1e-10
    # scalar on the irreducible representation
    scalar = np.trace(sc.mat(t_plus)) / n
    assert sc.rel_norm(sc.mat(t_plus), scalar * np.eye(n)) < 1e-9


def test_blob_open_hamiltonian_two_routes():
    # blob K- with the trivial crossed K+ lands in the span of the blob
    # generators; the boundary coupling and the spectrum agree between the
    # transfer route and the braid-algebra route
    kb = sc.k_blob(MU, 0.7, 0.4)
    kp = sc.crossed_k_plus(sc.k_identity(), "xxz", MU, "homogeneous")
    ch = sc.open_chain("xxz", 3, MU, 2, "homogeneous", kb, kp)
    h = sc.mat(sc.open_hamiltonian(ch))
    blob = sc.blob_rep(3, Q, 1j * cmath.exp(1j * MU * 0.7), 1.0)
    u_sum = sum(blob.gen(f"U{i}") for i in range(1, 3))
    u0 = blob.gen("U0")
    coef, resid = sc.fit_affine(h, [u_sum, u0, np.eye(8)])
    assert resid < 1e-9
    c1 = coef[1] / coef[0]
    assert abs(c1 - 0.11273079) < 1e-6
    route_braid = np.sort_complex(np.linalg.eigvals(u_sum + c1 * u0))
    route_transfer = np.sort_complex(np.linalg.eigvals((h - coef[2] * np.eye(8)) / coef[0]))
    assert np.abs(route_braid - route_transfer).max() < 1e-9


def test_gauge_paired_boundaries_share_spectra():
    # principal and homogeneous pipelines agree when K_p is the two-sided
    # gauge image of a diagonal K_h; the homogeneous identity pairs with
    # diag(e^-l, e^l)
    k_id_p = lambda lam: np.diag([cmath.exp(-lam), cmath.exp(lam)]).astype(complex)
    cases = [
        (2, sc.k_identity(), k_id_p),
        (3, sc.k_identity(), k_id_p),
        (3, sc.k_gz_dvgr(XI, 0.0, "homogeneous"), sc.k_gz_dvgr(XI, 0.0, "principal")),
        (3, sc.k_gz_dvgr(-0.8, 0.0, "homogeneous"), sc.k_gz_dvgr(-0.8, 0.0, "principal")),
    ]
    for N, kh, kp in cases:
        th = sc.open_transfer(sc.open_chain("xxz", N, MU, 2, "homogeneous", kh))
        tp = sc.open_transfer(sc.open_chain("xxz", N, MU, 2, "principal", kp))
        for lam in (0.37, -0.22):
            eh = np.sort_complex(np.linalg.eigvals(sc.mat(th(lam))))
            ep = np.sort_complex(np.linalg.eigvals(sc.mat(tp(lam))))
            assert np.abs(eh - ep).max() / max(np.abs(eh).max(), 1e-300) < 1e-9
    # off-diagonal K breaks the pairing: the two crossing conventions then
    # differ by more than a similarity
    th = sc.open_transfer(
        sc.open_chain("xxz", 2, MU, 2, "homogeneous", sc.k_gz_dvgr(XI, KAPPA, "homogeneous"))
    )
    tp = sc.open_transfer(
        sc.open_chain("xxz", 2, MU, 2, "principal", sc.k_gz_dvgr(XI, KAPPA, "principal"))
    )
    eh = np.sort_complex(np.linalg.eigvals(sc.mat(th(0.37))))
    ep = np.sort_complex(np.linalg.eigvals(sc.mat(tp(0.37))))
    assert np.abs(eh - ep).max() / np.abs(eh).max() > 1e-4


def _re_cases() -> dict:
    fh, fp = sc.xxz_family(MU, "homogeneous"), sc.xxz_family(MU, "principal")
    cases = {
        "identity-xxx": (sc.xxx_family(), sc.k_identity()),
        "gz-dvgr-homogeneous": (fh, sc.k_gz_dvgr(XI, KAPPA, "homogeneous")),
        "gz-dvgr-principal": (fp, sc.k_gz_dvgr(XI, KAPPA, "principal")),
        "blob": (fh, sc.k_blob(MU, 0.7, 0.4)),
    }
    for n in (2, 3):
        lx = sc.lax_xxz(sc.uq_sl2_spin_rep(n, Q), "homogeneous")
        cases[f"dressed-{n}"] = (fh, lambda lam, lx=lx: sc.dressed_k(lx, sc.k_identity(), lam))
    return cases


RE_CASES = _re_cases()


@pytest.mark.parametrize("chunked", [False, True], ids=["one-chunk", "chunks-of-3"])
@pytest.mark.parametrize("case", sorted(RE_CASES))
def test_batched_re_residual_equals_its_scalar_calls(case, chunked, monkeypatch):
    rfam, kfam = RE_CASES[case]
    lam1, lam2 = zip(*rand_pairs(10, seed=9))
    if chunked:
        D = 2 * np.shape(kfam(0.0))[0]
        monkeypatch.setattr(sc.linalg, "BLOCK_ENTRIES", 8 * D * D * 3)
    got = sc.re_residual(rfam, kfam, lam1, lam2)
    assert got.shape == (10,) and got.max() < 1e-10
    assert np.array_equal(got, [sc.re_residual(rfam, kfam, l1, l2) for l1, l2 in zip(lam1, lam2)])


def test_re_residual_keeps_its_shape_checks():
    with pytest.raises(ValueError, match="two-fold tensor square"):
        sc.re_residual(lambda lam: np.eye(3), sc.k_identity(), [0.1, 0.2], [0.3, 0.4])
    with pytest.raises(ValueError, match="K dimension incompatible"):
        sc.re_residual(sc.xxx_family(), lambda lam: np.eye(3), 0.1, 0.3)
