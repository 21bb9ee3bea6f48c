"""Lax operators, monodromy/transfer, momentum, charges, display spectra."""

import cmath
import math
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest

import spinchain as sc
from spinchain import bethe, boundary, lax

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


def _rll_cases() -> dict:
    p, s, k = 5, 0.7, 1
    cyclic_r = sc.xxz_family(2 * np.pi * k / p, "principal")
    cases = {
        "xxx-half": (sc.xxx_family(), sc.lax_xxx(sc.sl2_spin_rep(2))),
        "xxx-one": (sc.xxx_family(), sc.lax_xxx(sc.sl2_spin_rep(3))),
        "generic": (cyclic_r, sc.lax_generic_xxz(p, s, k)),
        "sine-gordon": (cyclic_r, sc.lax_sine_gordon(p, s, k)),
        "q-oscillator": (cyclic_r, sc.lax_qoscillator(p, k)),
        "liouville": (cyclic_r, sc.lax_liouville(p, s, k)),
    }
    for grad in ("principal", "homogeneous"):
        for n in (2, 3):
            rep = sc.uq_sl2_spin_rep(n, cmath.exp(1j * MU))
            cases[f"xxz-{n}-{grad}"] = (sc.xxz_family(MU, grad), sc.lax_xxz(rep, grad))
    return cases


RLL_CASES = _rll_cases()


@pytest.mark.parametrize("chunked", [False, True], ids=["one-chunk", "chunks-of-3"])
@pytest.mark.parametrize("case", sorted(RLL_CASES))
def test_batched_rll_residual_equals_its_scalar_calls(case, chunked, monkeypatch):
    fam, lx = RLL_CASES[case]
    rng = np.random.default_rng(17)
    box = rng.uniform(-1.4, 1.4, size=(10, 4))
    lam1 = [complex(a, b) for a, b, _, _ in box]
    lam2 = [complex(c, d) for _, _, c, d in box]
    if chunked:
        D = 2 * np.shape(lx(0.0))[0]
        monkeypatch.setattr(sc.linalg, "BLOCK_ENTRIES", 8 * D * D * 3)
    got = sc.rll_residual(fam, lx, lam1, lam2)
    assert got.shape == (10,) and got.max() < 1e-10
    assert np.array_equal(got, [sc.rll_residual(fam, lx, l1, l2) for l1, l2 in zip(lam1, lam2)])


def _entrywise_lax_xxz(rep, gradation, mu):
    # each diagonal entry and off-diagonal block written by index
    jz, jp, jm = rep.gen("Jz"), rep.gen("Jp"), rep.gen("Jm")
    weights, c = np.diag(jz), cmath.sinh(1j * mu)
    n = weights.size
    diag = np.arange(n)

    def ev(lam):
        out = np.zeros((2 * n, 2 * n), dtype=complex)
        out[diag, diag] = np.sinh(lam + 1j * mu / 2 + 1j * mu * weights)
        out[n + diag, n + diag] = np.sinh(lam + 1j * mu / 2 - 1j * mu * weights)
        up, down = c * jm, c * jp
        if gradation == "homogeneous":
            up, down = cmath.exp(lam) * up, cmath.exp(-lam) * down
        out[:n, n:], out[n:, :n] = up, down
        return out

    return ev


@pytest.mark.parametrize("grad", ["principal", "homogeneous"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_lax_xxz_equals_its_entrywise_form(n, grad):
    # the diagonal goes in through one strided view; the bits stay the same
    for mu in (MU, 0.7 - 0.2j):
        rep = sc.uq_sl2_spin_rep(n, cmath.exp(1j * mu))
        got, want = sc.lax_xxz(rep, grad, mu), _entrywise_lax_xxz(rep, grad, mu)
        for lam in (0.37, -0.2 + 0.9j, 1.3j, np.complex128(0.1 - 0.5j), 0.0):
            assert got(lam).tobytes() == want(lam).tobytes()


@pytest.mark.parametrize("p, k", [(2, 1), (5, 1), (5, 2), (7, 3)])
def test_cyclic_lax_evaluators_equal_their_block_form(p, k):
    # the evaluators write their four blocks into one matrix; np.block of the
    # same blocks gives the same bits
    s = alpha = 0.7
    _, q, x, xinv, db, dc = lax._cyclic_generic_blocks(p, s, k)
    osc = sc.q_oscillator_rep(p, k)
    v, a, adag = osc.gen("V"), osc.gen("a"), osc.gen("adag")
    vinv = np.diag(1 / np.diag(v))
    xy = x @ sc.cyclic_rep(p, k).gen("Y")
    h = np.eye(p, dtype=complex) + alpha**2 * q * (x @ x)
    generic, qosc, liou = (sc.lax_generic_xxz(p, s, k), sc.lax_qoscillator(p, k),
                           sc.lax_liouville(p, alpha, k))
    for lam in (0.37, -0.2 + 0.9j, 1.3j):
        ep, em = cmath.exp(lam), cmath.exp(-lam)
        assert np.array_equal(generic(lam), np.block([[ep * x - em * xinv, db],
                                                      [dc, ep * xinv - em * x]]))
        assert np.array_equal(qosc(lam), np.block([[ep * v - em * vinv, adag], [a, -em * v]]))
        assert np.array_equal(liou(lam), np.block([[xy, alpha * em * x],
                                                   [alpha * (ep * x - em * xinv),
                                                    h @ np.linalg.inv(xy)]]))


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


def _hand_triangular_products(rep):
    # the triple products of the triangular FRT relations, written out
    rp, rm = sc.r_pm(complex(rep.params["q"]))
    lp, lm = sc.lax_xxz_pm(rep)
    dims = (2, 2, lp.shape[0] // 2)
    rp12, rm12 = sc.embed(rp, (1, 2), dims), sc.embed(rm, (1, 2), dims)
    lp1, lp2 = sc.embed(lp, (1, 3), dims), sc.embed(lp, (2, 3), dims)
    lm1, lm2 = sc.embed(lm, (1, 3), dims), sc.embed(lm, (2, 3), dims)
    return [sc.rel_norm(rp12 @ lp1 @ lp2, lp2 @ lp1 @ rp12),
            sc.rel_norm(rm12 @ lm1 @ lm2, lm2 @ lm1 @ rm12),
            sc.rel_norm(rp12 @ lp1 @ lm2, lm2 @ lp1 @ rp12)]


@pytest.mark.parametrize("mu", [MU, 1.1, 0.3 + 0.2j, -0.7 - 0.45j])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_triangular_residuals_are_the_hand_triple_products(n, mu):
    rep = sc.uq_sl2_spin_rep(n, cmath.exp(1j * mu))
    got = list(sc.triangular_residuals(rep).values())[:3]
    assert [float(r).hex() for r in got] == [float(r).hex() for r in _hand_triangular_products(rep)]


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
    res = sc.rll_residual(fam, lambda lam: sc.monodromy(ch, lam), 0.37, -0.21 + 0.4j)
    assert res < 1e-10


def _kron_blocks(chain, lam):
    # independent dense oracle of the Lax kernel: grow every aux block of
    # T = L_N ... L_1 by an explicit Kronecker product per site
    ref = [[np.eye(1, dtype=complex) * (a == b) for b in range(2)] for a in range(2)]
    for rep in chain.site_reps:
        lmat = sc.mat(lax._site_lax(chain, rep)(lam))
        n = lmat.shape[0] // 2
        lb = lmat.reshape(2, n, 2, n)
        ref = [
            [sum(np.kron(ref[c][b], lb[a, :, c, :]) for c in range(2)) for b in range(2)]
            for a in range(2)
        ]
    return ref


def _close(got, want):
    return np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "model, N, n",
    [("xxz", 2, 2), ("xxz", 4, 2), ("xxz", 6, 2), ("xxz", 2, 3), ("xxz", 3, 3), ("xxx", 3, 2)],
)
def test_monodromy_blocks_match_kron_recursion(model, N, n):
    # the kernel rounds through BLAS products, the reference through
    # broadcast ones, so they agree to rounding rather than bit for bit
    ch = lax.uniform_chain(model, N, MU if model == "xxz" else None, n)
    lam = 0.41 - 0.23j
    ref = _kron_blocks(ch, lam)
    blocks = sc.monodromy_blocks(ch, lam)
    for a in range(2):
        for b in range(2):
            assert _close(blocks[a][b], ref[a][b])


def _mixed_spin_chain():
    q = cmath.exp(1j * MU)
    half = sc.uq_sl2_spin_rep(2, q)
    return lax.ChainSpec("xxz", 3, (half, sc.uq_sl2_spin_rep(3, q), half), MU, "homogeneous")


@pytest.mark.parametrize(
    "chain",
    [
        lax.uniform_chain("xxz", 3, MU, 2),
        lax.uniform_chain("xxz", 6, MU, 2),
        lax.uniform_chain("xxz", 4, MU, 3),
        lax.uniform_chain("xxz", 2, MU, 4),
        _mixed_spin_chain(),
        lax.uniform_chain("xxx", 4, None, 2),
    ],
    ids=["3-half", "6-half", "4-one", "2-three-halves", "mixed-half-one-half", "xxx-4-half"],
)
@pytest.mark.parametrize("lam", [0.37, 0.41 - 0.23j])
def test_apply_monodromy_block_matches_dense(chain, lam):
    # the Kronecker-grown blocks are the oracle of the matrix-free kernel
    D = int(np.prod(chain.local_dims))
    rng = np.random.default_rng(D)
    vec = rng.normal(size=D) + 1j * rng.normal(size=D)
    blocks = _kron_blocks(chain, lam)
    for a in range(2):
        for b in range(2):
            got = lax.apply_monodromy_block(chain, lam, a, b, vec)
            assert _close(got, blocks[a][b] @ vec)
    want = (blocks[0][0] + blocks[1][1]) @ vec
    assert _close(lax.apply_transfer(chain, lam, vec), want)
    assert _close(sc.transfer(chain)(lam) @ vec, want)


@pytest.mark.parametrize(
    "chain",
    [lax.uniform_chain("xxz", 6, MU, 2), lax.uniform_chain("xxz", 4, MU, 3), _mixed_spin_chain()],
    ids=["6-half", "4-one", "mixed-half-one-half"],
)
def test_kernel_matches_dense_across_column_blocks(chain, monkeypatch):
    # blocks of 3 columns in apply_transfer and 6 in apply_monodromy_block:
    # 10 columns span several blocks, the last one ragged
    D = int(np.prod(chain.local_dims))
    monkeypatch.setattr(sc.linalg, "BLOCK_ENTRIES", 12 * D)
    lam = 0.41 - 0.23j
    rng = np.random.default_rng(D)
    cols = rng.normal(size=(D, 10)) + 1j * rng.normal(size=(D, 10))
    blocks = _kron_blocks(chain, lam)
    for a in range(2):
        for b in range(2):
            want = blocks[a][b] @ cols
            got = lax.apply_monodromy_block(chain, lam, a, b, cols)
            assert got.shape == (D, 10)
            assert _close(got, want)
            vec = lax.apply_monodromy_block(chain, lam, a, b, cols[:, 0])
            assert vec.shape == (D,)
            assert _close(vec, want[:, 0])
    want = (blocks[0][0] + blocks[1][1]) @ cols
    got = lax.apply_transfer(chain, lam, cols)
    assert _close(got, want)
    vec = lax.apply_transfer(chain, lam, cols[:, 3])
    assert vec.shape == (D,)
    assert _close(vec, want[:, 3])
    # the dense build, on unit columns, spans several blocks too
    dense = sc.monodromy_blocks(chain, lam)
    assert all(_close(dense[a][b], blocks[a][b]) for a in range(2) for b in range(2))


def test_apply_transfer_is_one_pass_per_column_block(monkeypatch):
    # both aux inputs of a block share one kernel call, as one doubled batch
    calls, kernel = [], lax._apply_monodromy

    def counted(laxes, state):
        calls.append(state.shape)
        return kernel(laxes, state)

    monkeypatch.setattr(lax, "_apply_monodromy", counted)
    chain = lax.uniform_chain("xxz", 10, MU, 2)
    D = 2**10
    width = sc.linalg.BLOCK_ENTRIES // (4 * D)
    cols = np.ones((D, 3 * width + 5))
    lax.apply_transfer(chain, 0.37, cols)
    assert calls == [(2, D, 2 * width)] * 3 + [(2, D, 10)]
    calls.clear()
    lax.apply_monodromy_block(chain, 0.37, 0, 1, cols)
    assert calls == [(2, D, 2 * width)] + [(2, D, width + 5)]


@pytest.mark.parametrize(
    "chain", [lax.uniform_chain("xxz", 5, MU, 2), lax.uniform_chain("xxx", 4)], ids=["xxz-5", "xxx-4"],
)
def test_narrow_blocks_give_the_one_block_bytes(chain, monkeypatch):
    # the block loop with a few columns per block against the same call in
    # one block, bit for bit, from no columns to several ragged blocks; on
    # spin-1/2 sites only, since OpenBLAS rounds a spin-1 site's 6 x 6
    # product differently with the parity of the column count
    D, w, lam = int(np.prod(chain.local_dims)), 3, 0.41 - 0.23j
    rng = np.random.default_rng(D)
    cols = rng.normal(size=(D, 3 * w + 2)) + 1j * rng.normal(size=(D, 3 * w + 2))
    calls = [(1, lambda v: lax.apply_monodromy_block(chain, lam, 1, 0, v)),
             (2, lambda v: lax.apply_transfer(chain, lam, v))]
    inputs = [cols[:, 0]] + [cols[:, :L] for L in (0, 1, w - 1, w, w + 1, 3 * w + 2)]
    wide = [[call(v) for v in inputs] for _, call in calls]
    assert wide[0][1].shape == wide[1][1].shape == (D, 0)
    for (copies, call), want in zip(calls, wide):
        # w columns per block for this call's number of aux inputs
        monkeypatch.setattr(sc.linalg, "BLOCK_ENTRIES", 2 * D * copies * w)
        for v, ref in zip(inputs, want):
            got = call(v)
            assert got.shape == ref.shape == np.shape(v)
            assert got.tobytes() == ref.tobytes()


def test_narrow_blocks_give_the_dense_one_block_bytes(monkeypatch):
    # the dense t, the sector blocks of t and the open transfer (through the
    # mirrored pass) over blocks of 3 columns, against one block
    chain = lax.uniform_chain("xxz", 6, MU, 2)
    sectors = {M: lax.sz_sector_indices(6, 2, M) for M in range(4)}
    open_chain = sc.open_chain("xxz", 6, MU, 2, "homogeneous", sc.k_gz_dvgr(0.5, 0.27))

    def images():
        blocks = bethe._sector_blocks(chain, 0.37, sectors)
        return [lax.transfer(chain)(0.37), boundary.open_transfer(open_chain)(0.37),
                *(blocks[M] for M in sectors)]

    wide = images()
    monkeypatch.setattr(sc.linalg, "BLOCK_ENTRIES", 4 * 2**6 * 3)
    narrow = images()
    assert [m.shape for m in narrow] == [m.shape for m in wide]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(narrow, wide))


def test_multi_block_apply_transfer_memory_stays_near_its_output():
    # a kernel holding full-width states, one pass per aux input, peaks at
    # 8 times the output here (128 MiB); column blocks keep the transient
    # at two block states
    chain = lax.uniform_chain("xxz", 10, MU, 2)
    unit = np.eye(2**10, dtype=complex)
    tracemalloc.start()
    try:
        out = lax.apply_transfer(chain, 0.37, unit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 3 * 16 * sc.linalg.BLOCK_ENTRIES < 2 * out.nbytes


def test_dense_transfer_memory_stays_near_its_output():
    # reading the trace off the column blocks holds no (2, D, 2, D)
    # monodromy, which at N = 10 is 64 MiB on top of the 16 MiB output
    chain = lax.uniform_chain("xxz", 10, MU)
    tracemalloc.start()
    try:
        out = lax.transfer(chain)(0.37)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (2**10, 2**10)
    assert peak < out.nbytes + 3 * 16 * sc.linalg.BLOCK_ENTRIES


def test_single_block_monodromy_is_its_own_state():
    # at D = 256 one column block covers every unit column: the state is the
    # output, so the kernel holds it and its spare, and no third array
    blocks_bytes = 4 * 16 * 256**2
    chain = lax.uniform_chain("xxz", 8, MU, 2)
    tracemalloc.start()
    try:
        blocks = lax.monodromy_blocks(chain, 0.37)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(b.nbytes for row in blocks for b in row) == blocks_bytes
    assert peak < 2 * blocks_bytes + 2**20


def test_apply_transfer_refuses_an_open_chain():
    from spinchain import boundary

    with pytest.raises(ValueError, match="open chains are handled by the boundary module"):
        lax.apply_transfer(boundary.open_chain("xxz", 3, MU), 0.37, np.ones(8))


def test_one_lax_evaluation_per_distinct_site_rep(monkeypatch):
    calls = []
    site_lax = lax._site_lax

    def counted(chain, rep):
        calls.append(rep)
        return site_lax(chain, rep)

    monkeypatch.setattr(lax, "_site_lax", counted)
    sc.monodromy_blocks(lax.uniform_chain("xxz", 6, MU, 2), 0.37)
    assert len(calls) == 1
    calls.clear()
    lax.apply_transfer(_mixed_spin_chain(), 0.37, np.ones(12))
    assert len(calls) == 2


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


@pytest.mark.parametrize("N, n", [(1, 2), (5, 2), (1, 3), (4, 3), (3, 4)])
def test_sz_sector_indices_match_enumeration(N, n):
    weights = (n - 1) / 2 - np.arange(n)
    totals = [sum(weights[a] for a in state) for state in np.ndindex(*(n,) * N)]
    for m in range(-1, N * (n - 1) + 2):
        want = [i for i, t in enumerate(totals) if t == N * (n - 1) / 2 - m]
        sector = sc.sz_sector_indices(N, n, m)
        assert sector.tolist() == want
        # the cached table is read-only, so no caller can corrupt it
        assert sector is sc.sz_sector_indices(N, n, m)
        with pytest.raises(ValueError):
            sector[:1] = 0


def test_spectrum_table_dimension_gate():
    with pytest.raises(ValueError):
        sc.spectrum_table(13, 0.5)


def _embed_bond_sum(bond, N, periodic):
    # the dense reference: one identity-padded placement per bond, in bond order
    dims = (round(bond.shape[0] ** 0.5),) * N
    bonds = [(i, i + 1) for i in range(1, N)] + ([(N, 1)] if periodic else [])
    total = np.zeros((dims[0] ** N,) * 2, dtype=complex)
    for sites in bonds:
        total += sc.linalg.embed(bond, sites, dims)
    return total


def _bit_identical(a, b):
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


_BONDS = {
    "random": np.random.default_rng(5).normal(size=(4, 4, 2)) @ [1, 1j],
    "xxz": lax._xxz_bond(0.37),
    "braided-derivative": sc.linalg.richardson_derivative(
        sc.rmatrix.braided(sc.rmatrix.xxz_family(0.3)), 0.0, 1e-5
    ),
}


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("N", range(2, 8))
@pytest.mark.parametrize("bond", sorted(_BONDS))
def test_bond_sum_equals_embed_sum(bond, N, periodic):
    op = _BONDS[bond]
    assert _bit_identical(lax._bond_sum(op, N, periodic), _embed_bond_sum(op, N, periodic))


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("N", range(2, 6))
def test_bond_sum_generic_local_dimension(N, periodic):
    op = np.random.default_rng(6).normal(size=(9, 9, 2)) @ [1, 1j]
    assert _bit_identical(lax._bond_sum(op, N, periodic), _embed_bond_sum(op, N, periodic))


def _dense_spectrum_table(N, delta, boundary):
    # the full-matrix algorithm: dense H and shift, sliced per Sz sector
    periodic = boundary == "periodic"
    bond = (-0.5 if periodic else -1.0) * lax._xxz_bond(delta)
    h = _embed_bond_sum(bond, N, periodic)
    shift = sc.cyclic_shift_matrix((2,) * N)
    levels = []
    for m in range(N + 1):
        sector = sc.sz_sector_indices(N, 2, m)
        evals, evecs = np.linalg.eigh(h[np.ix_(sector, sector)])
        entry = {"sz": N / 2 - m}
        if not periodic:
            levels.extend([{"energy": float(e), **entry} for e in evals])
            continue
        shift_sector = shift[np.ix_(sector, sector)]
        start = 0
        while start < len(evals):
            stop = start + 1
            while stop < len(evals) and evals[stop] - evals[start] < 1e-10:
                stop += 1
            block = evecs[:, start:stop]
            phases = np.linalg.eigvals(block.conj().T @ shift_sector @ block)
            ks = sorted((round(float(np.angle(p)) * N / (2 * np.pi)) % N) for p in phases)
            levels.extend({"energy": float(evals[start]), "momentum": int(k), **entry} for k in ks)
            start = stop
    levels.sort(key=lambda rec: (rec["energy"], rec["sz"], rec.get("momentum", 0)))
    return levels


def _label_clusters(levels):
    # (sz, momentum) multisets of the runs of levels closer than 1e-8
    clusters = []
    for prev, rec in zip([None] + levels, levels):
        if prev is None or rec["energy"] - prev["energy"] >= 1e-8:
            clusters.append(Counter())
        clusters[-1][rec["sz"], rec.get("momentum")] += 1
    return clusters


@pytest.mark.parametrize(
    "N, boundary",
    [(8, "periodic"), (8, "open"), (7, "periodic"), (7, "open"),
     (6, "periodic"), (6, "open"), (10, "periodic"), (10, "open")],
    ids=["periodic", "open", "periodic-N7", "open-N7",
         "periodic-N6", "open-N6", "periodic-N10", "open-N10"],
)
@pytest.mark.parametrize("delta", [-1.0, -0.45, 0.0, 0.37, 1.0, 2.2])
def test_spectrum_table_equals_dense_algorithm(delta, N, boundary):
    # other eigensolvers change the last bits, so energies match to 1e-12, and
    # every cluster of degenerate levels carries the same (sz, momentum) labels;
    # an odd chain has no k = N/2 block, so all its k > 0 levels come in pairs
    got, want = sc.spectrum_table(N, delta, boundary), _dense_spectrum_table(N, delta, boundary)
    assert len(got) == len(want)
    assert max(abs(a["energy"] - b["energy"]) for a, b in zip(got, want)) < 1e-12
    assert _label_clusters(got) == _label_clusters(want)


def _reflection_matrix(N):
    # |a1 ... aN> -> |aN ... a1>, from the reversed binary digits of each index
    targets = [int(format(x, f"0{N}b")[::-1], 2) for x in range(2**N)]
    out = np.zeros((2**N, 2**N))
    out[targets, np.arange(2**N)] = 1.0
    return out


# periodic cases are named by delta alone, so their test ids stay stable
@pytest.mark.parametrize(
    "delta, boundary",
    [
        pytest.param(delta, boundary, id=f"{delta}" if boundary == "periodic" else f"open-{delta}")
        for boundary in ("periodic", "open")
        for delta in (-1.0, -0.45, 0.37, 1.0, 2.2)
    ],
)
def test_momentum_blocks_are_eigenvectors(delta, boundary):
    periodic = boundary == "periodic"
    for N in range(2, 9):
        h = sc.xxz_hamiltonian(N, delta, boundary)
        # the symmetry g: the one-site shift, or the reflection i -> N + 1 - i
        g = sc.cyclic_shift_matrix((2,) * N) if periodic else _reflection_matrix(N)
        G = N if periodic else 2
        powers = [np.eye(2**N)]
        for _ in range(G - 1):
            powers.append(g @ powers[-1])
        # the spin flip F: index x -> 2^N - 1 - x
        flip = np.arange(2**N)[::-1]
        seen = 0
        for m, momenta, reps, block in lax._symmetry_blocks(N, delta, periodic):
            # the block is the momenta[0] block; its conjugate is the G - k one
            for k, kblock in zip(momenta, (block, block.conj())):
                assert np.abs(kblock - kblock.conj().T).max() < 1e-14
                assert np.isrealobj(kblock) == (2 * k % G == 0)
                # column j is |a(k)> = sum_r e^{-2 pi i k r / G} g^r |a>, a = reps[j], normalized
                basis = sum(np.exp(-2j * np.pi * k * r / G) * powers[r][:, reps] for r in range(G))
                basis /= np.linalg.norm(basis, axis=0)
                energies, vecs = np.linalg.eigh(kblock)
                lifted = basis @ vecs
                assert np.abs(lifted.conj().T @ lifted - np.eye(reps.size)).max() < 1e-12
                assert np.abs(h @ lifted - lifted * energies).max() < 1e-12
                assert np.abs(g @ lifted - np.exp(2j * np.pi * k / G) * lifted).max() < 1e-12
                assert np.isin(reps, sc.sz_sector_indices(N, 2, m)).all()
                # F carries each level to sector N - m, same energy and momentum
                mirrored = lifted[flip]
                outside = np.setdiff1d(np.arange(2**N), sc.sz_sector_indices(N, 2, N - m))
                assert not mirrored[outside].any()
                assert np.abs(h @ mirrored - mirrored * energies).max() < 1e-12
                assert np.abs(g @ mirrored - np.exp(2j * np.pi * k / G) * mirrored).max() < 1e-12
                # the sector N - m block is not built; F gives it, unless 2m = N
                seen += reps.size * (1 if 2 * m == N else 2)
        assert seen == 2**N


@pytest.mark.parametrize("N, solves", [(7, 13), (8, 21), (12, 43)])
def test_spectrum_table_solves_each_momentum_pair_once(N, solves, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    levels = sc.spectrum_table(N, 0.37)
    assert len(calls) == solves
    assert len(levels) == 2**N
    energies = defaultdict(list)
    for rec in levels:
        energies[rec["sz"], rec["momentum"]].append(rec["energy"])
    for (sz, k), values in energies.items():
        assert sorted(values) == sorted(energies.get((sz, -k % N), []))
    # the open chain solves an even and an odd reflection block per Sz >= 0
    # sector, except the fully polarized one, whose one state is its own mirror
    calls.clear()
    assert len(sc.spectrum_table(N, 0.37, "open")) == 2**N
    assert len(calls) == {7: 7, 8: 9, 12: 13}[N]


def _sorted_block_levels(N, delta, boundary):
    # one record per level in block order, then sorted by a Python key
    periodic = boundary == "periodic"
    levels = []
    for m, momenta, _, block in lax._symmetry_blocks(N, delta, periodic):
        energies = np.linalg.eigvalsh(block).tolist()
        labels = [{"momentum": k} for k in momenta] if periodic else [{}]
        # the spin-flipped sector N - m, unless it is this one
        for sz in [N / 2 - m] + ([m - N / 2] if 2 * m != N else []):
            levels += [{"energy": e, "sz": sz, **label} for label in labels for e in energies]
    levels.sort(key=lambda rec: (rec["energy"], rec["sz"], rec.get("momentum", 0)))
    return levels


@pytest.mark.parametrize("N, boundary", [(8, "periodic"), (7, "periodic"), (8, "open"), (7, "open")])
@pytest.mark.parametrize("delta", [0.3, -0.7, 0.0, 0.5, 1.0, -1.0])
def test_spectrum_table_equals_the_sorted_block_records(delta, N, boundary):
    # same records, key order, types and bits; ties keep their block order
    got = sc.spectrum_table(N, delta, boundary)
    assert repr(got) == repr(_sorted_block_levels(N, delta, boundary))


@pytest.mark.parametrize("boundary", ["periodic", "open"])
@pytest.mark.parametrize("N", range(2, 9))
def test_spectrum_table_is_the_record_view_of_the_level_columns(N, boundary):
    # row i of the columns is record i: same keys in the same order, and
    # the same Python values, types and bits
    columns = sc.spectrum_levels(N, 0.37, boundary)
    keys = ["energy", "sz", "momentum"] if boundary == "periodic" else ["energy", "sz"]
    assert list(columns) == keys
    assert [columns[key].dtype for key in keys] == [np.float64, np.float64, np.int64][:len(keys)]
    assert all(columns[key].shape == (2**N,) for key in keys)
    assert (np.diff(columns["energy"]) >= 0).all()
    table = sc.spectrum_table(N, 0.37, boundary)
    assert len(table) == 2**N
    for i, rec in enumerate(table):
        assert list(rec) == keys
        assert [repr(rec[key]) for key in keys] == [repr(columns[key][i].item()) for key in keys]


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_spin_flip_levels_are_bit_identical(boundary):
    # -Sz and +Sz carry the same energy arrays, momentum by momentum
    for N in range(2, 13):
        by_label = defaultdict(list)
        for rec in sc.spectrum_table(N, 0.37, boundary):
            by_label[rec["sz"], rec.get("momentum")].append(rec["energy"])
        assert by_label.keys() == {(-sz, k) for sz, k in by_label}
        for (sz, k), energies in by_label.items():
            assert np.array(energies).tobytes() == np.array(by_label[-sz, k]).tobytes()
        # Sz = 0 is labelled +0.0, never -0.0
        assert all(math.copysign(1.0, sz) == 1.0 for sz, _ in by_label if sz == 0)


@pytest.mark.parametrize("N", [2, 5, 8, 12])
@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_one_eigensolve_per_block_and_no_negative_sz_sector(N, boundary, monkeypatch):
    periodic = boundary == "periodic"
    blocks = list(lax._symmetry_blocks(N, 0.37, periodic))
    # the sectors m = 0 ... N//2, Sz = N/2 - m >= 0, and no other
    assert {m for m, *_ in blocks} == set(range(N // 2 + 1))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    sc.spectrum_table(N, 0.37, boundary)
    assert calls == [block.shape for *_, block in blocks]


def _same_cache(cached, fresh):
    # equal to a fresh build, arrays bit for bit and read-only, so no caller
    # can corrupt the cache
    if isinstance(cached, np.ndarray):
        assert cached.dtype == fresh.dtype and cached.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            cached[(0,) * cached.ndim] = 1
    elif isinstance(cached, tuple):
        assert len(cached) == len(fresh)
        for a, b in zip(cached, fresh):
            _same_cache(a, b)
    else:
        assert cached == fresh


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_cached_orbits_build_the_uncached_blocks(boundary):
    periodic = boundary == "periodic"
    for N in range(2, 11):
        lax._symmetry_orbits.cache_clear()
        lax._symmetry_skeleton.cache_clear()
        cold = list(lax._symmetry_blocks(N, -0.7, periodic))
        _same_cache(lax._symmetry_orbits(N, periodic), lax._symmetry_orbits.__wrapped__(N, periodic))
        _same_cache(lax._symmetry_skeleton(N, periodic), lax._symmetry_skeleton.__wrapped__(N, periodic))
        rep = lax._symmetry_orbits(N, periodic)[1]
        warm = list(lax._symmetry_blocks(N, -0.7, periodic))
        assert len(cold) == len(warm)
        for (m, momenta, reps, block), (m2, momenta2, reps2, block2) in zip(cold, warm):
            assert (m, momenta) == (m2, momenta2)
            assert reps.tolist() == reps2.tolist() and _bit_identical(block, block2)
        # each sector's first block is k = 0, which keeps all of its reps:
        # the orbit representatives with m down spins (binary digits 1)
        firsts = {m: reps for m, momenta, reps, _ in cold if momenta[0] == 0}
        assert sorted(firsts) == list(range(N // 2 + 1))
        for m, reps in firsts.items():
            assert reps.tolist() == [x for x in range(2**N) if rep[x] == x and bin(x).count("1") == m]


def _per_bond_blocks(N, delta, periodic):
    # the blocks built one bond at a time: each bond's terms of H|a>,
    # delta's included, scattered into terms[l, row b, column a], t = g^l b
    G, rep, dist, period = lax._symmetry_orbits(N, periodic)
    bond = (-0.5 if periodic else -1.0) * lax._xxz_bond(delta).real
    angles = 2 * np.pi * (np.outer(np.arange(G // 2 + 1), np.arange(G)) % G) / G
    cos, sin = np.cos(angles), np.sin(angles)
    bonds = [(i, i + 1) for i in range(1, N)] + ([(N, 1)] if periodic else [])
    outs = np.arange(4)[:, None]
    for m in range(N // 2 + 1):
        sector = sc.sz_sector_indices(N, 2, m)
        reps = sector[rep[sector] == sector]
        L, R = reps.size, period[reps]
        cols = np.broadcast_to(np.arange(L), (4, L))
        terms = np.zeros((G, L, L))
        for i, j in bonds:
            wi, wj = 2 ** (N - i), 2 ** (N - j)
            a, b = reps // wi % 2, reps // wj % 2
            amp, target = bond[outs, 2 * a + b], reps + (outs // 2 - a) * wi + (outs % 2 - b) * wj
            hit = amp != 0
            t = target[hit]
            terms[dist[t], np.searchsorted(reps, rep[t]), cols[hit]] += amp[hit]
        terms *= np.sqrt(R / R[:, None])
        re, im = np.tensordot(cos, terms, axes=1), np.tensordot(sin, terms, axes=1)
        for k in range(G // 2 + 1):
            keep = k * R % G == 0
            if keep.any():
                sub = np.ix_(keep, keep)
                if 2 * k % G == 0:
                    yield m, (k,), reps[keep], re[k][sub]
                else:
                    yield m, (k, G - k), reps[keep], re[k][sub] + 1j * im[k][sub]


def _same_blocks(got, want):
    assert len(got) == len(want)
    for (m, momenta, reps, block), (m2, momenta2, reps2, block2) in zip(got, want):
        assert (m, momenta, reps.tolist()) == (m2, momenta2, reps2.tolist())
        assert block.dtype == block2.dtype and block.shape == block2.shape
        assert block.tobytes() == block2.tobytes()


@pytest.mark.parametrize("boundary", ["periodic", "open"])
@pytest.mark.parametrize("delta", [0.0, -0.0, 0.37, -0.7, 1.0, -1.0, 2.5])
def test_skeleton_blocks_equal_the_per_bond_scatter(delta, boundary):
    # bit for bit, signs of zeros included: cold, with the skeleton built by
    # this call, and warm, after a call at another delta
    periodic = boundary == "periodic"
    for N in range(2, 13):
        want = list(_per_bond_blocks(N, delta, periodic))
        lax._symmetry_skeleton.cache_clear()
        _same_blocks(list(lax._symmetry_blocks(N, delta, periodic)), want)
        list(lax._symmetry_blocks(N, 0.9, periodic))
        _same_blocks(list(lax._symmetry_blocks(N, delta, periodic)), want)


def test_skeleton_cache_stays_small():
    # indices and amplitudes only, about 0.4 MB at N = 12 over both
    # boundaries; the dense (G, L, L) terms of each sector would take MBs
    for periodic in (True, False):
        lax._symmetry_orbits(12, periodic)
    for m in range(7):
        sc.sz_sector_indices(12, 2, m)
    lax._symmetry_skeleton.cache_clear()
    tracemalloc.start()
    try:
        for periodic in (True, False):
            lax._symmetry_skeleton(12, periodic)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2**19


@pytest.mark.parametrize("N", [-1, 0, 1])
@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_spectrum_table_refuses_fewer_than_two_sites(N, boundary):
    with pytest.raises(ValueError, match="at least two sites"):
        sc.spectrum_table(N, 0.5, boundary)


@pytest.mark.parametrize("boundary", ["opne", "Periodic", "OPEN", "", None])
def test_unknown_boundary_is_refused(boundary):
    with pytest.raises(ValueError, match="boundary"):
        sc.spectrum_table(4, 0.5, boundary)
    with pytest.raises(ValueError, match="boundary"):
        sc.xxz_hamiltonian(3, 0.5, boundary)


def test_spectrum_table_never_allocates_the_full_space():
    # one 2048 x 2048 complex array alone is 64 MiB
    tracemalloc.start()
    try:
        sc.spectrum_table(11, 0.37)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("delta", [0.5 + 0.3j, 1e-13j])
def test_spectrum_table_rejects_non_real_delta(delta):
    with pytest.raises(ValueError):
        sc.spectrum_table(4, delta)


def test_spectrum_table_takes_the_real_part_at_the_threshold():
    assert sc.spectrum_table(4, 0.5 + 1e-14j) == sc.spectrum_table(4, 0.5)
