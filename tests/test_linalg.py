"""Dense-operator plumbing: shapes, embeddings, fits, derivatives."""

import tracemalloc

import numpy as np
import pytest

import spinchain as sc

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_operator_round_trip():
    # mat is the one coercion for caller-supplied matrices
    assert sc.mat(np.eye(3)).dtype == complex


def test_kron_dims_and_entries():
    assert np.array_equal(sc.kron_all(SX, SZ, SX), np.kron(SX, np.kron(SZ, SX)))


def test_embed_is_one_indexed():
    dims = (2, 2, 2)
    left = sc.mat(sc.embed(SZ, 1, dims))
    mid = sc.mat(sc.embed(SZ, 2, dims))
    assert np.array_equal(left, np.kron(SZ, np.eye(4)))
    assert np.array_equal(mid, np.kron(np.eye(2), np.kron(SZ, np.eye(2))))


def test_embed_pair_and_wrap():
    dims = (2, 2, 2)
    pair = np.kron(SX, SZ)
    spot = sc.linalg.embed_pair(pair, 2, dims)
    assert np.array_equal(spot, np.kron(np.eye(2), pair))
    # wrap couples the last site (left factor) with the first
    wrap = sc.linalg.embed_wrap_pair(pair, dims)
    manual = np.kron(SZ, np.kron(np.eye(2), SX))
    assert np.allclose(wrap, manual)


def _random_matrix(rng, side):
    return rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))


def _chain_kron(factors, dims):
    """Kronecker product over the chain; sites missing from factors get the identity."""
    return sc.kron_all(*(factors.get(s, np.eye(d)) for s, d in enumerate(dims, start=1)))


def _placement_by_permutation(a, sites, dims):
    """kron(a, 1) conjugated by the basis permutation that lists the operator's
    sites first, built by enumerating basis states."""
    order = list(sites) + [s for s in range(1, len(dims) + 1) if s not in sites]
    D = int(np.prod(dims))
    perm = np.zeros((D, D))
    for col, state in enumerate(np.ndindex(*dims)):
        reordered = [state[s - 1] for s in order]
        perm[np.ravel_multi_index(reordered, [dims[s - 1] for s in order]), col] = 1.0
    return perm.T @ np.kron(a, np.eye(D // a.shape[0])) @ perm


@pytest.mark.parametrize(
    "sites, dims",
    [
        ((2,), (2, 2, 2)),
        ((2, 3), (2, 2, 2)),
        ((1, 3), (2, 2, 2)),
        ((3, 1), (2, 2, 2)),
        ((1, 3), (2, 3, 2)),
        ((3, 1), (2, 3, 2)),
        ((2, 1), (2, 3, 2)),
        ((3, 1, 2), (2, 3, 2)),
        ((2, 4, 1), (3, 2, 2, 3)),
        # dimension-1 factors, as for a c-number K on aux (x) aux (x) quantum
        ((1, 2), (2, 2, 1)),
        ((1, 3), (2, 2, 1)),
        ((2,), (1, 3, 1)),
    ],
)
def test_embed_placements(sites, dims):
    rng = np.random.default_rng(len(sites) * 10 + sum(dims))
    local = {s: _random_matrix(rng, dims[s - 1]) for s in sites}
    product = sc.kron_all(*(local[s] for s in sites))
    assert np.allclose(sc.embed(product, sites, dims), _chain_kron(local, dims), atol=1e-13)
    generic = _random_matrix(rng, product.shape[0])
    assert np.array_equal(sc.embed(generic, sites, dims),
                          _placement_by_permutation(generic, sites, dims))


def test_embed_single_site_and_pair_spellings():
    dims = (2, 3, 2)
    a = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(sc.embed(a, 2, dims), sc.embed(a, (2,), dims))
    pair = np.arange(36.0).reshape(6, 6)
    assert np.array_equal(sc.linalg.embed_pair(pair, 1, dims), sc.embed(pair, (1, 2), dims))
    wrap = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(sc.linalg.embed_wrap_pair(wrap, dims), sc.embed(wrap, (3, 1), dims))


@pytest.mark.parametrize(
    "op, sites",
    [
        (SZ, 0),
        (SZ, 4),
        (np.eye(4), (1, 4)),
        (np.eye(4), (2, 2)),
        (np.eye(3), 1),
        (np.eye(4), (1, 2, 3)),
        (np.eye(4), ()),
    ],
    ids=["site-0", "site-N+1", "pair-past-N", "repeated", "wrong-dim", "short-op", "no-sites"],
)
def test_embed_rejects_bad_placement(op, sites):
    with pytest.raises(ValueError):
        sc.embed(op, sites, (2, 2, 2))


def test_embed_returns_fresh_arrays_from_the_cached_table():
    dims = (2, 3, 2)
    a = np.arange(16.0).reshape(4, 4)
    first, second = sc.embed(a, (3, 1), dims), sc.embed(a, (3, 1), dims)
    assert not np.shares_memory(first, second)
    assert first.flags.writeable and second.flags.writeable
    first[:] = 7.0
    assert np.array_equal(sc.embed(a, (3, 1), dims), second)
    # numpy integer sites and list dims are the same placement as the tuples
    assert np.array_equal(sc.embed(a, (np.int64(3), np.int64(1)), [2, 3, 2]), second)
    assert np.array_equal(sc.embed(np.eye(3), np.int64(2), list(dims)),
                          sc.embed(np.eye(3), (2,), dims))
    for _ in range(3):
        with pytest.raises(ValueError):
            sc.embed(np.eye(4), (1, 1), dims)
        with pytest.raises(ValueError):
            sc.embed(np.eye(3), (3, 1), dims)


def test_embed_forms_no_kronecker_product(monkeypatch):
    dims = (2, 3, 2)
    rng = np.random.default_rng(5)
    spellings = [
        (sc.embed, (_random_matrix(rng, 3), 2, dims)),
        (sc.embed, (_random_matrix(rng, 3), (2,), list(dims))),
        (sc.embed, (_random_matrix(rng, 2), np.int64(3), dims)),
        (sc.embed, (_random_matrix(rng, 4), (3, 1), dims)),
        (sc.embed, (_random_matrix(rng, 12), (3, 1, 2), dims)),
        (sc.linalg.embed_pair, (_random_matrix(rng, 6), 1, dims)),
        (sc.linalg.embed_wrap_pair, (_random_matrix(rng, 4), dims)),
    ]
    expected = [f(*args) for f, args in spellings]

    def no_kron(*args):
        raise AssertionError("np.kron called inside the placement kernel")

    monkeypatch.setattr(np, "kron", no_kron)
    sc.linalg._placement.cache_clear()  # the tables are built again under the patch
    for (f, args), want in zip(spellings, expected):
        assert np.array_equal(f(*args), want)


def test_permutation_swaps_factors():
    p = sc.mat(sc.permutation(2))
    a = np.array([[1, 2], [3, 4.0]])
    b = np.array([[0, 1], [5, 7.0]])
    assert np.allclose(p @ np.kron(a, b) @ p, np.kron(b, a))
    assert np.allclose(p @ p, np.eye(4))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_permutation_matches_the_basis_loop(n):
    loop = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            loop[i * n + j, j * n + i] = 1.0
    first, second = sc.permutation(n), sc.permutation(n)
    assert first.tobytes() == loop.tobytes() and first.dtype == loop.dtype
    assert not np.shares_memory(first, second)


def test_comm_norm_and_rel_norm():
    assert sc.comm_norm(SZ, np.eye(2)) == 0.0
    assert sc.comm_norm(SX, SZ) > 1.0
    assert sc.rel_norm(2 * SX, 2 * SX) == 0.0
    assert sc.rel_norm(SX, SZ) > 0.5


def test_fit_affine_recovers_coefficients():
    rng = np.random.default_rng(3)
    b1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b2 = rng.normal(size=(4, 4))
    target = (2.0 - 1.0j) * b1 + 0.25 * b2
    coef, resid = sc.fit_affine(target, [b1, b2])
    assert abs(coef[0] - (2.0 - 1.0j)) < 1e-12
    assert abs(coef[1] - 0.25) < 1e-12
    assert resid < 1e-13
    # a constant offset is only absorbed when the identity is in the basis
    coef2, resid2 = sc.fit_affine(target + 3 * np.eye(4), [b1, b2, np.eye(4)])
    assert abs(coef2[2] - 3.0) < 1e-12 and resid2 < 1e-13


def test_fit_affine_reports_misfit():
    _, resid = sc.fit_affine(SX, [SZ])
    assert resid > 0.9


def test_richardson_derivative():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = lambda lam: np.eye(2) + lam * m + 0.5 * lam**2 * (m @ m)
    d = sc.richardson_derivative(f)
    assert np.abs(d - m).max() < 1e-10


def test_polynomial_matrix_coefficients_exact():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = SX.astype(complex)
    c = SZ.astype(complex)
    f = lambda lam: a + lam * b + lam**2 * c
    coeffs = sc.polynomial_matrix_coefficients(f, 2)
    for got, want in zip(coeffs, (a, b, c)):
        assert np.abs(got - want).max() < 1e-10


def test_embed_rejects_bad_site():
    with pytest.raises((ValueError, IndexError)):
        sc.embed(SZ, 0, (2, 2))


MU = 0.3
Q = np.exp(1j * MU)


def _builders():
    """Every public builder at real arguments, as (thunk -> matrices, side)."""
    spin1 = sc.sl2_spin_rep(3)
    uq1 = sc.uq_sl2_spin_rep(3, Q)
    uq_half = sc.uq_sl2_spin_rep(2, Q)
    xxz3 = sc.uniform_chain("xxz", 3, MU)
    xxx3 = sc.uniform_chain("xxx", 3)
    open3 = sc.open_chain("xxz", 3, MU, 2, "homogeneous")
    hecke = sc.hecke_rep(2, 3, Q)
    # a caller-built representation with float64 generators (exact at real q)
    real_rep = sc.AlgebraRep(
        "real", {k: g.real for k, g in sc.uq_sl2_spin_rep(2, 2.0).generators.items()}, {"q": 2.0}
    )
    gens = lambda rep: list(rep.generators.values())
    flat = lambda nested: [m for row in nested for m in row]
    return {
        "permutation": (lambda: [sc.permutation(3)], 9),
        "embed_and_kron_all": (lambda: [sc.embed(np.eye(2), 2, (2, 2, 2)),
                                        sc.kron_all(np.eye(2), np.eye(2), SZ.real)], 8),
        "r_xxx": (lambda: [sc.r_xxx(0.4)], 4),
        "r_xxz": (lambda: [sc.r_xxz(0.4, MU, g) for g in ("principal", "homogeneous")], 4),
        "r_pm": (lambda: list(sc.r_pm(Q)), 4),
        "families": (lambda: [sc.xxx_family()(0.4), sc.xxz_family(MU)(0.4)], 4),
        "braided": (lambda: [sc.braided(sc.xxx_family())(0.4)], 4),
        "baxterize": (lambda: [sc.baxterize(hecke, 1, 0.4)], 8),
        "sl2_spin_rep": (lambda: gens(spin1), 3),
        "uq_sl2_spin_rep": (lambda: gens(uq1), 3),
        "cyclic_rep": (lambda: gens(sc.cyclic_rep(3)), 3),
        "q_oscillator_rep": (lambda: gens(sc.q_oscillator_rep(3)), 3),
        "coproduct_uq": (lambda: list(sc.coproduct_uq(uq_half, uq_half).generators.values()), 4),
        "ncoproduct": (lambda: list(sc.ncoproduct(sc.sl2_spin_rep(2), 3).generators.values())
                       + list(sc.ncoproduct(uq_half, 3).generators.values()), 8),
        "caller_rep": (lambda: gens(real_rep), 2),
        "caller_rep_coproduct": (lambda: list(sc.coproduct_uq(real_rep, real_rep).generators.values()), 4),
        "casimir_uq": (lambda: [sc.casimir_uq(uq1)], 3),
        "casimir_uq_coproduct": (lambda: [sc.casimir_uq(sc.coproduct_uq(uq_half, uq_half))], 4),
        "hecke_rep": (lambda: gens(hecke), 8),
        "blob_rep": (lambda: gens(sc.blob_rep(3, Q, 1j * Q, 1.0)), 8),
        "p_matrix": (lambda: [sc.p_matrix(spin1)], 6),
        "lax_xxx": (lambda: [sc.lax_xxx(spin1)(0.4)], 6),
        "lax_xxz": (lambda: [sc.lax_xxz(uq1, g)(0.4) for g in ("principal", "homogeneous")], 6),
        "lax_xxz_pm": (lambda: list(sc.lax_xxz_pm(uq1)), 6),
        "cyclic_lax": (lambda: [sc.lax_generic_xxz(3, 0.7)(0.4), sc.lax_sine_gordon(3, 0.7)(0.4),
                                sc.lax_qoscillator(3)(0.4), sc.lax_liouville(3, 0.7)(0.4)], 6),
        "monodromy": (lambda: [sc.monodromy(xxz3, 0.4)], 16),
        "monodromy_blocks": (lambda: flat(sc.monodromy_blocks(xxz3, 0.4)), 8),
        "transfer": (lambda: [sc.transfer(xxz3)(0.4), sc.transfer(xxx3)(0.4)], 8),
        "cyclic_shift_matrix": (lambda: [sc.cyclic_shift_matrix((2, 2, 2))], 8),
        "momentum_operator": (lambda: [sc.momentum_operator(xxx3)], 8),
        "hamiltonian_from_transfer": (lambda: [sc.hamiltonian_from_transfer(xxx3)], 8),
        "transfer_log_derivative": (lambda: [sc.transfer_log_derivative(xxz3)], 8),
        "yangian_charges": (lambda: [m for q in sc.yangian_charges(xxx3) for m in flat(q)], 8),
        "xxz_hamiltonian": (lambda: [sc.xxz_hamiltonian(3, 0.5, b) for b in ("periodic", "open")], 8),
        "k_families": (lambda: [sc.k_identity()(0.4), sc.k_gz_dvgr(0.5, 0.2)(0.4),
                                sc.k_gz_dvgr(0.5, 0.2, "homogeneous")(0.4),
                                sc.k_blob(MU, 0.7, 0.4)(0.4),
                                sc.crossed_k_plus(sc.k_identity(), "xxz", MU)(0.4),
                                sc.crossed_k_plus(sc.k_identity(), "xxx")(0.4)], 2),
        "dressed_k": (lambda: [sc.dressed_k(sc.lax_xxz(uq1), sc.k_identity(), 0.4)], 6),
        "open_transfer": (lambda: [sc.open_transfer(open3)(0.4)], 8),
        "open_hamiltonian": (lambda: [sc.open_hamiltonian(open3)], 8),
        "casimir_from_asymptotics": (lambda: list(sc.casimir_from_asymptotics(uq1)), 3),
        "uq_invariant_hamiltonian": (lambda: [sc.uq_invariant_hamiltonian(3, MU)], 8),
    }


_BUILDERS = _builders()


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_builders_return_complex_ndarray(name):
    thunk, side = _BUILDERS[name]
    for m in thunk():
        assert type(m) is np.ndarray
        assert m.dtype == np.complex128
        assert m.shape == (side, side)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 5)])
@pytest.mark.parametrize("sites", [(1, 2), (2, 1), (1, 3), (3, 1)])
def test_embed_of_a_stack_is_the_stack_of_its_embeds(sites, dims):
    rng = np.random.default_rng(len(sites) + sum(dims))
    side = int(np.prod([dims[s - 1] for s in sites]))
    stack = np.stack([_random_matrix(rng, side) for _ in range(4)])
    got = sc.embed(stack, sites, dims)
    D = int(np.prod(dims))
    assert got.shape == (4, D, D)
    for m, placed in zip(stack, got):
        assert np.array_equal(placed, sc.embed(m, sites, dims))


def test_embed_of_a_stack_refuses_a_wrong_trailing_shape():
    dims = (2, 2, 5)
    with pytest.raises(ValueError) as single:
        sc.embed(np.eye(4), (1, 3), dims)
    with pytest.raises(ValueError) as stacked:
        sc.embed(np.stack([np.eye(4)] * 3), (1, 3), dims)
    assert str(stacked.value) == str(single.value)
    with pytest.raises(ValueError):
        sc.embed(np.ones((2, 1, 10, 10)), (1, 3), dims)


@pytest.mark.parametrize("side", [2, 4, 9, 20, 64])
def test_stacked_norms_equal_their_slices_bit_for_bit(side):
    rng = np.random.default_rng(side)
    a = np.stack([_random_matrix(rng, side) for _ in range(6)])
    b = a + 1e-9 * np.stack([_random_matrix(rng, side) for _ in range(6)])
    rel, comm = sc.rel_norm(a, b), sc.comm_norm(a, b[0])
    assert rel.shape == comm.shape == (6,)
    assert np.array_equal(rel, [sc.rel_norm(x, y) for x, y in zip(a, b)])
    assert np.array_equal(comm, [sc.comm_norm(x, b[0]) for x in a])
    assert type(sc.rel_norm(a[0], b[0])) is float


def test_over_draws_chunks_under_the_entries_budget(monkeypatch):
    sizes = []

    def combine(dims, stack):
        sizes.append(len(stack))
        return stack[:, 0, 0].real

    evaluated = []

    def evaluate(lam):
        # one call per chunk, on the chunk's array of draws, after one on the
        # first draw alone that gives dims its matrices
        evaluated.append(len(lam))
        return (np.multiply.outer(lam, np.eye(2)),)

    lams = [float(i) for i in range(10)]
    # dims (2,) place each draw on D = 2: eight stacks of 3 draws fill the budget
    monkeypatch.setattr(sc.linalg, "BLOCK_ENTRIES", 8 * 4 * 3)
    got = sc.linalg.over_draws(evaluate, lambda m: (2,), combine, lams)
    assert sizes == [3, 3, 3, 1] and evaluated == [1, 3, 3, 3, 1]
    assert np.array_equal(got, lams)
    assert sc.linalg.over_draws(evaluate, lambda m: (2,), combine, 4.0) == 4.0


def test_chunked_residual_memory_stays_near_the_budget():
    # 4000 draws on n^3 = 8 stack to 4 MiB per placed matrix; chunks of
    # BLOCK_ENTRIES // (8 * 64) draws keep the transient near the budget
    rng = np.random.default_rng(3)
    lam1 = list(rng.uniform(-1, 1, 4000) + 1j * rng.uniform(-1, 1, 4000))
    lam2 = list(rng.uniform(-1, 1, 4000) + 1j * rng.uniform(-1, 1, 4000))
    fam = sc.xxz_family(0.3)
    budget = 16 * sc.linalg.BLOCK_ENTRIES
    tracemalloc.start()
    try:
        got = sc.ybe_residual(fam, lam1, lam2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.max() < 1e-11
    assert peak < 2 * budget < 4000 * 64 * 16 * 8


def _stacking_families() -> dict:
    # every family on the stack convention, with the cli's perturbed wrapper
    # and gauge check; the dressed K is marked as the re suite marks it
    from functools import partial

    from spinchain import cli

    fh, fp = sc.xxz_family(MU, "homogeneous"), sc.xxz_family(MU, "principal")
    fams = {
        "r_xxx": sc.r_xxx,
        "r_xxz-principal": fp,
        "r_xxz-homogeneous": fh,
        "gauge_v": sc.gauge_v,
        "braided": sc.braided(fh),
        "braided-scalar-only": sc.braided(lambda lam: sc.r_xxz(lam, MU)),
        "k_identity": sc.k_identity(),
        "k_gz_dvgr-principal": sc.k_gz_dvgr(0.5, 0.2, "principal"),
        "k_gz_dvgr-homogeneous": sc.k_gz_dvgr(0.5, 0.2, "homogeneous"),
        "k_blob": sc.k_blob(MU, 0.7, 0.4),
        "lax_generic_xxz": sc.lax_generic_xxz(5, 0.7),
        "lax_sine_gordon": sc.lax_sine_gordon(5, 0.7),
        "lax_qoscillator": sc.lax_qoscillator(4, 3),
        "lax_liouville": sc.lax_liouville(5, 0.7),
        "perturbed-r_xxz": cli._perturbed(fh, 1e-4),
        "perturbed-k_gz_dvgr": cli._perturbed(sc.k_gz_dvgr(0.5, 0.2, "principal"), 1e-4),
        "perturbed-scalar-only": cli._perturbed(lambda lam: sc.r_xxz(lam, MU), 1e-4),
        "gauge_gaps": lambda lam: cli._gauge_gaps(MU, 0.0, lam),
        "gauge_gaps-perturbed": lambda lam: cli._gauge_gaps(MU, 1e-4, lam),
    }
    for n, spin in ((2, "1/2"), (3, "1")):
        fams[f"lax_xxx-spin-{spin}"] = sc.lax_xxx(sc.sl2_spin_rep(n))
        for grad in ("principal", "homogeneous"):
            lx = sc.lax_xxz(sc.uq_sl2_spin_rep(n, Q), grad)
            fams[f"lax_xxz-spin-{spin}-{grad}"] = lx
            fams[f"dressed_k-spin-{spin}-{grad}"] = sc.linalg.stacking(
                partial(sc.dressed_k, lx, sc.k_gz_dvgr(0.5, 0.2, grad)))
    return fams


_STACKING = _stacking_families()


@pytest.mark.parametrize("draws", ["complex", "real"])
@pytest.mark.parametrize("name", sorted(_STACKING))
def test_family_stack_slices_equal_the_scalar_calls(name, draws):
    rng = np.random.default_rng(11)
    if draws == "complex":
        lams = rng.uniform(-1.4, 1.4, 7) + 1j * rng.uniform(-1.4, 1.4, 7)
    else:
        lams = np.array([0.0, 0.37, -0.5, 1.2, -1.3])
    fam = _STACKING[name]
    stack = fam(lams)
    assert len(stack) == len(lams)
    for got, lam in zip(stack, lams.tolist()):
        assert np.array_equal(got, fam(lam))


def test_at_draws_loops_over_a_scalar_only_callable():
    calls = []

    def scalar_only(lam):
        assert type(lam) in (float, complex)  # a Python number, never an array
        calls.append(lam)
        return sc.r_xxz(lam, MU)

    lams = np.array([0.1 + 0.2j, -0.3j, 0.5])
    got = sc.linalg.at_draws(scalar_only, lams)
    assert calls == lams.tolist() and got.shape == (3, 4, 4)
    assert np.array_equal(got, sc.linalg.at_draws(sc.xxz_family(MU), lams))
    assert np.array_equal(sc.linalg.at_draws(scalar_only, 0.5), sc.r_xxz(0.5, MU))
