"""Dense-operator plumbing: shapes, embeddings, fits, derivatives."""

import numpy as np
import pytest

import spinchain as sc

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_operator_round_trip():
    op = sc.Operator((2, 2), np.eye(4, dtype=complex))
    assert op.dims == (2, 2)
    assert sc.mat(op).shape == (4, 4)
    assert sc.mat(np.eye(3)).dtype == complex


def test_as_operator_infers_square_dims():
    op = sc.linalg.as_operator(np.eye(4))
    assert np.prod(op.dims) == 4


def test_kron_dims_and_entries():
    a = sc.Operator((2,), SX)
    b = sc.Operator((2,), SZ)
    k = sc.kron(a, b)
    assert k.dims == (2, 2)
    assert np.array_equal(sc.mat(k), np.kron(SX, SZ))
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


def test_permutation_swaps_factors():
    p = sc.mat(sc.permutation(2))
    a = np.array([[1, 2], [3, 4.0]])
    b = np.array([[0, 1], [5, 7.0]])
    assert np.allclose(p @ np.kron(a, b) @ p, np.kron(b, a))
    assert np.allclose(p @ p, np.eye(4))


def test_partial_trace_first():
    a = np.array([[1, 2], [3, 4.0]])
    b = np.array([[0, 1], [5, 7.0]])
    op = sc.Operator((2, 2), np.kron(a, b))
    out = sc.partial_trace_first(op)
    assert np.allclose(sc.mat(out), np.trace(a) * b)


def test_eig_sorting_and_vectors():
    m = np.diag([3.0, -1.0, 1.0])
    spec = sc.eig(sc.Operator((3,), m.astype(complex)))
    assert np.allclose(spec.eigenvalues, [-1, 1, 3])
    spec_h = sc.eig(sc.Operator((3,), m.astype(complex)), hermitian=True)
    assert np.allclose(spec_h.eigenvalues, [-1, 1, 3])
    assert spec_h.eigenvectors is not None


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
