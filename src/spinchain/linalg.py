"""Dense complex linear algebra primitives for many-body operator work.

Every operator on a tensor product of local spaces is a plain dense complex
ndarray; the local dimensions travel with the call that needs them, as in
embed(op, sites, dims).  At desk scale (total dimension <= 4096) dense
storage and LAPACK eigen-solves beat any sparse machinery, so that is all
we use.  embed scatters the operator's entries into a zero D x D matrix
through an index table cached per placement, so the small products of the
verify suites pay for one allocation and one index assignment, not for a
Kronecker product and a transpose.  Nearest-neighbour Hamiltonians are the
exception to embed: the lax module writes their bond terms by basis-index
arithmetic, into the full matrix or into the symmetry-orbit blocks of one
Sz sector, so a spectrum at the cap never holds a 4096 x 4096 array.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# the advertised cap on the Hilbert dimension of every chain
MAX_DIM = 4096


def mat(x) -> np.ndarray:
    """A caller-supplied matrix coerced to a complex ndarray."""
    return np.asarray(x, dtype=complex)


def kron_all(*ops) -> np.ndarray:
    """n-fold Kronecker product of the factors, in order."""
    out = np.eye(1, dtype=complex)
    for op in ops:
        out = np.kron(out, mat(op))
    return out


@lru_cache(maxsize=256)
def _placement(sites: tuple, dims: tuple) -> np.ndarray:
    """Read-only (side, D // side) table of chain basis indices for sites.

    Row i is the operator's basis state i (its sites in its own tensor
    order), column k a basis state of the other sites in chain order, so
    embed's entry (i, j) of the operator lands at out[t[i, k], t[j, k]] for
    every k.  Bad placements raise here, and raise again on every call,
    because lru_cache does not store exceptions.
    """
    N = len(dims)
    if not sites or len(set(sites)) != len(sites) or not all(1 <= s <= N for s in sites):
        raise ValueError(f"sites {sites} invalid for {N} factors")
    order = [s - 1 for s in sites] + [s for s in range(N) if s + 1 not in sites]
    side = int(np.prod([dims[s - 1] for s in sites], dtype=np.int64))
    table = np.arange(int(np.prod(dims, dtype=np.int64))).reshape(dims)
    table = table.transpose(order).reshape(side, -1)
    table.flags.writeable = False
    return table


def embed(a, sites, dims) -> np.ndarray:
    """Place an operator on 1-indexed sites of a product space, identity
    everywhere else.

    sites is one site or a tuple of distinct sites in the operator's own
    tensor order, so (N, 1) puts its first factor on the last site.  The
    operator's entries are scattered into a zero D x D matrix through the
    placement table of (sites, dims), built once per placement and cached.
    A call allocates the one complex D x D output plus index temporaries of
    at most 2 * side * D int64, for side the operator's dimension.
    """
    dims = tuple(int(d) for d in dims)
    sites = tuple(int(s) for s in sites) if np.iterable(sites) else (int(sites),)
    table = _placement(sites, dims)
    m = mat(a)
    side = table.shape[0]
    if m.shape != (side, side):
        raise ValueError(f"operator shape {m.shape} != local dimension {side} of sites {sites}")
    D = table.size
    out = np.zeros((D, D), dtype=complex)
    out[table[:, None, :], table[None, :, :]] = m[:, :, None]
    return out


def embed_pair(a, site: int, dims) -> np.ndarray:
    """Place a two-site operator on the adjacent pair (site, site+1)."""
    return embed(a, (site, site + 1), dims)


def embed_wrap_pair(a, dims) -> np.ndarray:
    """Place a two-site operator on the wrap-around pair (last site, site 1).

    The first tensor index of the operator acts on the last chain site, the
    second on site 1, matching the periodic bond H_{N,1}.
    """
    return embed(a, (len(dims), 1), dims)


def permutation(n: int) -> np.ndarray:
    """Exchange operator on n (x) n: P (a (x) b) = b (x) a; P^2 = I."""
    P = np.zeros((n * n, n * n), dtype=complex)
    # row i n + j holds its one 1 in column j n + i
    P[np.arange(n * n), np.arange(n * n).reshape(n, n).T.ravel()] = 1.0
    return P


def comm_norm(a, b) -> float:
    """Relative Frobenius norm of the commutator [A, B]."""
    A, B = mat(a), mat(b)
    if A.shape != B.shape:
        raise ValueError("commutator needs equal shapes")
    scale = max(1.0, np.linalg.norm(A) * np.linalg.norm(B))
    return float(np.linalg.norm(A @ B - B @ A) / scale)


def rel_norm(a, b) -> float:
    """Relative Frobenius distance between two matrices."""
    A, B = mat(a), mat(b)
    scale = max(np.linalg.norm(A), np.linalg.norm(B), 1e-300)
    return float(np.linalg.norm(A - B) / scale)


def fit_affine(target, basis) -> tuple[np.ndarray, float]:
    """Least-squares fit target ~= sum_k c_k basis_k over matrices.

    Returns (coefficients, relative residual).  Used to pin down the 'up to
    a constant' normalizations that relate transfer-matrix derivatives to
    explicitly displayed Hamiltonians.
    """
    t = mat(target).ravel()
    A = np.stack([mat(b).ravel() for b in basis], axis=1)
    coef, *_ = np.linalg.lstsq(A, t, rcond=None)
    resid = np.linalg.norm(A @ coef - t) / max(np.linalg.norm(t), 1e-300)
    return coef, float(resid)


def polynomial_matrix_coefficients(f, degree: int) -> list:
    """Coefficients c_k with f(x) = sum c_k x^k for a matrix polynomial.

    Exact (up to roundoff) Vandermonde solve from degree+1 samples on
    [-1, 1]; f must be a genuine polynomial of the stated degree.
    """
    pts = np.linspace(-1.0, 1.0, degree + 1)
    vander = np.vander(pts, increasing=True).astype(complex)
    samples = np.stack([mat(f(x)).ravel() for x in pts])
    coef = np.linalg.solve(vander, samples)
    shape = mat(f(pts[0])).shape
    return [coef[k].reshape(shape) for k in range(degree + 1)]


def richardson_derivative(f, x0: float = 0.0, step: float = 1e-5):
    """Central-difference derivative with one Richardson extrapolation step.

    f may return scalars or arrays; the error is O(step^4), far below the
    test tolerances used throughout.
    """
    d1 = (f(x0 + step) - f(x0 - step)) / (2 * step)
    d2 = (f(x0 + 2 * step) - f(x0 - 2 * step)) / (4 * step)
    return (4 * d1 - d2) / 3
