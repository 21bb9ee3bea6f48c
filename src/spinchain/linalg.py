"""Dense complex linear algebra primitives for many-body operator work.

Operators on a tensor product of local spaces are stored as plain dense
matrices together with the ordered list of local dimensions.  At desk scale
(total dimension <= 4096) dense storage and LAPACK eigen-solves beat any
sparse machinery, so that is all we use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Operator:
    """A complex matrix acting on an ordered tensor product of local spaces.

    dims lists the local dimensions in tensor order; entries is the full
    (prod dims) x (prod dims) matrix.
    """

    dims: tuple
    entries: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("dims must be nonempty with every entry >= 1")
        entries = np.asarray(self.entries, dtype=complex)
        side = int(np.prod(dims))
        if entries.shape != (side, side):
            raise ValueError(f"entries must be {side}x{side} for dims {dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries)

    @property
    def side(self) -> int:
        return self.entries.shape[0]

    def __matmul__(self, other: "Operator") -> "Operator":
        return Operator(self.dims, self.entries @ mat(other))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by (real, imag), with matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None


def mat(x) -> np.ndarray:
    """Entries of an Operator, or a bare ndarray coerced to complex."""
    if isinstance(x, Operator):
        return x.entries
    return np.asarray(x, dtype=complex)


def as_operator(x, dims=None) -> Operator:
    if isinstance(x, Operator):
        return x
    m = mat(x)
    if dims is None:
        dims = (m.shape[0],)
    return Operator(tuple(dims), m)


def kron(a, b) -> Operator:
    """Tensor product; dims concatenate, entries follow the block rule
    (A (x) B)_{ij,kl} = a_ij b_kl."""
    a, b = as_operator(a), as_operator(b)
    return Operator(a.dims + b.dims, np.kron(a.entries, b.entries))


def kron_all(*ops) -> np.ndarray:
    """Bare-matrix n-fold Kronecker product, for internal assembly loops."""
    out = np.eye(1, dtype=complex)
    for op in ops:
        out = np.kron(out, mat(op))
    return out


def embed(a, sites, dims) -> np.ndarray:
    """Place an operator on 1-indexed sites of a product space, identity
    everywhere else.

    sites is one site or a tuple of distinct sites in the operator's own
    tensor order, so (N, 1) puts its first factor on the last site.  The
    operator is padded by one Kronecker product with the identity and its
    tensor legs are then moved into chain order.
    """
    dims = tuple(int(d) for d in dims)
    sites = (int(sites),) if np.ndim(sites) == 0 else tuple(int(s) for s in sites)
    N = len(dims)
    if not sites or len(set(sites)) != len(sites) or not all(1 <= s <= N for s in sites):
        raise ValueError(f"sites {sites} invalid for {N} factors")
    m = mat(a)
    side = int(np.prod([dims[s - 1] for s in sites], dtype=np.int64))
    if m.shape != (side, side):
        raise ValueError(f"operator shape {m.shape} != local dimension {side} of sites {sites}")
    D = int(np.prod(dims, dtype=np.int64))
    padded = np.kron(m, np.eye(D // side))
    # legs of padded: the operator's sites, then the other sites in chain order
    order = sites + tuple(s for s in range(1, N + 1) if s not in sites)
    legs = [dims[s - 1] for s in order]
    perm = [order.index(s) for s in range(1, N + 1)]
    tensor = padded.reshape(legs + legs).transpose(perm + [N + p for p in perm])
    return tensor.reshape(D, D)


def embed_pair(a, site: int, dims) -> np.ndarray:
    """Place a two-site operator on the adjacent pair (site, site+1)."""
    return embed(a, (site, site + 1), dims)


def embed_wrap_pair(a, dims) -> np.ndarray:
    """Place a two-site operator on the wrap-around pair (last site, site 1).

    The first tensor index of the operator acts on the last chain site, the
    second on site 1, matching the periodic bond H_{N,1}.
    """
    return embed(a, (len(dims), 1), dims)


def permutation(n: int) -> Operator:
    """Exchange operator on n (x) n: P (a (x) b) = b (x) a; P^2 = I."""
    P = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            P[i * n + j, j * n + i] = 1.0
    return Operator((n, n), P)


def partial_trace_first(op) -> Operator:
    """Trace out the first tensor factor."""
    op = as_operator(op)
    if len(op.dims) < 2:
        raise ValueError("need at least two tensor factors to trace one out")
    n0 = op.dims[0]
    rest = int(np.prod(op.dims[1:], dtype=np.int64))
    blocks = op.entries.reshape(n0, rest, n0, rest)
    return Operator(op.dims[1:], np.trace(blocks, axis1=0, axis2=2))


def eig(op, hermitian: bool = False) -> Spectrum:
    """Eigen-decomposition with deterministic (real, imag) eigenvalue order.

    With hermitian=True the input is symmetrized first and real eigenvalues
    are returned.
    """
    m = mat(op)
    if hermitian:
        w, v = np.linalg.eigh((m + m.conj().T) / 2)
        w = w.astype(complex)
    else:
        w, v = np.linalg.eig(m)
    order = np.lexsort((w.imag, w.real))
    return Spectrum(w[order], v[:, order])


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
