"""Boundary (reflection) machinery for open chains.

c-number K-matrices solving the reflection equation, the crossing
construction K+ = M K^t(-lambda - i rho), operator dressings, the open
transfer matrix Tr_0[K+ T K- T^{-1}(-lambda)] on the lax module's kernel,
with no inverse, open Hamiltonians and the quadratic Casimir of the transfer
asymptotics.  Every K and open transfer family is a function lambda ->
ndarray; the K families and the dressed K follow the stack convention of
`linalg` (a scalar lambda gives a matrix, a 1-D array of lambdas the
(P, s, s) stack), while crossed K+ and the open transfer take scalars.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .lax import (
    ChainSpec,
    _PAULI,
    _apply_blocks,
    _bond_sum,
    _xxz_bond,
    site_lax_matrices,
    uniform_chain,
)
from .linalg import (
    at_draws, draw_shape, embed, mat, over_draws, per_draw, rel_norm, richardson_derivative,
    stacking,
)
from .rmatrix import gauge_v


@dataclass(frozen=True)
class OpenBoundary:
    """A (K-, K+) pairing attached to a ChainSpec via its boundary field;
    each is a function lambda -> 2x2 matrix."""

    k_minus: object
    k_plus: object


def k_identity():
    """The constant family lambda -> I: scalar -> matrix, 1-D array -> stack,
    read-only, since one identity serves every draw of every call."""
    eye = np.eye(2, dtype=complex)
    eye.flags.writeable = False

    @stacking
    def ev(lam) -> np.ndarray:
        shape = draw_shape(lam)
        return np.broadcast_to(eye, shape + (2, 2)) if shape else eye

    return ev


def k_gz_dvgr(xi: complex, kappa: complex, gradation: str = "principal"):
    """Non-diagonal reflection matrix with parameters (xi, kappa).

    Homogeneous form [[sinh(-l + i xi) e^l, kappa sinh 2l],
    [kappa sinh 2l, sinh(l + i xi) e^{-l}]]; the principal form is the
    two-sided gauge V(-l) K^h(l) V(-l).  kappa = 0 is diagonal and
    K(0) = sinh(i xi) I.  Scalar -> matrix, 1-D array -> stack.
    """
    if gradation not in ("principal", "homogeneous"):
        raise ValueError(f"unknown gradation {gradation!r}")

    @stacking
    def ev(lam) -> np.ndarray:
        k = np.empty(draw_shape(lam) + (2, 2), dtype=complex)
        k[..., 0, 0] = per_draw(lambda l: cmath.sinh(-l + 1j * xi) * cmath.exp(l), lam, 0)
        k[..., 0, 1] = k[..., 1, 0] = per_draw(lambda l: kappa * cmath.sinh(2 * l), lam, 0)
        k[..., 1, 1] = per_draw(lambda l: cmath.sinh(l + 1j * xi) * cmath.exp(-l), lam, 0)
        if gradation == "principal":
            v = gauge_v(-lam)
            k = v @ k @ v
        return k

    return ev


def k_blob(mu: complex, m: complex, gamma: complex, c: complex = 1.0):
    """Boundary matrix x(l) I + y(l) e built on the blob idempotent direction.

    e = [[-1/Q, c], [1/c, -Q]] with Q = i e^{i mu m},
    x(l) = (Q + 1/Q) cosh(2l + i mu) - cosh(2 i mu gamma) - kappa cosh 2l,
    y(l) = 2 sinh(i mu) sinh 2l, kappa = q/Q + Q/q, q = e^{i mu}.
    Pairs with the homogeneous-gradation R family.  Scalar -> matrix, 1-D
    array -> stack.
    """
    q = cmath.exp(1j * mu)
    Q = 1j * cmath.exp(1j * mu * m)
    kappa = q / Q + Q / q
    e = np.array([[-1 / Q, c], [1 / c, -Q]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def x(l):
        return (Q + 1 / Q) * cmath.cosh(2 * l + 1j * mu) - cmath.cosh(2j * mu * gamma) - kappa * cmath.cosh(2 * l)

    def y(l):
        return 2 * cmath.sinh(1j * mu) * cmath.sinh(2 * l)

    @stacking
    def ev(lam) -> np.ndarray:
        return per_draw(x, lam) * eye + per_draw(y, lam) * e

    return ev


def crossed_k_plus(k_minus, model: str = "xxz", mu: complex | None = None,
                   gradation: str = "principal"):
    """K+(l) = M K-^t(-l - i mu rho) with crossing parameter rho = 1.

    M is the identity in the principal gradation and diag(q, 1/q) in the
    homogeneous one; the rational chain uses shift i and M = I.
    """
    if model == "xxx":
        shift = 1j
        m = np.eye(2, dtype=complex)
    elif model == "xxz":
        if mu is None:
            raise ValueError("crossing for the trigonometric chain needs mu")
        shift = 1j * complex(mu)
        if gradation == "homogeneous":
            q = cmath.exp(1j * complex(mu))
            m = np.diag([q, 1 / q]).astype(complex)
        elif gradation == "principal":
            m = np.eye(2, dtype=complex)
        else:
            raise ValueError(f"unknown gradation {gradation!r}")
    else:
        raise ValueError(f"unknown model {model!r}")

    def ev(lam: complex) -> np.ndarray:
        return m @ mat(k_minus(-lam - shift)).T

    return ev


def re_residual(r_family, k_family, lam1, lam2):
    """Reflection-equation defect of K against R at (lam1, lam2).

    Checks R12(l1-l2) K1(l1) R21(l1+l2) K2(l2) = K2(l2) R12(l1+l2) K1(l1)
    R21(l1-l2), where R21 = P R12 P is R placed on the sites (2, 1).  K may
    be a c-number matrix on the auxiliary space or an operator on auxiliary
    (x) quantum (a dressed K), in which case both auxiliary copies share the
    quantum space.  A float for scalar lambdas, one defect per draw for
    equal-length sequences.
    """
    def evaluate(l1, l2):
        return (at_draws(r_family, l1 - l2), at_draws(r_family, l1 + l2),
                at_draws(k_family, l1), at_draws(k_family, l2))

    def dims(rd, _, k1m, __):
        n = int(round(np.sqrt(np.shape(rd)[0])))
        if n * n != np.shape(rd)[0]:
            raise ValueError("R must act on a two-fold tensor square")
        if np.shape(k1m)[0] % n:
            raise ValueError("K dimension incompatible with R")
        # aux1 (x) aux2 (x) quantum, with a one-dimensional quantum space for a c-number K
        return (n, n, np.shape(k1m)[0] // n)

    def combine(dims, rd, rs, k1m, k2m):
        k1, k2 = embed(k1m, (1, 3), dims), embed(k2m, (2, 3), dims)
        rd21, rs21 = embed(rd, (2, 1), dims), embed(rs, (2, 1), dims)
        rd, rs = embed(rd, (1, 2), dims), embed(rs, (1, 2), dims)
        return rel_norm(rd @ k1 @ rs21 @ k2, k2 @ rs @ k1 @ rd21)

    return over_draws(evaluate, dims, combine, lam1, lam2)


def dressed_k(lax_family, k_family, lam) -> np.ndarray:
    """Dressed reflection matrix L(l) K(l) L^{-1}(-l) on aux (x) quantum.

    The auxiliary dimension is that of the c-number K(l).  A scalar lambda
    gives the matrix, a 1-D array of lambdas the (P, s, s) stack, whatever
    the two families take; `linalg.stacking` marks a partial application
    of it as a family that stacks.
    """
    lm = at_draws(lax_family, lam)
    ln = at_draws(lax_family, -lam)
    k = at_draws(k_family, lam)
    na = np.shape(k)[-1]
    dims = (na, lm.shape[-1] // na)
    km = embed(k, 1, dims)
    return lm @ km @ np.linalg.inv(ln)


def open_chain(model: str, N: int, mu: complex | None = None, n: int = 2,
               gradation: str = "principal", k_minus=None, k_plus=None) -> ChainSpec:
    """Uniform chain with an open boundary; K+ defaults to the crossing of K-."""
    k_minus = k_minus if k_minus is not None else k_identity()
    k_plus = k_plus if k_plus is not None else crossed_k_plus(k_minus, model, mu, gradation)
    base = uniform_chain(model, N, mu, n, gradation)
    return ChainSpec(model, N, base.site_reps, mu, gradation, OpenBoundary(k_minus, k_plus))


def open_transfer(chain: ChainSpec):
    """Double-row transfer matrix Tr_0[K+(l) T(l) K-(l) T^{-1}(-l)], with no
    inverse: L_i(l) V(2l) L_i(-l) = f_i(l) V(2l) (V = `rmatrix.gauge_v` in the
    homogeneous gradation, else I) gives T^{-1}(-l) = V(-2l) Pi T(l) Pi V(2l)
    / prod_i f_i(l), Pi the site reversal (Sklyanin, J. Phys. A 21 (1988)
    2375).  ValueError where prod_i f_i(l) = 0."""
    if not isinstance(chain.boundary, OpenBoundary):
        raise ValueError("chain carries no open boundary data")
    k_minus, k_plus = chain.boundary.k_minus, chain.boundary.k_plus
    dims = chain.local_dims
    homogeneous = (chain.model, chain.gradation) == ("xxz", "homogeneous")

    def ev(lam: complex) -> np.ndarray:
        lam = complex(lam)
        v = np.diag(gauge_v(2 * lam)) if homogeneous else np.ones(2)
        laxes = site_lax_matrices(chain, lam)
        # f_i: entry [0, 0] of L_i(l) V(2l) L_i(-l), over that of V(2l)
        scale = np.prod([lp[0] * np.repeat(v, len(lp) // 2) @ lm[:, 0] / v[0]
                         for lp, lm in zip(laxes, site_lax_matrices(chain, -lam))])
        if scale == 0:
            raise ValueError(f"open transfer is singular at lambda = {lam}")
        # Tr_0[T K-(l) V(-2l) Pi T Pi V(2l) K+(l)] / prod f_i: aux factors in each pass's first L
        mirrored = [laxes[-1] @ np.kron(v[:, None] * mat(k_plus(lam)) / scale, np.eye(dims[-1]))]
        forward = [laxes[0] @ np.kron(mat(k_minus(lam)) / v, np.eye(dims[0]))]
        return _apply_blocks(forward + laxes[1:], (0, 1), lambda state: state[0, :, 0] + state[1, :, 1],
                             None, mirrored + laxes[-2::-1])

    return ev


def open_hamiltonian(chain: ChainSpec) -> np.ndarray:
    """Derivative of the open transfer matrix at the origin.

    t(0) must be a nonzero multiple of the identity (regular boundary);
    the returned operator matches physical open Hamiltonians only up to
    an affine (scale, shift) fit, which callers report.
    """
    fam = open_transfer(chain)
    t0 = fam(0.0)
    D = t0.shape[0]
    scalar = np.trace(t0) / D
    if abs(scalar) < 1e-12 or rel_norm(t0, scalar * np.eye(D)) > 1e-10:
        raise ValueError("open transfer is singular at the origin")
    return richardson_derivative(fam, 0.0, 1e-5)


def casimir_from_asymptotics(rep) -> tuple:
    """Limits of the one-site open transfer matrix at lambda -> +-infinity.

    With K- = I and K+ = M on the homogeneous chain, t(lambda) approaches
    the constant -L^+ (L^-)^{-1} traced against M (and the mirrored product
    at -infinity); both limits are quadratic Casimir multiples.  Evaluated
    at |lambda| = 18, where the correction term sits at machine precision.
    """
    q = complex(rep.params["q"])
    mu = -1j * cmath.log(q)
    chain = ChainSpec(
        "xxz", 1, (rep,), mu, "homogeneous",
        OpenBoundary(k_identity(), crossed_k_plus(k_identity(), "xxz", mu, "homogeneous")),
    )
    fam = open_transfer(chain)
    lam = 18.0
    return fam(lam), fam(-lam)


def uq_invariant_hamiltonian(N: int, mu: complex) -> np.ndarray:
    """Open-chain Hamiltonian that commutes with every ncoproduct image.

    1/2 sum_{i<N} (sx sx + sy sy + cosh(i mu) sz sz) plus the boundary term
    (sinh(i mu)/2)(sz_N - sz_1); non-Hermitian for real mu.  The derivative
    of the K- = I, K+ = M open transfer fits onto it affinely.
    """
    if N < 2:
        raise ValueError("need at least two sites")
    dims = (2,) * N
    h = _bond_sum(0.5 * _xxz_bond(cmath.cosh(1j * mu)), N, periodic=False)
    boundary = cmath.sinh(1j * mu) / 2
    h += boundary * (embed(_PAULI["z"], N, dims) - embed(_PAULI["z"], 1, dims))
    return h
