"""Boundary (reflection) machinery for open chains.

c-number K-matrices solving the reflection equation, the crossing
construction K+ = M K^t(-lambda - i rho), operator dressings, the open
transfer matrix Tr_0[K+ T K- T^{-1}(-lambda)], open Hamiltonians and the
quadratic Casimir recovered from transfer asymptotics.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .lax import (
    ChainSpec,
    TransferFamily,
    _PAULI,
    _bond_sum,
    _xxz_bond,
    monodromy,
    uniform_chain,
)
from .linalg import Operator, embed, mat, permutation, rel_norm, richardson_derivative
from .rmatrix import gauge_v


@dataclass(frozen=True)
class KMatrixFamily:
    """Boundary matrix family lambda -> Operator on the auxiliary space."""

    name: str
    eval: object
    params: dict

    def __call__(self, lam: complex) -> Operator:
        return self.eval(lam)


@dataclass(frozen=True)
class OpenBoundary:
    """A (K-, K+) pairing attached to a ChainSpec via its boundary field."""

    k_minus: KMatrixFamily
    k_plus: KMatrixFamily


def k_identity() -> KMatrixFamily:
    eye = Operator((2,), np.eye(2, dtype=complex))
    return KMatrixFamily("k_identity", lambda lam: eye, {})


def k_gz_dvgr(xi: complex, kappa: complex, gradation: str = "principal") -> KMatrixFamily:
    """Non-diagonal reflection matrix with parameters (xi, kappa).

    Homogeneous form [[sinh(-l + i xi) e^l, kappa sinh 2l],
    [kappa sinh 2l, sinh(l + i xi) e^{-l}]]; the principal form is the
    two-sided gauge V(-l) K^h(l) V(-l).  kappa = 0 is diagonal and
    K(0) = sinh(i xi) I.
    """
    if gradation not in ("principal", "homogeneous"):
        raise ValueError(f"unknown gradation {gradation!r}")

    def homogeneous(lam: complex) -> np.ndarray:
        off = kappa * cmath.sinh(2 * lam)
        return np.array(
            [
                [cmath.sinh(-lam + 1j * xi) * cmath.exp(lam), off],
                [off, cmath.sinh(lam + 1j * xi) * cmath.exp(-lam)],
            ],
            dtype=complex,
        )

    if gradation == "homogeneous":
        ev = lambda lam: Operator((2,), homogeneous(lam))
    else:
        def ev(lam: complex) -> Operator:
            v = mat(gauge_v(-lam))
            return Operator((2,), v @ homogeneous(lam) @ v)

    return KMatrixFamily(f"k_gz_dvgr_{gradation}", ev, {"xi": xi, "kappa": kappa, "gradation": gradation})


def k_blob(mu: complex, m: complex, gamma: complex, c: complex = 1.0) -> KMatrixFamily:
    """Boundary matrix x(l) I + y(l) e built on the blob idempotent direction.

    e = [[-1/Q, c], [1/c, -Q]] with Q = i e^{i mu m},
    x(l) = (Q + 1/Q) cosh(2l + i mu) - cosh(2 i mu gamma) - kappa cosh 2l,
    y(l) = 2 sinh(i mu) sinh 2l, kappa = q/Q + Q/q, q = e^{i mu}.
    Pairs with the homogeneous-gradation R family.
    """
    q = cmath.exp(1j * mu)
    Q = 1j * cmath.exp(1j * mu * m)
    kappa = q / Q + Q / q
    e = np.array([[-1 / Q, c], [1 / c, -Q]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def ev(lam: complex) -> Operator:
        x = (Q + 1 / Q) * cmath.cosh(2 * lam + 1j * mu) - cmath.cosh(2j * mu * gamma) - kappa * cmath.cosh(2 * lam)
        y = 2 * cmath.sinh(1j * mu) * cmath.sinh(2 * lam)
        return Operator((2,), x * eye + y * e)

    return KMatrixFamily("k_blob", ev, {"mu": mu, "m": m, "gamma": gamma, "c": c, "Q": Q, "kappa": kappa})


def crossed_k_plus(k_minus, model: str = "xxz", mu: complex | None = None,
                   gradation: str = "principal") -> KMatrixFamily:
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

    def ev(lam: complex) -> Operator:
        return Operator((2,), m @ mat(k_minus(-lam - shift)).T)

    name = getattr(k_minus, "name", "k")
    return KMatrixFamily(f"k_plus({name})", ev, {"model": model, "mu": mu, "gradation": gradation})


def re_residual(r_family, k_family, lam1: complex, lam2: complex) -> float:
    """Reflection-equation defect of K against R at (lam1, lam2).

    Checks R12(l1-l2) K1(l1) R21(l1+l2) K2(l2) = K2(l2) R12(l1+l2) K1(l1)
    R21(l1-l2) with R21 = P R12 P.  K may be a c-number matrix on the
    auxiliary space or an operator on auxiliary (x) quantum (a dressed K),
    in which case both auxiliary copies share the quantum space.
    """
    r = r_family if callable(r_family) else r_family.eval
    k = k_family if callable(k_family) else k_family.eval
    rd = mat(r(lam1 - lam2))
    rs = mat(r(lam1 + lam2))
    n = int(round(np.sqrt(rd.shape[0])))
    if n * n != rd.shape[0]:
        raise ValueError("R must act on a two-fold tensor square")
    p = mat(permutation(n))
    rd21, rs21 = p @ rd @ p, p @ rs @ p
    k1m, k2m = mat(k(lam1)), mat(k(lam2))
    if k1m.shape[0] % n:
        raise ValueError("K dimension incompatible with R")
    # aux1 (x) aux2 (x) quantum, with a one-dimensional quantum space for a c-number K
    dims = (n, n, k1m.shape[0] // n)
    k1 = embed(k1m, (1, 3), dims)
    k2 = embed(k2m, (2, 3), dims)
    rd, rs, rd21, rs21 = (embed(x, (1, 2), dims) for x in (rd, rs, rd21, rs21))
    lhs = rd @ k1 @ rs21 @ k2
    rhs = k2 @ rs @ k1 @ rd21
    return rel_norm(lhs, rhs)


def dressed_k(lax_family, k_family, lam: complex) -> Operator:
    """Operator reflection matrix L(l) K(l) L^{-1}(-l) on aux (x) quantum."""
    lm = mat(lax_family(lam))
    ln = mat(lax_family(-lam))
    na = getattr(lax_family, "auxiliary_dim", 2)
    dims = (na, lm.shape[0] // na)
    km = embed(k_family(lam), 1, dims)
    return Operator(dims, lm @ km @ np.linalg.inv(ln))


def open_chain(model: str, N: int, mu: complex | None = None, n: int = 2,
               gradation: str = "principal", k_minus: KMatrixFamily | None = None,
               k_plus: KMatrixFamily | None = None) -> ChainSpec:
    """Uniform chain with an open boundary; K+ defaults to the crossing of K-."""
    k_minus = k_minus if k_minus is not None else k_identity()
    k_plus = k_plus if k_plus is not None else crossed_k_plus(k_minus, model, mu, gradation)
    base = uniform_chain(model, N, mu, n, gradation)
    return ChainSpec(model, N, base.site_reps, mu, gradation, OpenBoundary(k_minus, k_plus))


def open_transfer(chain: ChainSpec) -> TransferFamily:
    """Double-row transfer matrix Tr_0[K+(l) T(l) K-(l) T^{-1}(-l)]."""
    if not isinstance(chain.boundary, OpenBoundary):
        raise ValueError("chain carries no open boundary data")
    k_minus, k_plus = chain.boundary.k_minus, chain.boundary.k_plus

    def ev(lam: complex) -> Operator:
        t = mat(monodromy(chain, lam))
        tneg = mat(monodromy(chain, -lam))
        D = t.shape[0] // 2
        km = embed(k_minus(lam), 1, (2, D))
        dressed = t @ km @ np.linalg.inv(tneg)
        kp = mat(k_plus(lam))
        blocks = dressed.reshape(2, D, 2, D)
        out = sum(kp[a, b] * blocks[b, :, a, :] for a in range(2) for b in range(2))
        return Operator(chain.local_dims, out)

    return TransferFamily(chain, ev, "open_transfer")


def open_hamiltonian(chain: ChainSpec, step: float = 1e-5) -> Operator:
    """Derivative of the open transfer matrix at the origin.

    t(0) must be a nonzero multiple of the identity (regular boundary);
    the returned operator matches physical open Hamiltonians only up to
    an affine (scale, shift) fit, which callers report.
    """
    fam = open_transfer(chain)
    t0 = mat(fam(0.0))
    D = t0.shape[0]
    scalar = np.trace(t0) / D
    if abs(scalar) < 1e-12 or rel_norm(t0, scalar * np.eye(D)) > 1e-10:
        raise ValueError("open transfer is singular at the origin")
    deriv = richardson_derivative(lambda x: mat(fam.eval(x)), 0.0, step)
    return Operator(chain.local_dims, deriv)


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
    dims = chain.local_dims
    return Operator(dims, mat(fam(lam))), Operator(dims, mat(fam(-lam)))


def uq_invariant_hamiltonian(N: int, mu: complex) -> Operator:
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
    return Operator(dims, h)
