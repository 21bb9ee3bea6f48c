"""Spectral R-matrices, Yang-Baxter checks, Baxterization, gauge maps.

The two workhorse families are the rational 4x4 R(lambda) = lambda I + i P
and the trigonometric six-vertex R in its two gradations, related by
conjugation with V(lambda) = diag(e^{lambda/2}, e^{-lambda/2}).  A family
is a function lambda -> complex ndarray; the residual functions take any
such callable, so partially applied families and Baxterized braid
generators all go through the same checks.  One triple-product defect,
`_rll_gap` of R12 L13 L23 = L23 L13 R12, serves the Yang-Baxter equation
(L = R), the RLL relation of `lax.rll_residual` and the triangular FRT
relations of `lax.triangular_residuals`.  The families built here follow
the stack convention of `linalg`: a scalar lambda gives a matrix, a 1-D
array of lambdas the (P, s, s) stack.  Each residual takes scalar spectral
parameters (one float) or equal-length sequences of them (one residual per
draw, from one stacked pass through `linalg.over_draws`).
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np

from .algebra import AlgebraRep, coproduct_uq
from .braid import _hecke_residual
from .linalg import (
    at_draws, comm_norm, draw_shape, embed, mat, over_draws, per_draw, permutation, rel_norm,
    stacking,
)


def gauge_v(lam) -> np.ndarray:
    """Gauge twist V(lambda) = diag(e^{lambda/2}, e^{-lambda/2}); a scalar
    lambda gives the matrix, a 1-D array of lambdas the (P, 2, 2) stack."""
    v = np.zeros(draw_shape(lam) + (2, 2), dtype=complex)
    v[..., 0, 0] = per_draw(lambda l: cmath.exp(l / 2), lam, 0)
    v[..., 1, 1] = per_draw(lambda l: cmath.exp(-l / 2), lam, 0)
    return v


@lru_cache(maxsize=None)
def _exchange(n: int) -> np.ndarray:
    # the exchange operator on n (x) n, built once per n and read-only
    p = permutation(n)
    p.flags.writeable = False
    return p


@stacking
def r_xxx(lam) -> np.ndarray:
    """Rational R-matrix lambda I + i P on two spin-1/2 spaces; a scalar
    lambda gives the matrix, a 1-D array of lambdas the (P, 4, 4) stack."""
    return np.multiply.outer(lam, np.eye(4)) + 1j * _exchange(2)


def r_xxz(lam, mu: complex, gradation: str = "principal") -> np.ndarray:
    """Trigonometric six-vertex R-matrix at anisotropy mu (Delta = cos mu).

    Corner entries are sinh(lambda + i mu) and the inner diagonal sinh
    lambda in both gradations; the inner off-diagonal is sinh(i mu) in the
    principal gradation and e^{+-lambda} sinh(i mu) in the homogeneous one.
    R(0) = sinh(i mu) P either way.  A scalar lambda gives the matrix, a 1-D
    array of lambdas the (P, 4, 4) stack.
    """
    if gradation not in ("principal", "homogeneous"):
        raise ValueError(f"unknown gradation {gradation!r}")
    mu = complex(mu)
    lam = np.asarray(lam, dtype=complex) if draw_shape(lam) else complex(lam)
    c = cmath.sinh(1j * mu)
    r = np.zeros(draw_shape(lam) + (4, 4), dtype=complex)
    r[..., 0, 0] = r[..., 3, 3] = per_draw(lambda l: cmath.sinh(l + 1j * mu), lam, 0)
    r[..., 1, 1] = r[..., 2, 2] = per_draw(cmath.sinh, lam, 0)
    if gradation == "principal":
        r[..., 1, 2] = r[..., 2, 1] = c
    else:
        r[..., 1, 2] = per_draw(lambda l: cmath.exp(l) * c, lam, 0)
        r[..., 2, 1] = per_draw(lambda l: cmath.exp(-l) * c, lam, 0)
    return r


def xxx_family():
    """The rational family lambda -> r_xxx(lambda): scalar -> matrix, 1-D
    array -> stack."""
    return r_xxx


def xxz_family(mu: complex, gradation: str = "principal"):
    """The six-vertex family lambda -> r_xxz(lambda, mu, gradation): scalar
    -> matrix, 1-D array -> stack."""
    return stacking(lambda lam: r_xxz(lam, mu, gradation))


def r_pm(q: complex) -> tuple:
    """Constant triangular pair (R+, R-) with e^l R+ - e^{-l} R- = 2 R^h(l).

    R+ is upper and R- lower triangular; both are invertible for q != 0 and
    generate the homogeneous six-vertex matrix through the sinh rebuild.
    """
    q = complex(q)
    d = q - 1 / q
    rp = np.array(
        [[q, 0, 0, 0], [0, 1, d, 0], [0, 0, 1, 0], [0, 0, 0, q]], dtype=complex
    )
    rm = np.array(
        [[1 / q, 0, 0, 0], [0, 1, 0, 0], [0, -d, 1, 0], [0, 0, 0, 1 / q]], dtype=complex
    )
    return rp, rm


def braided(family):
    """Braided form Rc(lambda) = P R(lambda) of a square-dimension family:
    scalar -> matrix, 1-D array -> stack, whatever family takes."""
    probe = mat(family(0.0))
    n = round(probe.shape[0] ** 0.5)
    if n * n != probe.shape[0]:
        raise ValueError("braided form needs equal local dimensions")
    p = _exchange(n)
    return stacking(lambda lam: p @ at_draws(family, lam))


def _rll_dims(r, l1m, *_) -> tuple:
    # aux1 (x) aux2 (x) quantum: the auxiliary dimension is sqrt(dim R)
    na = round(np.shape(r)[0] ** 0.5)
    return (na, na, np.shape(l1m)[0] // na)


def _rll_gap(dims, r, l13, l23):
    """rel_norm(R12 L13 L23, L23 L13 R12) of matrices or (P, s, s) stacks on dims."""
    r12, a, b = embed(r, (1, 2), dims), embed(l13, (1, 3), dims), embed(l23, (2, 3), dims)
    return rel_norm(r12 @ a @ b, b @ a @ r12)


def _rll_residual(r_family, lax, lam1, lam2):
    """_rll_gap of R12(l1-l2) L13(l1) L23(l2) = L23(l2) L13(l1) R12(l1-l2) on
    aux1 (x) aux2 (x) quantum, per draw like over_draws."""
    def evaluate(l1, l2):
        return at_draws(r_family, l1 - l2), at_draws(lax, l1), at_draws(lax, l2)

    return over_draws(evaluate, _rll_dims, _rll_gap, lam1, lam2)


def ybe_residual(r_family, lam1, lam2):
    """Relative residual of the Yang-Baxter equation at (lambda1, lambda2, 0).

    R12(l1-l2) R13(l1) R23(l2) = R23(l2) R13(l1) R12(l1-l2) on n^3: the RLL
    relation with L = R.  A float for scalar lambdas, one residual per draw
    for equal-length sequences.
    """
    return _rll_residual(r_family, r_family, lam1, lam2)


def braided_ybe_residual(rc_family, lam1, lam2):
    """Residual of the braided Yang-Baxter equation, per draw like ybe_residual.

    Rc12(l1-l2) Rc23(l1) Rc12(l2) = Rc23(l2) Rc12(l1) Rc23(l1-l2).
    """
    def evaluate(l1, l2):
        return at_draws(rc_family, l1 - l2), at_draws(rc_family, l1), at_draws(rc_family, l2)

    def combine(dims, rd, r1, r2):
        lhs = embed(rd, (1, 2), dims) @ embed(r1, (2, 3), dims) @ embed(r2, (1, 2), dims)
        rhs = embed(r2, (2, 3), dims) @ embed(r1, (1, 2), dims) @ embed(rd, (2, 3), dims)
        return rel_norm(lhs, rhs)

    return over_draws(evaluate, _rll_dims, combine, lam1, lam2)


def regularity_constant(r_family) -> tuple:
    """Fit R(0) = c P; returns (c, relative residual of the fit)."""
    m = mat(r_family(0.0))
    n = round(m.shape[0] ** 0.5)
    p = _exchange(n)
    c = complex(np.vdot(p, m) / np.vdot(p, p))
    return c, rel_norm(m, c * p)


def baxterize(fam: AlgebraRep, i: int, lam: complex) -> np.ndarray:
    """Spectral braid matrix e^lambda g_i - e^{-lambda} g_i^{-1}.

    fam is a family of `braid.hecke_rep` or `braid.blob_rep`; g_i is its
    generator g{i} and q its params["q"].  The inverse comes from the Hecke
    condition, g^{-1} = g - (q - 1/q), which is first verified to 1e-8;
    equals 2 sinh(lambda + i mu) I + 2 sinh(lambda) U_i when q = e^{i mu}.
    """
    q = complex(fam.params["q"])
    g = fam.gen(f"g{i}")
    hecke = _hecke_residual(g, q)
    if hecke > 1e-8:
        raise ValueError(f"generator g{i} fails the Hecke condition: residual {hecke:.2e}")
    ginv = g - (q - 1 / q) * np.eye(g.shape[0])
    return cmath.exp(lam) * g - cmath.exp(-lam) * ginv


def intertwiner_residual(r_family, rep, lam):
    """Quantum-group intertwining residual of R(lambda) on rep (x) rep.

    Checks Delta'(X) R = R Delta(X) with Delta' = P Delta P for
    X in {qJz, Jp, Jm}, plus the equivalent statement that the braided
    matrix P R commutes with every Delta(X); a float for a scalar lambda,
    one residual per draw for a sequence.  The co-product is built once per
    call.
    """
    n = rep.gen("Jz").shape[0]
    p = _exchange(n)
    cop = coproduct_uq(rep, rep)
    images = [cop.gen(label) for label in ("qJz", "Jp", "Jm")]
    swapped = [p @ d @ p for d in images]

    def dims(m):
        if np.shape(m)[0] != n * n:
            raise ValueError(f"R acts on {np.shape(m)[0]}, rep pair needs {n * n}")
        return (n, n)

    def combine(_, m):
        # the largest of the six residuals per draw, NaN if any is NaN
        return np.max([r for d, pdp in zip(images, swapped)
                       for r in (rel_norm(pdp @ m, m @ d), comm_norm(p @ m, d))], axis=0)

    return over_draws(lambda l: (at_draws(r_family, l),), dims, combine, lam)
