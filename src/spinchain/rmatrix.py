"""Spectral R-matrices, Yang-Baxter checks, Baxterization, gauge maps.

The two workhorse families are the rational 4x4 R(lambda) = lambda I + i P
and the trigonometric six-vertex R in its two gradations, related by
conjugation with V(lambda) = diag(e^{lambda/2}, e^{-lambda/2}).  Residual
functions accept any callable lambda -> matrix, so partially applied
families and Baxterized braid generators all go through the same checks.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .braid import BraidFamily
from .linalg import Operator, comm_norm, embed, mat, permutation, rel_norm


@dataclass(frozen=True)
class SpectralMatrixFamily:
    """A named family lambda -> Operator on a pair of local spaces."""

    name: str
    local_dims: tuple
    eval: object
    params: dict

    def __call__(self, lam: complex) -> Operator:
        return self.eval(lam)


def gauge_v(lam: complex) -> np.ndarray:
    """Gauge twist V(lambda) = diag(e^{lambda/2}, e^{-lambda/2})."""
    return np.diag([cmath.exp(lam / 2), cmath.exp(-lam / 2)]).astype(complex)


def r_xxx(lam: complex) -> Operator:
    """Rational R-matrix lambda I + i P on two spin-1/2 spaces."""
    p = mat(permutation(2))
    return Operator((2, 2), lam * np.eye(4) + 1j * p)


def r_xxz(lam: complex, mu: complex, gradation: str = "principal") -> Operator:
    """Trigonometric six-vertex R-matrix at anisotropy mu (Delta = cos mu).

    Corner entries are sinh(lambda + i mu) and the inner diagonal sinh
    lambda in both gradations; the inner off-diagonal is sinh(i mu) in the
    principal gradation and e^{+-lambda} sinh(i mu) in the homogeneous one.
    R(0) = sinh(i mu) P either way.
    """
    lam, mu = complex(lam), complex(mu)
    a = cmath.sinh(lam + 1j * mu)
    b = cmath.sinh(lam)
    c = cmath.sinh(1j * mu)
    r = np.zeros((4, 4), dtype=complex)
    r[0, 0] = r[3, 3] = a
    r[1, 1] = r[2, 2] = b
    if gradation == "principal":
        r[1, 2] = r[2, 1] = c
    elif gradation == "homogeneous":
        r[1, 2] = cmath.exp(lam) * c
        r[2, 1] = cmath.exp(-lam) * c
    else:
        raise ValueError(f"unknown gradation {gradation!r}")
    return Operator((2, 2), r)


def xxx_family() -> SpectralMatrixFamily:
    return SpectralMatrixFamily("xxx", (2, 2), r_xxx, {})


def xxz_family(mu: complex, gradation: str = "principal") -> SpectralMatrixFamily:
    return SpectralMatrixFamily(
        f"xxz_{gradation}",
        (2, 2),
        lambda lam: r_xxz(lam, mu, gradation),
        {"mu": complex(mu), "gradation": gradation},
    )


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
    return Operator((2, 2), rp), Operator((2, 2), rm)


def braided(family) -> SpectralMatrixFamily:
    """Braided form Rc(lambda) = P R(lambda) of a square-dimension family."""
    base = family if callable(family) else family.eval
    probe = mat(base(0.0))
    n = round(probe.shape[0] ** 0.5)
    if n * n != probe.shape[0]:
        raise ValueError("braided form needs equal local dimensions")
    p = mat(permutation(n))
    name = getattr(family, "name", "family")
    params = dict(getattr(family, "params", {}))
    return SpectralMatrixFamily(
        f"braided({name})", (n, n), lambda lam: Operator((n, n), p @ mat(base(lam))), params
    )


def _on_three_sites(m, sites) -> np.ndarray:
    # place a two-site matrix on n (x) n (x) n
    m = mat(m)
    n = round(m.shape[0] ** 0.5)
    return embed(m, sites, (n, n, n))


def ybe_residual(r_family, lam1: complex, lam2: complex) -> float:
    """Relative residual of the Yang-Baxter equation at (lambda1, lambda2, 0).

    R12(l1-l2) R13(l1) R23(l2) = R23(l2) R13(l1) R12(l1-l2) on n^3.
    """
    r = r_family if callable(r_family) else r_family.eval
    r12 = _on_three_sites(r(lam1 - lam2), (1, 2))
    r13 = _on_three_sites(r(lam1), (1, 3))
    r23 = _on_three_sites(r(lam2), (2, 3))
    return rel_norm(r12 @ r13 @ r23, r23 @ r13 @ r12)


def braided_ybe_residual(rc_family, lam1: complex, lam2: complex) -> float:
    """Residual of the braided Yang-Baxter equation.

    Rc12(l1-l2) Rc23(l1) Rc12(l2) = Rc23(l2) Rc12(l1) Rc23(l1-l2).
    """
    rc = rc_family if callable(rc_family) else rc_family.eval
    a12 = _on_three_sites(rc(lam1 - lam2), (1, 2))
    b23 = _on_three_sites(rc(lam1), (2, 3))
    c12 = _on_three_sites(rc(lam2), (1, 2))
    d23 = _on_three_sites(rc(lam2), (2, 3))
    e12 = _on_three_sites(rc(lam1), (1, 2))
    f23 = _on_three_sites(rc(lam1 - lam2), (2, 3))
    return rel_norm(a12 @ b23 @ c12, d23 @ e12 @ f23)


def regularity_constant(r_family) -> tuple:
    """Fit R(0) = c P; returns (c, relative residual of the fit)."""
    r = r_family if callable(r_family) else r_family.eval
    m = mat(r(0.0))
    n = round(m.shape[0] ** 0.5)
    p = mat(permutation(n))
    c = complex(np.vdot(p, m) / np.vdot(p, p))
    return c, rel_norm(m, c * p)


def baxterize(fam: BraidFamily, i: int, lam: complex) -> Operator:
    """Spectral braid matrix e^lambda g_i - e^{-lambda} g_i^{-1}.

    The inverse comes from the Hecke condition, g^{-1} = g - (q - 1/q),
    which is first verified to 1e-8; equals 2 sinh(lambda + i mu) I +
    2 sinh(lambda) U_i when q = e^{i mu}.
    """
    q = complex(fam.params["q"])
    g = fam.g(i)
    eye = np.eye(g.shape[0])
    hecke = np.linalg.norm((g - q * eye) @ (g + eye / q)) / max(
        1.0, float(np.linalg.norm(g)) ** 2
    )
    if hecke > 1e-8:
        raise ValueError(f"generator g{i} fails the Hecke condition: residual {hecke:.2e}")
    ginv = g - (q - 1 / q) * eye
    dims = (fam.local_dim,) * fam.N
    return Operator(dims, cmath.exp(lam) * g - cmath.exp(-lam) * ginv)


def intertwiner_residual(r_family, rep, lam: complex) -> float:
    """Quantum-group intertwining residual of R(lambda) on rep (x) rep.

    Checks Delta'(X) R = R Delta(X) with Delta' = P Delta P for
    X in {qJz, Jp, Jm}, plus the equivalent statement that the braided
    matrix P R commutes with every Delta(X).
    """
    from .algebra import coproduct_uq

    r = r_family if callable(r_family) else r_family.eval
    m = mat(r(lam))
    n = rep.gen("Jz").shape[0]
    if m.shape[0] != n * n:
        raise ValueError(f"R acts on {m.shape[0]}, rep pair needs {n * n}")
    p = mat(permutation(n))
    cop = coproduct_uq(rep, rep)
    worst = 0.0
    for label in ("qJz", "Jp", "Jm"):
        d = cop.image(label)
        worst = max(worst, rel_norm((p @ d @ p) @ m, m @ d))
        worst = max(worst, comm_norm(p @ m, d))
    return worst
