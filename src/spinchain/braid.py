"""Matrix representations of Hecke, Temperley-Lieb, and blob algebras.

The A-type generators act on pairs of neighbouring sites of an n^N chain;
the boundary (blob) generator acts on the first site only.  Checker
functions report relative residuals per relation rather than raising, so a
representation can be probed for which quotient it actually lands in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Operator, comm_norm, embed, embed_pair, mat, rel_norm


@dataclass(frozen=True)
class BraidFamily:
    """Braid-group generators realised on an N-site chain.

    generators maps labels U1..U{N-1} and g1..g{N-1} (plus U0/g0 for the
    blob kind) to Operators on the full chain; params carries q and, for
    blob, Q, c, kappa.
    """

    N: int
    local_dim: int
    kind: str
    params: dict
    generators: dict

    def u(self, i: int) -> np.ndarray:
        return mat(self.generators[f"U{i}"])

    def g(self, i: int) -> np.ndarray:
        return mat(self.generators[f"g{i}"])


def hecke_u_matrix(n: int, q: complex) -> np.ndarray:
    """Two-site Hecke generator U on C^n (x) C^n.

    U = sum_{i != j} (e_ij (x) e_ji - q^{-sgn(i-j)} e_ii (x) e_jj), which
    for n=2 is the 4x4 matrix with inner diagonal (-q, -1/q) and
    off-diagonal 1s.
    """
    q = complex(q)
    u = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            u[i * n + j, j * n + i] += 1.0
            u[i * n + j, i * n + j] -= q if i < j else 1 / q
    return u


def hecke_rep(n: int, N: int, q: complex) -> BraidFamily:
    """Hecke algebra generators U_i and g_i = U_i + q on an N-site chain."""
    if n < 2 or N < 2:
        raise ValueError("need local dimension >= 2 and at least two sites")
    q = complex(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    dims = (n,) * N
    eye = np.eye(n**N)
    u = hecke_u_matrix(n, q)
    gens = {}
    for i in range(1, N):
        ui = embed_pair(u, i, dims)
        gens[f"U{i}"] = Operator(dims, ui)
        gens[f"g{i}"] = Operator(dims, ui + q * eye)
    return BraidFamily(N, n, "hecke", {"q": q}, gens)


def blob_rep(N: int, q: complex, Q: complex, c: complex) -> BraidFamily:
    """Blob algebra generators: bulk U_i for n=2 plus boundary U0 on site 1.

    U0 embeds e = [[-1/Q, c], [1/c, -Q]]; the braid lifts are g0 = U0 + Q
    and g_i = U_i + q.  The boundary weight is kappa = q/Q + Q/q.
    """
    if N < 2:
        raise ValueError("need at least two sites")
    q, Q, c = complex(q), complex(Q), complex(c)
    if q == 0 or Q == 0 or c == 0:
        raise ValueError("q, Q, c must all be nonzero")
    dims = (2,) * N
    eye = np.eye(2**N)
    e = np.array([[-1 / Q, c], [1 / c, -Q]], dtype=complex)
    u0 = embed(e, 1, dims)
    gens = {"U0": Operator(dims, u0), "g0": Operator(dims, u0 + Q * eye)}
    u = hecke_u_matrix(2, q)
    for i in range(1, N):
        ui = embed_pair(u, i, dims)
        gens[f"U{i}"] = Operator(dims, ui)
        gens[f"g{i}"] = Operator(dims, ui + q * eye)
    params = {"q": q, "Q": Q, "c": c, "kappa": q / Q + Q / q}
    return BraidFamily(N, 2, "blob", params, gens)


def _zero_residual(x: np.ndarray, scale: float) -> float:
    return float(np.linalg.norm(x) / max(1.0, scale))


def check_temperley_lieb(fam: BraidFamily) -> dict:
    """Residuals of the Temperley-Lieb relations, keyed by relation.

    Covers U_i^2 = -(q+1/q) U_i, both sandwich relations on adjacent pairs,
    and far commutation.  For a blob family the boundary relations
    U0^2 = -(Q+1/Q) U0 and U1 U0 U1 = kappa U1 are included.
    """
    q = complex(fam.params["q"])
    bulk = list(range(1, fam.N))
    out = {}
    for i in bulk:
        ui = fam.u(i)
        out[f"U{i}^2 = -(q+1/q) U{i}"] = rel_norm(ui @ ui, -(q + 1 / q) * ui)
    for i in bulk[:-1]:
        a, b = fam.u(i), fam.u(i + 1)
        out[f"U{i} U{i+1} U{i} = U{i}"] = rel_norm(a @ b @ a, a)
        out[f"U{i+1} U{i} U{i+1} = U{i+1}"] = rel_norm(b @ a @ b, b)
    for i in bulk:
        for j in bulk:
            if j > i + 1:
                out[f"[U{i}, U{j}] = 0"] = comm_norm(fam.u(i), fam.u(j))
    if "U0" in fam.generators:
        Q = complex(fam.params["Q"])
        kappa = complex(fam.params["kappa"])
        u0, u1 = fam.u(0), fam.u(1)
        out["U0^2 = -(Q+1/Q) U0"] = rel_norm(u0 @ u0, -(Q + 1 / Q) * u0)
        out["U1 U0 U1 = kappa U1"] = rel_norm(u1 @ u0 @ u1, kappa * u1)
        for j in bulk:
            if j >= 2:
                out[f"[U0, U{j}] = 0"] = comm_norm(u0, fam.u(j))
    return out


def check_braid_hecke(fam: BraidFamily) -> dict:
    """Residuals of the braid and Hecke-condition relations.

    Includes the quadratic condition, the explicit inverse
    g_i^-1 = g_i - (q - 1/q), braid relations in both g and U form, far
    commutation, and for blob families the four-fold boundary braid.
    """
    q = complex(fam.params["q"])
    eye = np.eye(fam.local_dim**fam.N)
    bulk = list(range(1, fam.N))
    out = {}
    for i in bulk:
        gi = fam.g(i)
        scale = max(1.0, float(np.linalg.norm(gi))) ** 2
        out[f"(g{i} - q)(g{i} + 1/q) = 0"] = _zero_residual(
            (gi - q * eye) @ (gi + eye / q), scale
        )
        out[f"g{i} (g{i} - (q - 1/q)) = 1"] = rel_norm(gi @ (gi - (q - 1 / q) * eye), eye)
    for i in bulk[:-1]:
        a, b = fam.g(i), fam.g(i + 1)
        out[f"g{i} g{i+1} g{i} = g{i+1} g{i} g{i+1}"] = rel_norm(a @ b @ a, b @ a @ b)
        ua, ub = fam.u(i), fam.u(i + 1)
        # both sides vanish when the rep is Temperley-Lieb, so scale by the
        # generator norms instead of the (possibly zero) sides
        nu = max(float(np.linalg.norm(ua)), float(np.linalg.norm(ub)))
        out[f"U{i} U{i+1} U{i} - U{i} = U{i+1} U{i} U{i+1} - U{i+1}"] = _zero_residual(
            (ua @ ub @ ua - ua) - (ub @ ua @ ub - ub), max(1.0, nu) ** 3
        )
    for i in bulk:
        for j in bulk:
            if j > i + 1:
                out[f"[g{i}, g{j}] = 0"] = comm_norm(fam.g(i), fam.g(j))
    if "g0" in fam.generators:
        Q = complex(fam.params["Q"])
        g0, g1 = fam.g(0), fam.g(1)
        out["g0 g1 g0 g1 = g1 g0 g1 g0"] = rel_norm(g0 @ g1 @ g0 @ g1, g1 @ g0 @ g1 @ g0)
        out["g0 (g0 - (Q - 1/Q)) = 1"] = rel_norm(g0 @ (g0 - (Q - 1 / Q) * eye), eye)
        for j in bulk:
            if j >= 2:
                out[f"[g0, g{j}] = 0"] = comm_norm(g0, fam.g(j))
    return out


def _distinct_eigenvalues(m: np.ndarray, tol: float = 1e-8) -> list:
    w = np.linalg.eigvals(m)
    order = np.lexsort((w.imag, w.real))
    distinct: list = []
    for z in w[order]:
        if not distinct or abs(z - distinct[-1]) > tol:
            distinct.append(complex(z))
    return distinct


def check_btype_quotients(fam: BraidFamily, gammas=None) -> dict:
    """Residuals of polynomial conditions on the boundary braid generator.

    Without gammas, the factors are the numerically distinct eigenvalues of
    g0, so the report states the minimal polynomial actually satisfied; the
    two-eigenvalue case is the quadratic quotient condition.  A pairing
    entry records how far the two roots are from gamma1 gamma2 = -1, the
    customary normalization.
    """
    if "g0" not in fam.generators:
        raise KeyError("family has no boundary generator g0")
    g0 = fam.g(0)
    eye = np.eye(g0.shape[0])
    if gammas is None:
        gammas = _distinct_eigenvalues(g0)
    gammas = [complex(g) for g in gammas]
    prod = eye.copy()
    for gamma in gammas:
        prod = prod @ (g0 - gamma * eye)
    scale = max(1.0, float(np.linalg.norm(g0))) ** max(1, len(gammas))
    out = {f"prod_(k=1..{len(gammas)}) (g0 - gamma_k) = 0": _zero_residual(prod, scale)}
    if len(gammas) == 2:
        out["gamma1 gamma2 = -1"] = abs(gammas[0] * gammas[1] + 1)
    return out
