"""Representations of sl2, its q-deformation, and the cyclic Weyl pair.

Everything here is a small dense matrix construction: spin representations
in dimension n = 2s+1, their q-deformed ladder operators, co-products
iterated over a chain, and the quantum Casimir.  A relation checker reports
relative residuals of the defining relations so callers can assert algebra
membership numerically instead of trusting the constructors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import Operator, as_operator, embed, kron_all, mat, rel_norm


@dataclass(frozen=True)
class AlgebraRep:
    """A named family of generator matrices plus the parameters that built it.

    generators maps labels (Jz, Jp, Jm, qJz, qJzInv, X, Y, ...) to Operators
    of one shared dimension; params records q, n, s, p as applicable.
    """

    name: str
    generators: dict
    params: dict

    def __post_init__(self):
        sides = {as_operator(g).side for g in self.generators.values()}
        if len(sides) > 1:
            raise ValueError(f"generators of {self.name} differ in dimension: {sides}")

    def gen(self, label: str) -> np.ndarray:
        if label not in self.generators:
            raise KeyError(f"{self.name} has no generator {label!r}")
        return mat(self.generators[label])


@dataclass(frozen=True)
class Coproduct:
    """Generator images on an N-fold tensor product of a base representation."""

    base: AlgebraRep
    copies: int
    images: dict

    def image(self, label: str) -> np.ndarray:
        if label not in self.images:
            raise KeyError(f"no co-product image for {label!r}")
        return mat(self.images[label])


def q_integer(k: int, q: complex) -> complex:
    """The q-number [k]_q = (q^k - q^-k) / (q - q^-1)."""
    q = complex(q)
    return (q**k - q**-k) / (q - 1 / q)


def _weights(n: int) -> list:
    # Jz eigenvalues s, s-1, ..., -s with s = (n-1)/2, highest weight first.
    return [(n + 1) / 2 - k for k in range(1, n + 1)]


def sl2_spin_rep(n: int) -> AlgebraRep:
    """Spin s = (n-1)/2 representation of sl2 in dimension n.

    Jz is diagonal with weights (n+1)/2 - k, and the ladder matrices carry
    sqrt(k(n-k)) on the first off-diagonals, so [Jp, Jm] = 2 Jz holds
    exactly.  n=2 gives the Pauli matrices over 2.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    ladder = np.array([math.sqrt(k * (n - k)) for k in range(1, n)], dtype=complex)
    gens = {
        "Jz": Operator((n,), np.diag(np.array(_weights(n), dtype=complex))),
        "Jp": Operator((n,), np.diag(ladder, 1)),
        "Jm": Operator((n,), np.diag(ladder, -1)),
    }
    return AlgebraRep("sl2", gens, {"n": n, "s": (n - 1) / 2})


def uq_sl2_spin_rep(n: int, q: complex) -> AlgebraRep:
    """q-deformed spin representation in dimension n = 2s+1.

    qJz is diagonal with entries q^((n+1)/2 - k) and the ladder entries are
    sqrt([k]_q [n-k]_q) under the principal square root.  As q -> 1 the
    generators approach sl2_spin_rep(n).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    q = complex(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    for order in range(1, n):
        # a root of unity of order < n kills a ladder entry
        if abs(q**order - 1) < 1e-12:
            raise ValueError(f"q^{order} = 1 degenerates the {n}-dimensional ladder")
    weights = _weights(n)
    ladder = np.array(
        [cmath.sqrt(q_integer(k, q) * q_integer(n - k, q)) for k in range(1, n)],
        dtype=complex,
    )
    a = np.diag(np.array([q**w for w in weights], dtype=complex))
    gens = {
        "Jz": Operator((n,), np.diag(np.array(weights, dtype=complex))),
        "Jp": Operator((n,), np.diag(ladder, 1)),
        "Jm": Operator((n,), np.diag(ladder, -1)),
        "qJz": Operator((n,), a),
        "qJzInv": Operator((n,), np.diag(1 / np.diag(a))),
    }
    return AlgebraRep("uq_sl2", gens, {"n": n, "s": (n - 1) / 2, "q": q})


def cyclic_rep(p: int, k: int = 1) -> AlgebraRep:
    """Cyclic representation of the Weyl pair at q = exp(2 pi i k / p).

    X is the clock matrix diag(q^-j), Y the cyclic shift; XY = q YX and
    X^p = Y^p = 1.  p=2, k=1 gives X = diag(-1, 1) and Y = sigma^x.
    """
    if p < 2:
        raise ValueError("order p must be >= 2")
    q = cmath.exp(2j * cmath.pi * k / p)
    x = np.diag(np.array([q**-j for j in range(1, p + 1)], dtype=complex))
    y = np.zeros((p, p), dtype=complex)
    for j in range(p):
        y[j, (j + 1) % p] = 1.0
    gens = {"X": Operator((p,), x), "Y": Operator((p,), y)}
    return AlgebraRep("heisenberg_weyl", gens, {"p": p, "k": k, "q": q})


def q_oscillator_rep(p: int, k: int = 1) -> AlgebraRep:
    """q-deformed oscillator built on the cyclic Weyl pair.

    V = X, a = YX, adag = (X^-1 - qX) Y^-1; these satisfy
    adag a = 1 - q V^2 and a adag = 1 - q^-1 V^2.
    """
    cyc = cyclic_rep(p, k)
    q = complex(cyc.params["q"])
    x, y = cyc.gen("X"), cyc.gen("Y")
    xinv = np.diag(1 / np.diag(x))
    yinv = np.linalg.inv(y)
    gens = {
        "V": Operator((p,), x),
        "a": Operator((p,), y @ x),
        "adag": Operator((p,), (xinv - q * x) @ yinv),
    }
    return AlgebraRep("q_oscillator", gens, {"p": p, "k": k, "q": q})


def coproduct_uq(rep_left: AlgebraRep, rep_right: AlgebraRep) -> Coproduct:
    """Two-site co-product of a q-deformed pair of representations.

    The ladder images are Delta(J+-) = qJzInv (x) J+- + J+- (x) qJz and the
    group-like qJz tensors with itself, so the images satisfy the same
    relations as the factors.  Both factors must share one q.
    """
    ql = rep_left.params.get("q")
    qr = rep_right.params.get("q")
    if ql is None or qr is None:
        raise ValueError("co-product needs q-deformed representations")
    if abs(complex(ql) - complex(qr)) > 1e-12:
        raise ValueError(f"q mismatch: {ql} vs {qr}")
    nl = rep_left.gen("Jz").shape[0]
    nr = rep_right.gen("Jz").shape[0]
    dims = (nl, nr)
    images = {
        "Jz": embed(rep_left.gen("Jz"), 1, dims) + embed(rep_right.gen("Jz"), 2, dims),
        "qJz": np.kron(rep_left.gen("qJz"), rep_right.gen("qJz")),
        "qJzInv": np.kron(rep_left.gen("qJzInv"), rep_right.gen("qJzInv")),
    }
    for label in ("Jp", "Jm"):
        images[label] = np.kron(rep_left.gen("qJzInv"), rep_right.gen(label)) + np.kron(
            rep_left.gen(label), rep_right.gen("qJz")
        )
    return Coproduct(rep_left, 2, {k: Operator(dims, v) for k, v in images.items()})


def _site_sum(g, dims) -> np.ndarray:
    """Sum of the one-site operator g placed on each site in turn."""
    D = int(np.prod(dims, dtype=np.int64))
    acc = np.zeros((D, D), dtype=complex)
    for i in range(1, len(dims) + 1):
        acc += embed(g, i, dims)
    return acc


def ncoproduct(rep: AlgebraRep, N: int) -> Coproduct:
    """N-fold iterated co-product of a representation.

    For a q-deformed rep the ladder image at site i is dressed by qJzInv on
    the left and qJz on the right; without a deformation every generator is
    summed site by site.
    """
    if N < 1:
        raise ValueError("need at least one copy")
    side = as_operator(next(iter(rep.generators.values()))).side
    dims = (side,) * N
    total_dim = side**N
    images = {}
    if "qJz" in rep.generators:
        a, d = rep.gen("qJz"), rep.gen("qJzInv")
        for label in ("Jp", "Jm"):
            g = rep.gen(label)
            acc = np.zeros((total_dim, total_dim), dtype=complex)
            for i in range(N):
                acc += kron_all(*([d] * i), g, *([a] * (N - 1 - i)))
            images[label] = acc
        images["Jz"] = _site_sum(rep.gen("Jz"), dims)
        images["qJz"] = kron_all(*([a] * N))
        images["qJzInv"] = kron_all(*([d] * N))
    else:
        images = {label: _site_sum(rep.gen(label), dims) for label in rep.generators}
    return Coproduct(rep, N, {k: Operator(dims, v) for k, v in images.items()})


def _gens_params(rep) -> tuple:
    if isinstance(rep, Coproduct):
        gens = {k: mat(v) for k, v in rep.images.items()}
        src = rep.base
    else:
        gens = {k: mat(v) for k, v in rep.generators.items()}
        src = rep
    return gens, src.params, src.name


def casimir_uq(rep) -> Operator:
    """Quantum Casimir q qJz^2 + q^-1 qJzInv^2 + (q - q^-1)^2 Jm Jp.

    Accepts a representation or a co-product.  Commutes with every
    generator image and acts as a scalar on each irreducible block.
    """
    gens, params, name = _gens_params(rep)
    for need in ("qJz", "qJzInv", "Jp", "Jm"):
        if need not in gens:
            raise KeyError(f"casimir needs generator {need!r} (missing from {name})")
    q = complex(params["q"])
    a, d, jp, jm = gens["qJz"], gens["qJzInv"], gens["Jp"], gens["Jm"]
    c = q * (a @ a) + (1 / q) * (d @ d) + (q - 1 / q) ** 2 * (jm @ jp)
    dims = rep.images[next(iter(rep.images))].dims if isinstance(rep, Coproduct) else (
        as_operator(next(iter(rep.generators.values()))).dims
    )
    return Operator(dims, c)


def check_relations(rep) -> dict:
    """Relative residuals of the defining relations, keyed by relation.

    Dispatches on the generator labels present, so it works uniformly on
    bare representations and on co-product images.
    """
    gens, params, _ = _gens_params(rep)
    out = {}
    if "V" in gens:
        q = complex(params["q"])
        v, a, adag = gens["V"], gens["a"], gens["adag"]
        eye = np.eye(v.shape[0])
        out["adag a = 1 - q V^2"] = rel_norm(adag @ a, eye - q * (v @ v))
        out["a adag = 1 - q^-1 V^2"] = rel_norm(a @ adag, eye - (v @ v) / q)
        return out
    if "X" in gens:
        q = complex(params["q"])
        x, y = gens["X"], gens["Y"]
        eye = np.eye(x.shape[0])
        out["XY = q YX"] = rel_norm(x @ y, q * (y @ x))
        p = params.get("p")
        if p is not None:
            out["X^p = 1"] = rel_norm(np.linalg.matrix_power(x, int(p)), eye)
            out["Y^p = 1"] = rel_norm(np.linalg.matrix_power(y, int(p)), eye)
        return out
    jz, jp, jm = gens["Jz"], gens["Jp"], gens["Jm"]
    out["[Jz, Jp] = +Jp"] = rel_norm(jz @ jp - jp @ jz, jp)
    out["[Jz, Jm] = -Jm"] = rel_norm(jz @ jm - jm @ jz, -jm)
    if "qJz" not in gens:
        out["[Jp, Jm] = 2 Jz"] = rel_norm(jp @ jm - jm @ jp, 2 * jz)
        return out
    q = complex(params["q"])
    a, d = gens["qJz"], gens["qJzInv"]
    eye = np.eye(a.shape[0])
    out["qJz qJzInv = 1"] = rel_norm(a @ d, eye)
    out["qJzInv qJz = 1"] = rel_norm(d @ a, eye)
    out["qJz Jp = q Jp qJz"] = rel_norm(a @ jp, q * (jp @ a))
    out["qJz Jm = q^-1 Jm qJz"] = rel_norm(a @ jm, (jm @ a) / q)
    out["[Jp, Jm] = (qJz^2 - qJzInv^2)/(q - q^-1)"] = rel_norm(
        jp @ jm - jm @ jp, (a @ a - d @ d) / (q - 1 / q)
    )
    # ladder combinations B = (q - q^-1) Jm and C = -(q - q^-1) Jp close on
    # the group-likes without the 1/(q - q^-1) denominator
    b = (q - 1 / q) * jm
    c = -(q - 1 / q) * jp
    out["[B, C] = (q - q^-1)(qJz^2 - qJzInv^2)"] = rel_norm(
        b @ c - c @ b, (q - 1 / q) * (a @ a - d @ d)
    )
    return out
