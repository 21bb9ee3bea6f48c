"""Representations of sl2, its q-deformation, and the cyclic Weyl pair.

Everything here is a small dense matrix construction: spin representations
in dimension n = 2s+1, their q-deformed ladder operators, co-products
iterated over a chain, and the quantum Casimir.  A relation checker reports
relative residuals of the defining relations so callers can assert algebra
membership numerically instead of trusting the constructors.  Every
generator set, a representation or a co-product here and a Hecke,
Temperley-Lieb or blob family in `braid`, is an AlgebraRep, read with
`gen(label)` and `params`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import embed, kron_all, mat, rel_norm


@dataclass(frozen=True)
class AlgebraRep:
    """A named family of generator matrices plus the parameters that built it.

    generators maps labels (Jz, Jp, Jm, qJz, qJzInv, X, Y, ...) to complex
    matrices of one shared dimension; params records q, n, s, p as
    applicable.
    """

    name: str
    generators: dict
    params: dict

    def __post_init__(self):
        generators = {label: mat(g) for label, g in self.generators.items()}
        sides = {g.shape[0] for g in generators.values()}
        if len(sides) > 1:
            raise ValueError(f"generators of {self.name} differ in dimension: {sides}")
        object.__setattr__(self, "generators", generators)

    def gen(self, label: str) -> np.ndarray:
        if label not in self.generators:
            raise KeyError(f"{self.name} has no generator {label!r}")
        return self.generators[label]


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
        "Jz": np.diag(np.array(_weights(n), dtype=complex)),
        "Jp": np.diag(ladder, 1),
        "Jm": np.diag(ladder, -1),
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
    # the q-numbers need q^{+-(n-1)}, finite and nonzero while (n-1) |log|q|| < log(max float)
    if not cmath.isfinite(q) or (n - 1) * abs(cmath.log(q).real) >= math.log(np.finfo(float).max):
        raise ValueError(f"q = {q} is off scale for dimension {n}: q^+-{n - 1} is zero or not finite")
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
        "Jz": np.diag(np.array(weights, dtype=complex)),
        "Jp": np.diag(ladder, 1),
        "Jm": np.diag(ladder, -1),
        "qJz": a,
        "qJzInv": np.diag(1 / np.diag(a)),
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
    gens = {"X": x, "Y": y}
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
        "V": x,
        "a": y @ x,
        "adag": (xinv - q * x) @ yinv,
    }
    return AlgebraRep("q_oscillator", gens, {"p": p, "k": k, "q": q})


def _coproduct_images(reps: tuple) -> dict:
    """Generator images on the tensor product of the site representations.

    Without a deformation every generator is summed site by site.  With one,
    Jz is summed, the group-likes qJz and qJzInv tensor over the sites, and
    the ladder image at site i is dressed by qJzInv on the sites before it
    and qJz on those after it, so the images satisfy the same relations as
    the factors.
    """
    dims = tuple(next(iter(rep.generators.values())).shape[0] for rep in reps)
    zero = np.zeros((int(np.prod(dims, dtype=np.int64)),) * 2, dtype=complex)

    def site_sum(term) -> np.ndarray:
        # term(i) summed over the sites in order, from a zero D x D
        return sum((term(i) for i in range(len(reps))), zero)

    if "qJz" not in reps[0].generators:
        return {label: site_sum(lambda i: embed(reps[i].gen(label), i + 1, dims))
                for label in reps[0].generators}
    a, d = [rep.gen("qJz") for rep in reps], [rep.gen("qJzInv") for rep in reps]
    images = {"Jz": site_sum(lambda i: embed(reps[i].gen("Jz"), i + 1, dims))}
    for label in ("Jp", "Jm"):
        images[label] = site_sum(lambda i: kron_all(*d[:i], reps[i].gen(label), *a[i + 1:]))
    images["qJz"], images["qJzInv"] = kron_all(*a), kron_all(*d)
    return images


def coproduct_uq(rep_left: AlgebraRep, rep_right: AlgebraRep) -> AlgebraRep:
    """Two-site co-product of a q-deformed pair of representations.

    The ladder images are Delta(J+-) = qJzInv (x) J+- + J+- (x) qJz and the
    group-like qJz tensors with itself, so the images satisfy the same
    relations as the factors: `ncoproduct` at N = 2 when both sites carry
    one representation.  Both factors must share one q.  The result is an
    AlgebraRep with the left factor's name and params, whose generators are
    the images under the factors' labels.
    """
    ql, qr = (rep.params.get("q") if "qJz" in rep.generators else None
              for rep in (rep_left, rep_right))
    if ql is None or qr is None:
        raise ValueError("co-product needs q-deformed representations")
    if abs(complex(ql) - complex(qr)) > 1e-12:
        raise ValueError(f"q mismatch: {ql} vs {qr}")
    return AlgebraRep(rep_left.name, _coproduct_images((rep_left, rep_right)), rep_left.params)


def ncoproduct(rep: AlgebraRep, N: int) -> AlgebraRep:
    """N-fold iterated co-product of a representation.

    For a q-deformed rep the ladder image at site i is dressed by qJzInv on
    the left and qJz on the right; without a deformation every generator is
    summed site by site.  The result is an AlgebraRep with rep's name and
    params, whose generators are the images under rep's labels.
    """
    if N < 1:
        raise ValueError("need at least one copy")
    return AlgebraRep(rep.name, _coproduct_images((rep,) * N), rep.params)


def casimir_uq(rep: AlgebraRep) -> np.ndarray:
    """Quantum Casimir q qJz^2 + q^-1 qJzInv^2 + (q - q^-1)^2 Jm Jp.

    rep is a q-deformed representation or a co-product of one.  Commutes
    with every generator image and acts as a scalar on each irreducible
    block.
    """
    a, d, jp, jm = (rep.gen(label) for label in ("qJz", "qJzInv", "Jp", "Jm"))
    q = complex(rep.params["q"])
    return q * (a @ a) + (1 / q) * (d @ d) + (q - 1 / q) ** 2 * (jm @ jp)


def check_relations(rep: AlgebraRep) -> dict:
    """Relative residuals of the defining relations, keyed by relation.

    Dispatches on the generator labels present, so it works uniformly on
    representations and on co-products.  A Hecke, Temperley-Lieb or blob
    family raises ValueError: the `braid` checkers take those.
    """
    gens, params = rep.generators, rep.params
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
    if "Jz" not in gens:
        raise ValueError(f"check_relations has no {rep.name} relations; see the braid checkers")
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
