"""Algebraic Bethe ansatz for the spin-s six-vertex hierarchy.

Every root set is certified the same way: Newton polishing of the log-form
equations (`refine`), a Bethe-equation residual below 1e-10, gates against
poles and collisions, and the transfer matrix acting on the constructed
Bethe vector B...B|0> with eigenvalue Lambda to 1e-8.  The Bethe vector is
built matrix-free: each B(lambda) is applied to the state one site at a
time (`lax.apply_monodromy_block`), so no D x D monodromy block is formed.

Where roots come from depends on whether exact diagonalization is at hand.
`validate_against_ed` reconstructs them deterministically, one candidate per
eigenvector of the sector-restricted transfer matrix: Lambda is read off the
commuting family on a small circle and Baxter's TQ relation
Lambda Q(l) = a Q(l - i mu) + d Q(l + i mu) is solved as a linear system for
Q, whose zeros are the roots.  Sectors with M > N s follow from sector
2 N s - M by the spin flip F (m -> -m on every site) whenever F t F = t.
Without ED (`solve_bae`) roots come from seeded multistart Newton, sectors
with M > N s are mirrored the same way, and the eigen-gap gate applies t
matrix-free (`lax.apply_transfer`), so no D x D array is formed at all.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

import numpy as np

from .lax import (apply_monodromy_block, apply_transfer, site_lax_matrices,
                  sz_sector_indices, transfer, uniform_chain)
from .linalg import rel_norm

_ACCEPT = 1e-10
_DEDUP = 1e-7
_GAP = 1e-8
_PROBES = (0.233, -0.377, 0.151 + 0.09j)
_GAP_PROBE = 0.233
# generic complex point at which the sector eigenvectors are taken
_EIG_PROBE = 0.31 + 0.17j
# circle on which Lambda is sampled for the TQ system
_TQ_CENTER, _TQ_RADIUS = 0.07, 0.45


@dataclass(frozen=True)
class BetheSystem:
    """A chain (N sites, spin s, anisotropy mu) with a candidate root set.

    vacuum names the pseudo-vacuum: "up" for B...B|up...up>, "down" for its
    spin flip, the same roots built on |down...down>.
    """

    N: int
    s: float
    mu: complex
    roots: tuple
    vacuum: str = "up"

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "mu", complex(self.mu))
        object.__setattr__(self, "roots", tuple(complex(z) for z in self.roots))
        n = round(2 * self.s + 1)
        if abs(2 * self.s + 1 - n) > 1e-12 or n < 2:
            raise ValueError("spin must be a positive half-integer")
        if self.N < 1:
            raise ValueError("need at least one site")
        if len(self.roots) > self.N * n:
            raise ValueError("more roots than the chain can carry")
        if self.vacuum not in ("up", "down"):
            raise ValueError(f"unknown pseudo-vacuum {self.vacuum!r}")
        for i, a in enumerate(self.roots):
            for b in self.roots[:i]:
                if abs(cmath.sinh(a - b)) < 1e-8:
                    raise ValueError("coincident roots rejected")

    @property
    def M(self) -> int:
        return len(self.roots)

    @property
    def n(self) -> int:
        return round(2 * self.s + 1)


@dataclass(frozen=True, eq=False)
class BetheSolution:
    """Converged root set with its transfer eigenvalue and charges.

    energy and momentum hold the closed-form spin-1/2 values and are None
    for higher spin, where only eigenvalue matching is performed.
    """

    system: BetheSystem
    residual: float
    eigenvalue_fn: object
    energy: complex | None
    momentum: complex | None
    matched_ed_index: int | None = None


def _log_sinh(z):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return np.log(np.sinh(z))


def _wrap(r):
    # reduce mod 2 pi i: the equations say exp(r) = 1
    return r - 2j * np.pi * np.round(r.imag / (2 * np.pi))


def _log_residual(lams, N, s, mu):
    with np.errstate(over="ignore", invalid="ignore"):
        drive = N * (_log_sinh(lams + 1j * mu * s) - _log_sinh(lams - 1j * mu * s))
        if lams.size > 1:
            diff = lams[:, None] - lams[None, :]
            off = _log_sinh(diff + 1j * mu) - _log_sinh(diff - 1j * mu)
            np.fill_diagonal(off, 0.0)
            drive = drive - off.sum(axis=1)
        return _wrap(drive)


def _coth(z):
    return np.cosh(z) / np.sinh(z)


def _jacobian(lams, N, s, mu):
    M = lams.size
    jac = np.zeros((M, M), dtype=complex)
    with np.errstate(all="ignore"):
        diag = N * (_coth(lams + 1j * mu * s) - _coth(lams - 1j * mu * s))
        if M > 1:
            diff = lams[:, None] - lams[None, :]
            pair = _coth(diff + 1j * mu) - _coth(diff - 1j * mu)
            np.fill_diagonal(pair, 0.0)
            diag = diag - pair.sum(axis=1)
            jac += pair
    jac[np.diag_indices(M)] = diag
    return jac


def _newton(start, N, s, mu, max_iter=200):
    lams = np.asarray(start, dtype=complex).copy()
    r = _log_residual(lams, N, s, mu)
    nr = float(np.abs(r).max()) if r.size else 0.0
    for _ in range(max_iter):
        if nr < 1e-13:
            break
        try:
            delta = np.linalg.solve(_jacobian(lams, N, s, mu), r)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):
            return None
        step = 1.0
        for _ in range(40):
            trial = lams - step * delta
            rt = _log_residual(trial, N, s, mu)
            nt = float(np.abs(rt).max())
            if np.isfinite(nt) and nt <= nr * (1 - 0.25 * step):
                lams, r, nr = trial, rt, nt
                break
            step *= 0.5
        else:
            return None
    return lams if nr < _ACCEPT else None


def _normalize_mod_ipi(lams):
    # sinh(z + i pi) = -sinh z leaves every ratio in the equations fixed;
    # map Im into (-pi/2, pi/2]
    out = lams - 1j * np.pi * np.round(lams.imag / np.pi)
    out = out + 1j * np.pi * (out.imag <= -np.pi / 2 + 1e-12)
    return out


def _canonical(lams):
    out = _normalize_mod_ipi(np.asarray(lams, dtype=complex))
    return out[np.lexsort((out.imag, out.real))]


def _same_multiset(a, b, tol=_DEDUP):
    # order-free comparison, quotienting the i pi period once more so that
    # roots straddling the Im = pi/2 branch boundary still match
    if a.size != b.size:
        return False
    used = np.zeros(b.size, dtype=bool)
    for z in a:
        d = np.minimum(np.abs(b - z), np.minimum(np.abs(b - z - 1j * np.pi), np.abs(b - z + 1j * np.pi)))
        d[used] = np.inf
        j = int(np.argmin(d)) if b.size else 0
        if not b.size or d[j] >= tol:
            return False
        used[j] = True
    return True


def _passes_pole_gates(lams, N, s, mu):
    # runaway points of continuous beyond-the-equator families are cut off:
    # past this the equations only hold asymptotically
    if lams.size and np.abs(lams.real).max() > 50.0:
        return False
    for i, a in enumerate(lams):
        if min(abs(cmath.sinh(a + 1j * mu * s)), abs(cmath.sinh(a - 1j * mu * s))) < 1e-10:
            return False
        for b in lams[:i]:
            d = a - b
            if abs(cmath.sinh(d)) < 1e-8:
                return False
            if min(abs(cmath.sinh(d + 1j * mu)), abs(cmath.sinh(d - 1j * mu))) < 1e-10:
                return False
    return True


def bae_residual(system: BetheSystem) -> float:
    """Max over i of the log-form equation defect, reduced mod 2 pi i."""
    lams = np.asarray(system.roots, dtype=complex)
    if lams.size == 0:
        return 0.0
    for a in lams:
        if min(abs(cmath.sinh(a + 1j * system.mu * system.s)),
               abs(cmath.sinh(a - 1j * system.mu * system.s))) < 1e-12:
            raise ValueError("root at a pole of the equations")
    return float(np.abs(_log_residual(lams, system.N, system.s, system.mu)).max())


def eigenvalue_fn(system):
    """Transfer eigenvalue lambda -> Lambda(lambda) for a converged system.

    The two dressed terms have simple poles at v_i = lambda_i - i mu / 2
    whose residues cancel when the equations hold; within 1e-6 of a pole
    the limit is realized by averaging the plain form over a small circle
    (exact for analytic functions up to a fourth-order Taylor remainder).
    """
    system = getattr(system, "system", system)
    N, s, mu = system.N, system.s, system.mu
    poles = np.asarray(system.roots, dtype=complex) - 0.5j * mu

    def plain(lam):
        a = cmath.sinh(lam + 0.5j * mu + 1j * mu * s) ** N
        d = cmath.sinh(lam + 0.5j * mu - 1j * mu * s) ** N
        pa = pd = 1.0 + 0.0j
        for v in poles:
            pa *= cmath.sinh(lam - v - 1j * mu) / cmath.sinh(lam - v)
            pd *= cmath.sinh(lam - v + 1j * mu) / cmath.sinh(lam - v)
        return a * pa + d * pd

    def value(lam):
        lam = complex(lam)
        if poles.size and np.abs(np.sinh(lam - poles)).min() < 1e-6:
            h = 1e-4
            return sum(plain(lam + h * z) for z in (1, 1j, -1, -1j)) / 4
        return plain(lam)

    return value


def energy(sol) -> complex:
    """Closed-form energy of a spin-1/2 root set."""
    system = getattr(sol, "system", sol)
    if abs(system.s - 0.5) > 1e-12:
        raise ValueError("closed-form energy is restricted to spin 1/2")
    mu = system.mu
    total = 0.0 + 0.0j
    for lam in system.roots:
        total += cmath.sinh(1j * mu) / (cmath.sinh(lam + 0.5j * mu) * cmath.sinh(lam - 0.5j * mu))
    return -mu * total / (2 * np.pi)


def momentum(sol) -> complex:
    """Closed-form momentum of a spin-1/2 root set, defined mod 2 pi."""
    system = getattr(sol, "system", sol)
    if abs(system.s - 0.5) > 1e-12:
        raise ValueError("closed-form momentum is restricted to spin 1/2")
    mu = system.mu
    total = 0.0 + 0.0j
    for lam in system.roots:
        total += cmath.log(cmath.sinh(lam + 0.5j * mu) / cmath.sinh(lam - 0.5j * mu))
    return -total


def sz(sol) -> Fraction:
    """Exact Sz: N s - M on the all-up pseudo-vacuum, M - N s on all-down."""
    system = getattr(sol, "system", sol)
    up = Fraction(round(2 * system.s) * system.N, 2) - system.M
    return up if system.vacuum == "up" else -up


def bethe_vector(system: BetheSystem, chain=None) -> np.ndarray:
    """Normalized B(lambda_1 - i mu/2) ... B(lambda_M - i mu/2) |up...up>,
    or its spin flip F B...B|up...up> = C...C|down...down> on the all-down
    vacuum (an eigenvector whenever F t F = t).

    Matrix-free: each B is applied site by site by
    `lax.apply_monodromy_block`, in O(N n^2 D) per root, and no D x D
    array is formed."""
    if chain is None:
        chain = uniform_chain("xxz", system.N, system.mu, system.n, "principal")
    D = int(np.prod(chain.local_dims, dtype=np.int64))
    vec = np.zeros(D, dtype=complex)
    vec[0] = 1.0
    for lam in system.roots:
        with np.errstate(over="ignore", invalid="ignore"):
            vec = apply_monodromy_block(chain, lam - 0.5j * system.mu, 0, 1, vec)
            norm = float(np.linalg.norm(vec))
        if not np.isfinite(norm) or norm < 1e-280:
            raise ValueError("Bethe vector vanished during construction")
        vec = vec / norm
    # F reverses the product basis: every site digit m -> n - 1 - m
    return vec if system.vacuum == "up" else vec[::-1]


def _eigen_gap(apply_t, vec, value) -> float:
    # relative defect |t v - Lambda v| / |t v| of a candidate eigenvector;
    # apply_t maps v to t v
    tv = apply_t(vec)
    return float(np.linalg.norm(tv - value * vec) / max(np.linalg.norm(tv), 1e-300))


def _structured_seeds(M, restarts, seed, N, s):
    base = (np.arange(M) - (M - 1) / 2).astype(complex)
    alt = np.where(np.arange(M) % 2 == 0, 1.0, -1.0)
    seeds = [scale * base for scale in (0.02, 0.3, 0.7, 1.3)]
    seeds.append(0.3 * base + 0.45j * alt)
    seeds.append(0.6 * base + 0.45j * alt)
    shifted = 0.3 * base.copy()
    shifted[-1] += 0.5j * np.pi
    seeds.append(shifted)
    rng = np.random.default_rng(np.random.SeedSequence([seed % 2**63, N, round(2 * s), M]))
    for _ in range(restarts):
        seeds.append(rng.uniform(-2.5, 2.5, M) + 1j * rng.uniform(-1.5, 1.5, M))
    return seeds


def _finish(system: BetheSystem, fn=None) -> BetheSolution:
    fn = fn if fn is not None else eigenvalue_fn(system)
    if abs(system.s - 0.5) < 1e-12:
        e, p = energy(system), momentum(system)
    else:
        e = p = None
    return BetheSolution(system, bae_residual(system), fn, e, p)


def _certify(system: BetheSystem, chain, apply_t):
    """(solution, Bethe vector) when the equations hold to _ACCEPT and the
    transfer matrix at _GAP_PROBE, applied by apply_t, has the vector as
    eigenvector with Lambda to _GAP; None otherwise."""
    if bae_residual(system) >= _ACCEPT:
        return None
    fn = eigenvalue_fn(system)
    try:
        vec = bethe_vector(system, chain)
    except ValueError:
        return None
    if _eigen_gap(apply_t, vec, fn(_GAP_PROBE)) >= _GAP:
        return None
    return _finish(system, fn), vec


def _flip_symmetric(chain) -> bool:
    """F t F = t, shown site by site at two probes: a Lax matrix invariant
    under flipping its auxiliary and site legs together (which reverses its
    row and column order) makes the transfer matrix flip invariant."""
    return all(rel_norm(lmat[::-1, ::-1], lmat) < 1e-12
               for p in (_GAP_PROBE, _EIG_PROBE) for lmat in site_lax_matrices(chain, p))


def _is_new_state(kept, vec) -> bool:
    # one state, one solution: root sets may differ by runaway or i pi-shifted
    # roots and still build the same vector
    return all(abs(np.vdot(other, vec)) <= 1 - _GAP for _, other in kept)


def refine(system: BetheSystem) -> BetheSystem:
    """Re-run Newton from the system's own roots (fixed point for solutions)."""
    if system.M == 0:
        return system
    lams = _newton(np.asarray(system.roots), system.N, system.s, system.mu)
    if lams is None:
        raise ValueError("Newton did not converge from the supplied roots")
    return replace(system, roots=tuple(_canonical(lams)))


def solve_bae(N, s, mu, M, seed=0, restarts=120):
    """Distinct converged root sets for the (N, s, mu) chain with M roots.

    Solutions are deduplicated as multisets up to the i pi period, gated
    against poles and collisions, and kept only if the transfer matrix
    acting on the constructed Bethe vector reproduces Lambda at a probe
    point to 1e-8; of root sets that build the same state, the first found
    is kept.  Fixed seed stream per (N, s, mu, M) makes the output
    deterministic.  Which solutions are found depends on which starts
    converge; `validate_against_ed` does not use this search.  As there, a
    sector with M > N s is solved as sector 2 N s - M on the all-down
    vacuum when F t F = t.  No D x D array is formed.
    """
    mu, s = complex(mu), float(s)
    n = round(2 * s + 1)
    top = (n - 1) * N
    if 2 * M > top and _flip_symmetric(uniform_chain("xxz", N, mu, n, "principal")):
        return [replace(sol, system=replace(sol.system, vacuum="down"))
                for sol in solve_bae(N, s, mu, top - M, seed, restarts)]
    if M == 0:
        return [_finish(BetheSystem(N, s, mu, ()))]
    found = []
    for start in _structured_seeds(M, restarts, seed, N, s):
        lams = _newton(start, N, s, mu)
        if lams is None:
            continue
        lams = _canonical(lams)
        if not _passes_pole_gates(lams, N, s, mu):
            continue
        if any(_same_multiset(lams, prev) for prev in found):
            continue
        found.append(lams)

    chain = uniform_chain("xxz", N, mu, n, "principal")
    apply_t = partial(apply_transfer, chain, _GAP_PROBE)
    kept = []
    for lams in found:
        certified = _certify(BetheSystem(N, s, mu, tuple(lams)), chain, apply_t)
        if certified is not None and _is_new_state(kept, certified[1]):
            kept.append(certified)
    sols = [sol for sol, _ in kept]
    sols.sort(key=lambda so: tuple((round(z.real, 9), round(z.imag, 9)) for z in so.system.roots))
    return sols


def tq_roots(values, points, N, s, mu, M) -> np.ndarray | None:
    """Roots lambda_j of the Q solving Baxter's TQ relation for given Lambda.

    values holds Lambda at the points.  With v_j = lambda_j - i mu / 2,
    Q(l) = prod sinh(l - v_j) = sum_k c_k e^{(2k - M) l} satisfies
    Lambda Q(l) = a(l) Q(l - i mu) + d(l) Q(l + i mu), linear in c; c is
    the SVD null vector of the row-normalized system and the v_j are
    half the logarithms of the zeros of sum_k c_k x^k.  Returns None when
    that polynomial has fewer than M finite nonzero zeros.
    """
    pts = np.asarray(points, dtype=complex)
    mu = complex(mu)
    a = np.sinh(pts + 0.5j * mu + 1j * mu * s) ** N
    d = np.sinh(pts + 0.5j * mu - 1j * mu * s) ** N
    powers = 2 * np.arange(M + 1) - M
    system = (np.asarray(values)[:, None] * np.exp(np.outer(pts, powers))
              - a[:, None] * np.exp(np.outer(pts - 1j * mu, powers))
              - d[:, None] * np.exp(np.outer(pts + 1j * mu, powers)))
    system /= np.maximum(np.linalg.norm(system, axis=1, keepdims=True), 1e-300)
    coeffs = np.linalg.svd(system)[2][-1].conj()
    zeros = np.roots(coeffs[::-1])
    if zeros.size != M or (M and np.abs(zeros).min() < 1e-300):
        return None
    return 0.5 * np.log(zeros) + 0.5j * mu


def _sector_levels(fam, teig, sectors, points):
    """Lambda at the points for every eigenvector of every sector block.

    The eigenvectors V of each block are those of teig, the transfer matrix
    at a generic probe; Lambda of level j at lambda is
    (V^-1 t(lambda) V)_jj.  One further full transfer matrix is alive at a
    time and only its sector blocks are kept.
    """
    bases = {}
    for M, sel in sectors.items():
        vecs = np.linalg.eig(teig[np.ix_(sel, sel)])[1]
        bases[M] = (np.linalg.inv(vecs), vecs)
    table = {M: np.empty((sel.size, len(points)), dtype=complex) for M, sel in sectors.items()}
    for k, lam in enumerate(points):
        t = fam(lam)
        for M, sel in sectors.items():
            inv, vecs = bases[M]
            table[M][:, k] = np.einsum("ij,ji->i", inv, t[np.ix_(sel, sel)] @ vecs)
    return table


def _reconstruct(N, s, mu, chain, apply_t, teig, sectors):
    """Certified (solution, vector) pairs per sector, at most one candidate
    per eigenvector of the sector block of teig, each state once."""
    K = 2 * N * round(2 * s + 1) + 8
    points = _TQ_CENTER + _TQ_RADIUS * np.exp(2j * np.pi * np.arange(K) / K)
    table = _sector_levels(transfer(chain), teig, sectors, points)
    out = {}
    for M, values in table.items():
        kept = []
        for row in values:
            roots = tq_roots(row, points, N, s, mu, M)
            if roots is None:
                continue
            try:
                system = refine(BetheSystem(N, s, mu, tuple(roots)))
            except ValueError:
                continue
            if not _passes_pole_gates(np.asarray(system.roots), N, s, mu):
                continue
            certified = _certify(system, chain, apply_t)
            if certified is not None and _is_new_state(kept, certified[1]):
                kept.append(certified)
        out[M] = kept
    return out


def solution_record(sol: BetheSolution) -> dict:
    """JSON-ready record of one solution; complex values as [re, im].

    A solution built on the all-down pseudo-vacuum also carries
    "vacuum": "down"; its "M" counts its roots and "sz" is M - N s.
    """
    def c(z):
        z = complex(z)
        return [z.real, z.imag]

    system = sol.system
    record = {
        "N": system.N,
        "s": system.s,
        "mu": c(system.mu),
        "M": system.M,
        "roots": [c(z) for z in system.roots],
        "residual": sol.residual,
        "energy": None if sol.energy is None else c(sol.energy),
        "momentum": None if sol.momentum is None else c(sol.momentum),
        "sz": float(sz(sol)),
        "matched": sol.matched_ed_index,
    }
    if system.vacuum != "up":
        record["vacuum"] = system.vacuum
    return record


def validate_against_ed(N, s, mu, M_range=None, probes=_PROBES, rtol=1e-7):
    """Bethe states reconstructed from, and matched against, sector ED.

    For each sector the transfer matrix is restricted to Sz = N s - M.
    Every eigenvector of that block yields at most one candidate root set,
    through `tq_roots`; a candidate counts when it passes the certifier
    (`refine`, residual, pole gates, Bethe vector eigen-gap) and is kept
    once per state.  Sectors with M > N s are covered from sector
    2 N s - M by the spin flip F when F t F = t (`_flip_symmetric`): the
    flipped vector, on the all-down vacuum, must pass the eigen-gap gate
    again.  Otherwise those sectors are reconstructed directly.  A
    solution is matched when its Lambda agrees with a sector eigenvalue to
    rtol at all probes, relative to max(|Lambda|, 1e-8 |t(p)|_F) so that a
    level with Lambda = 0 can match.  Coverage counts sector levels matched
    by at least one solution; it is fixed by the chain alone: no random
    start takes part.
    """
    mu, s = complex(mu), float(s)
    n = round(2 * s + 1)
    if n**N > 4096:
        raise ValueError("Hilbert space above the validation bound")
    chain = uniform_chain("xxz", N, mu, n, "principal")
    fam = transfer(chain)
    top = round(2 * s) * N
    if M_range is None:
        M_range = range(top + 1)
    sectors = {M: sel for M in M_range if (sel := sz_sector_indices(N, n, M)).size}

    tmat, teig = fam(_GAP_PROBE), fam(_EIG_PROBE)
    flip = _flip_symmetric(chain)
    apply_t = partial(np.matmul, tmat)

    def source(M):
        return top - M if flip and 2 * M > top else M

    direct = sorted({source(M) for M in sectors})
    found = _reconstruct(N, s, mu, chain, apply_t, teig,
                         {M: sz_sector_indices(N, n, M) for M in direct})
    del teig  # at the 4096 cap every full transfer matrix holds 268 MB
    evs = {M: [] for M in sectors}
    floors = []  # a level with Lambda = 0 is matched on the scale of t itself
    for p in probes:
        t = fam(complex(p))
        floors.append(1e-8 * np.linalg.norm(t))
        for M, sel in sectors.items():
            evs[M].append(np.linalg.eigvals(t[np.ix_(sel, sel)]))

    report = {
        "N": N,
        "s": s,
        "mu": [mu.real, mu.imag],
        "probes": [[complex(p).real, complex(p).imag] for p in probes],
        "rtol": rtol,
        "sectors": [],
    }
    covered = 0
    mismatched = 0
    total_solutions = 0
    for M, sel in sectors.items():
        sols = [sol for sol, _ in found[M]] if source(M) == M else [
            replace(sol, system=replace(sol.system, vacuum="down"))
            for sol, vec in found[source(M)]
            if _eigen_gap(apply_t, vec[::-1], sol.eigenvalue_fn(_GAP_PROBE)) < _GAP
        ]
        hit = np.zeros(sel.size, dtype=bool)
        entries = []
        for sol in sols:
            total_solutions += 1
            matched_index = None
            ok = True
            for k, p in enumerate(probes):
                val = sol.eigenvalue_fn(complex(p))
                dist = np.abs(evs[M][k] - val) / max(abs(val), floors[k], 1e-300)
                j = int(np.argmin(dist))
                if dist[j] >= rtol:
                    ok = False
                    break
                if k == 0:
                    matched_index = j
            if ok:
                hit[matched_index] = True
            else:
                mismatched += 1
            entries.append(solution_record(replace(sol, matched_ed_index=matched_index if ok else None)))
        report["sectors"].append({
            "M": M,
            "sz": float(N * s - M),
            "dimension": int(sel.size),
            "solutions": entries,
            "levels_matched": int(hit.sum()),
            "unmatched_level_indices": [int(j) for j in np.where(~hit)[0]],
        })
        covered += int(hit.sum())
    report["coverage"] = [covered, n**N]
    report["mismatched_solutions"] = mismatched
    report["total_solutions"] = total_solutions
    return report
