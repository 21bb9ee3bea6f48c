"""Algebraic Bethe ansatz for the spin-s six-vertex hierarchy.

Roots of the Bethe equations are found by damped Newton iteration on the
log-form equations with multi-start seeding, deduplicated up to the i pi
periodicity of sinh, gated against poles and collisions, and certified by
letting the transfer matrix act on the constructed Bethe vector.  The
resulting transfer eigenvalue, energy, momentum and Sz are cross-validated
against exact diagonalization sector by sector.
"""

from __future__ import annotations

import cmath
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .lax import monodromy, sz_sector_indices, transfer, uniform_chain
from .linalg import mat

_ACCEPT = 1e-10
_DEDUP = 1e-7
_PROBES = (0.233, -0.377, 0.151 + 0.09j)


@dataclass(frozen=True)
class BetheSystem:
    """A chain (N sites, spin s, anisotropy mu) with a candidate root set."""

    N: int
    s: float
    mu: complex
    roots: tuple

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
    """Exact Sz = N s - M of the state built on the all-up pseudo-vacuum."""
    system = getattr(sol, "system", sol)
    return Fraction(round(2 * system.s) * system.N, 2) - system.M


def bethe_vector(system: BetheSystem, chain=None) -> np.ndarray:
    """Normalized B(lambda_1 - i mu/2) ... B(lambda_M - i mu/2) |up...up>."""
    if chain is None:
        chain = uniform_chain("xxz", system.N, system.mu, system.n, "principal")
    D = int(np.prod(chain.local_dims, dtype=np.int64))
    vec = np.zeros(D, dtype=complex)
    vec[0] = 1.0
    for lam in system.roots:
        with np.errstate(over="ignore", invalid="ignore"):
            T = mat(monodromy(chain, lam - 0.5j * system.mu))
            vec = T[0:D, D:2 * D] @ vec
            norm = float(np.linalg.norm(vec))
        if not np.isfinite(norm) or norm < 1e-280:
            raise ValueError("Bethe vector vanished during construction")
        vec = vec / norm
    return vec


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


def refine(system: BetheSystem) -> BetheSystem:
    """Re-run Newton from the system's own roots (fixed point for solutions)."""
    if system.M == 0:
        return system
    lams = _newton(np.asarray(system.roots), system.N, system.s, system.mu)
    if lams is None:
        raise ValueError("Newton did not converge from the supplied roots")
    return BetheSystem(system.N, system.s, system.mu, tuple(_canonical(lams)))


def solve_bae(N, s, mu, M, seed=0, restarts=120, threads=1, require_admissible=True):
    """Distinct converged root sets for the (N, s, mu) chain with M roots.

    Solutions are deduplicated as multisets up to the i pi period, gated
    against poles and collisions, and (by default) kept only if the
    transfer matrix acting on the constructed Bethe vector reproduces
    Lambda at a probe point to 1e-8.  Fixed seed stream per (N, s, mu, M)
    makes the output deterministic; restarts are independent, so they can
    be spread over threads.
    """
    mu, s = complex(mu), float(s)
    if M == 0:
        return [_finish(BetheSystem(N, s, mu, ()))]
    starts = _structured_seeds(M, restarts, seed, N, s)

    def run(start):
        return _newton(start, N, s, mu)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, starts))
    else:
        results = [run(start) for start in starts]

    found = []
    for lams in results:
        if lams is None:
            continue
        lams = _canonical(lams)
        if not _passes_pole_gates(lams, N, s, mu):
            continue
        if any(_same_multiset(lams, prev) for prev in found):
            continue
        found.append(lams)

    chain = uniform_chain("xxz", N, mu, round(2 * s + 1), "principal")
    probe = 0.233
    tmat = mat(transfer(chain)(probe)) if require_admissible else None
    sols = []
    for lams in found:
        system = BetheSystem(N, s, mu, tuple(lams))
        if bae_residual(system) >= _ACCEPT:
            continue
        fn = eigenvalue_fn(system)
        if require_admissible:
            try:
                vec = bethe_vector(system, chain)
            except ValueError:
                continue
            tv = tmat @ vec
            gap = np.linalg.norm(tv - fn(probe) * vec) / max(np.linalg.norm(tv), 1e-300)
            if gap >= 1e-8:
                continue
        sols.append(_finish(system, fn))
    sols.sort(key=lambda so: tuple((round(z.real, 9), round(z.imag, 9)) for z in so.system.roots))
    return sols


def solution_record(sol: BetheSolution) -> dict:
    """JSON-ready record of one solution; complex values as [re, im]."""
    def c(z):
        z = complex(z)
        return [z.real, z.imag]

    system = sol.system
    return {
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


def validate_against_ed(N, s, mu, M_range=None, seed=0, restarts=120, threads=1,
                        probes=_PROBES, rtol=1e-7):
    """Match every found solution against sector-restricted diagonalization.

    For each M the transfer matrix is restricted to the Sz = N s - M sector
    and diagonalized at the probe points; a solution is matched when its
    Lambda agrees with a sector eigenvalue to rtol at all probes.  Returns
    a JSON-ready report; coverage counts sector levels matched by at least
    one solution (soundness check only, no completeness claim).
    """
    mu, s = complex(mu), float(s)
    n = round(2 * s + 1)
    if n**N > 4096:
        raise ValueError("Hilbert space above the validation bound")
    chain = uniform_chain("xxz", N, mu, n, "principal")
    fam = transfer(chain)
    tmats = [mat(fam(complex(p))) for p in probes]
    if M_range is None:
        M_range = range(round(2 * s) * N + 1)

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
    for M in M_range:
        sel = sz_sector_indices(N, n, M)
        if sel.size == 0:
            continue
        evs = [np.linalg.eigvals(t[np.ix_(sel, sel)]) for t in tmats]
        sols = solve_bae(N, s, mu, M, seed=seed, restarts=restarts, threads=threads)
        hit = np.zeros(sel.size, dtype=bool)
        entries = []
        for sol in sols:
            total_solutions += 1
            matched_index = None
            ok = True
            for k, p in enumerate(probes):
                val = sol.eigenvalue_fn(complex(p))
                dist = np.abs(evs[k] - val) / max(abs(val), 1e-300)
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
