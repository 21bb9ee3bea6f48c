"""Algebraic Bethe ansatz for the spin-s six-vertex hierarchy.

Roots come from one source, a census of the sector-restricted transfer
matrix: one candidate per eigenvector of the sector block.  Lambda is read
off the commuting family on a small circle, Baxter's TQ relation
Lambda Q(l) = a Q(l - i mu) + d Q(l + i mu) is solved as a linear system
for Q, and its zeros, polished by Newton (`refine`), are the roots.
`solve_bae` runs the census on one sector, `validate_against_ed` on every
sector, matching each solution against ED.  The sector blocks come from
one batched matrix-free `lax.apply_transfer` on their unit columns
(`_sector_blocks`).  Every candidate then passes one certifier: pole
gates, the equations to 1e-10, and the transfer matrix on the Bethe vector
B...B|0> giving Lambda to 1e-8; the first root set per state is kept.  The
Bethe vector is built matrix-free, one site at a time
(`lax.apply_monodromy_block`).  A sector with M > N s is solved as sector
2 N s - M and flipped (F: m -> -m on every site) onto the all-down vacuum:
the principal Lax matrix is unchanged by reversing its row and column
order, so F t F = t, and each flipped vector passes the eigen-gap gate
again.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

import numpy as np

from .lax import apply_monodromy_block, apply_transfer, sz_sector_indices, transfer, uniform_chain

_ACCEPT = 1e-10
_NEWTON_STEPS = 200
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


def _newton(start, N, s, mu):
    lams = np.asarray(start, dtype=complex).copy()
    r = _log_residual(lams, N, s, mu)
    nr = float(np.abs(r).max()) if r.size else 0.0
    for _ in range(_NEWTON_STEPS):
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
    # sorted on rounded parts, so that a conjugate pair, whose real parts
    # differ in the last bits only, keeps one order
    out = _normalize_mod_ipi(np.asarray(lams, dtype=complex))
    return out[np.lexsort((np.round(out.imag, 9), np.round(out.real, 9)))]


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
    vacuum, an eigenvector too since F t F = t.

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


def _certified(N, s, mu, candidates, chain, apply_t) -> list:
    """(solution, Bethe vector) pairs, the first per state, of the candidate
    root arrays that pass the one certifier: a valid `BetheSystem`, the pole
    gates, the equations to _ACCEPT, and the transfer matrix at _GAP_PROBE,
    applied by apply_t, having the vector as eigenvector with Lambda to _GAP.
    """
    kept = []
    for lams in candidates:
        try:
            system = BetheSystem(N, s, mu, tuple(lams))
        except ValueError:
            continue
        if not _passes_pole_gates(np.asarray(system.roots), N, s, mu):
            continue
        residual = bae_residual(system)
        if residual >= _ACCEPT:
            continue
        fn = eigenvalue_fn(system)
        try:
            vec = bethe_vector(system, chain)
        except ValueError:
            continue
        if _eigen_gap(apply_t, vec, fn(_GAP_PROBE)) >= _GAP:
            continue
        # one state, one solution: root sets may differ by runaway or i pi
        # shifted roots and still build the same vector
        if any(abs(np.vdot(other, vec)) > 1 - _GAP for _, other in kept):
            continue
        e, p = (energy(system), momentum(system)) if abs(system.s - 0.5) < 1e-12 else (None, None)
        kept.append((BetheSolution(system, residual, fn, e, p), vec))
    return kept


def _source(M, top) -> int:
    # sector M > N s = top / 2 is solved as its mirror 2 N s - M
    return top - M if 2 * M > top else M


def _in_sector(M, source, kept, apply_t) -> list:
    """Sector M's (solution, vector) pairs from those of its source sector.
    A mirrored state is flipped onto the all-down vacuum, and the flipped
    vector must pass the eigen-gap gate again."""
    if source == M:
        return kept
    out = []
    for sol, vec in kept:
        flipped = vec[::-1]
        if _eigen_gap(apply_t, flipped, sol.eigenvalue_fn(_GAP_PROBE)) < _GAP:
            out.append((replace(sol, system=replace(sol.system, vacuum="down")), flipped))
    return out


def refine(system: BetheSystem) -> BetheSystem:
    """Re-run Newton from the system's own roots (fixed point for solutions)."""
    lams = _newton(np.asarray(system.roots), system.N, system.s, system.mu)
    if lams is None:
        raise ValueError("Newton did not converge from the supplied roots")
    return replace(system, roots=tuple(_canonical(lams)))


def _report_order(sol: BetheSolution) -> tuple:
    # by matched ED level, unmatched last, then by the roots, rounded so that
    # last-bit noise in the eigensolver does not reorder the output
    m = sol.matched_ed_index
    return m is None, m or 0, tuple((round(z.real, 9), round(z.imag, 9)) for z in sol.system.roots)


def solve_bae(N, s, mu, M):
    """Certified root sets for the (N, s, mu) chain with M roots.

    The TQ census of `validate_against_ed` limited to sector M, without the
    ED match: one candidate per eigenvector of the sector block of the
    transfer matrix, through `tq_roots` and `refine`, each passing the same
    certifier (`_certified`) and kept once per state.  The sector blocks
    and the eigen-gap gate apply the transfer matrix matrix-free
    (`lax.apply_transfer`), so no D x D array is formed.  No random start
    takes part: the output is fixed by the chain.  As there, a sector with
    M > N s is solved as sector 2 N s - M and flipped onto the all-down
    vacuum.  Solutions are sorted by their roots.
    """
    mu, s = complex(mu), float(s)
    n = round(2 * s + 1)
    chain = uniform_chain("xxz", N, mu, n, "principal")
    apply_t = partial(apply_transfer, chain, _GAP_PROBE)
    source = _source(M, (n - 1) * N)
    found = _reconstruct(N, s, mu, chain, apply_t, {source: sz_sector_indices(N, n, source)})
    kept = _in_sector(M, source, found[source], apply_t)
    return sorted((sol for sol, _ in kept), key=_report_order)


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


def _sector_blocks(chain, lam, sectors) -> dict:
    """{M: t(lam)[sel, sel]} for the index arrays sel = sectors[M], from one
    batched `apply_transfer` on the unit columns of every sector, so no
    D x D array is formed."""
    cols = np.concatenate(list(sectors.values()))
    unit = np.zeros((int(np.prod(chain.local_dims)), cols.size), dtype=complex)
    unit[cols, np.arange(cols.size)] = 1.0
    image = apply_transfer(chain, lam, unit)
    blocks, start = {}, 0
    for M, sel in sectors.items():
        blocks[M] = image[sel, start:start + sel.size]
        start += sel.size
    return blocks


def _sector_levels(chain, sectors, points):
    """Lambda at the points for every eigenvector of every sector block.

    The eigenvectors V of each block are those of the transfer matrix at
    the generic probe _EIG_PROBE; Lambda of level j at lambda is
    (V^-1 t(lambda) V)_jj.
    """
    bases = {}
    for M, block in _sector_blocks(chain, _EIG_PROBE, sectors).items():
        vecs = np.linalg.eig(block)[1]
        bases[M] = (np.linalg.inv(vecs), vecs)
    table = {M: np.empty((sel.size, len(points)), dtype=complex) for M, sel in sectors.items()}
    for k, lam in enumerate(points):
        for M, block in _sector_blocks(chain, lam, sectors).items():
            inv, vecs = bases[M]
            table[M][:, k] = np.einsum("ij,ji->i", inv, block @ vecs)
    return table


def _tq_candidates(values, points, N, s, mu, M):
    # one candidate root set per level: its TQ roots, polished by Newton
    for row in values:
        roots = tq_roots(row, points, N, s, mu, M)
        if roots is None:
            continue
        try:
            yield refine(BetheSystem(N, s, mu, tuple(roots))).roots
        except ValueError:
            continue


def _reconstruct(N, s, mu, chain, apply_t, sectors):
    """Certified (solution, vector) pairs per sector, from at most one
    candidate per eigenvector of the sector block; apply_t is the
    certifier's transfer matrix at _GAP_PROBE."""
    K = 2 * N * round(2 * s + 1) + 8
    points = _TQ_CENTER + _TQ_RADIUS * np.exp(2j * np.pi * np.arange(K) / K)
    table = _sector_levels(chain, sectors, points)
    return {M: _certified(N, s, mu, _tq_candidates(values, points, N, s, mu, M), chain, apply_t)
            for M, values in table.items()}


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


def validate_against_ed(N, s, mu, M_range=None, rtol=1e-7):
    """Bethe states reconstructed from, and matched against, sector ED.

    For each sector the transfer matrix is restricted to Sz = N s - M.
    Every eigenvector of that block yields at most one candidate root set,
    through `tq_roots` and `refine`; a candidate counts when it passes the
    certifier shared with `solve_bae` (`_certified`) and is kept once per
    state.  The sector blocks are applied matrix-free, as in `solve_bae`;
    the certifier's gate and the three ED probes use dense transfer
    matrices, four in all, as an independent oracle.  Sectors with M > N s
    are covered from sector 2 N s - M by the spin flip F, since F t F = t:
    the flipped vector, on the all-down vacuum, must pass the eigen-gap
    gate again.  A solution is matched
    when its Lambda agrees with a sector eigenvalue to rtol at the three
    probes _PROBES, relative to max(|Lambda|, 1e-8 |t(p)|_F) so that a
    level with Lambda = 0 can match.  Each sector's solutions are sorted
    by matched level, unmatched last.  Coverage counts sector levels
    matched by at least one solution; it is fixed by the chain alone: no
    random start takes part.
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

    apply_t = partial(np.matmul, fam(_GAP_PROBE))
    sources = {M: _source(M, top) for M in sectors}
    found = _reconstruct(N, s, mu, chain, apply_t,
                         {M: sz_sector_indices(N, n, M) for M in sorted(set(sources.values()))})
    evs = {M: [] for M in sectors}
    floors = []  # a level with Lambda = 0 is matched on the scale of t itself
    for p in _PROBES:
        t = fam(complex(p))
        floors.append(1e-8 * np.linalg.norm(t))
        for M, sel in sectors.items():
            evs[M].append(np.linalg.eigvals(t[np.ix_(sel, sel)]))

    report = {
        "N": N,
        "s": s,
        "mu": [mu.real, mu.imag],
        "probes": [[complex(p).real, complex(p).imag] for p in _PROBES],
        "rtol": rtol,
        "sectors": [],
    }
    covered = mismatched = total_solutions = 0
    for M, sel in sectors.items():
        hit = np.zeros(sel.size, dtype=bool)
        sols = []
        for sol, _ in _in_sector(M, sources[M], found[sources[M]], apply_t):
            vals = [sol.eigenvalue_fn(complex(p)) for p in _PROBES]
            dists = [np.abs(ev - val) / max(abs(val), floor, 1e-300)
                     for ev, val, floor in zip(evs[M], vals, floors)]
            # matched to the nearest level at the first probe when every
            # probe has a level within rtol
            matched = None if any(d.min() >= rtol for d in dists) else int(np.argmin(dists[0]))
            if matched is None:
                mismatched += 1
            else:
                hit[matched] = True
            sols.append(replace(sol, matched_ed_index=matched))
        entries = [solution_record(sol) for sol in sorted(sols, key=_report_order)]
        total_solutions += len(entries)
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
