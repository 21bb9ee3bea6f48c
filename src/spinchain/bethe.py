"""Algebraic Bethe ansatz for the spin-s six-vertex hierarchy.

Roots come from one source, a census of the sector-restricted transfer
matrix: one candidate per eigenvector of the sector block.  Lambda is read
off the commuting family on a small circle, Baxter's TQ relation
Lambda Q(l) = a Q(l - i mu) + d Q(l + i mu) is solved as a linear system
for Q, and its zeros, polished by Newton (`refine`), are the roots.  One
driver (`_census`) runs the census for `solve_bae` on one sector and for
`validate_against_ed`, which matches each solution against ED, on every
sector.  Every refined system passes one certifier (`_certified`): pole
gates, the equations to 1e-10, and the eigen-gap gate (`_gaps`), t on the
Bethe vector B...B|0> giving Lambda to 1e-8; the first root set per state
is kept.
The equations are written once (`_equations`), on an (..., M) stack of
root sets.  One stacked pass takes the residuals of a sector's TQ root
sets, and only those at or above Newton's 1e-13 stop enter `_newton`
(14 of the 42 of (6, 1/2)); the rest become what `refine` returns without
a step.  `_newton` walks its starts together, each with the damped steps
it takes alone, evaluating all pending points per round in one pass whose
one sinh table gives the residual (log) and the Jacobian (cosh / sinh).
The certifier takes the residuals of all pole-gated candidates in one
pass too; each solution's Lambda at the census's fixed points (_PROBES,
_GAP_PROBE among them) is taken once and serves the gate, the mirrored
sector's gate and the ED match, whose distances come from one broadcast
per sector.  Each stacked row is bit for bit the root set alone: the same
elementwise operations on the same operands, each pair-table row summed
along its own axis.
The sector blocks (`_sector_blocks`, for the census and the ED probes)
read their own rows off the Lax kernel, the gate applies t to the stacked
Bethe vectors (`lax.apply_transfer`), and the Bethe vectors of a sector's
candidates are built together (`_bethe_rows`), one stacked kernel pass per
root position over chunks whose state and kernel spare hold about
linalg.BLOCK_ENTRIES entries, all through the lax module's one
site-by-site kernel.  B...B|0> can cancel about seven digits, and at
(6, 1) a pair of levels sits at 3.5e-9 to 2.1e-8 against the 1e-8 gate as
the last bits of their roots move, so the stacked build keeps every
product and norm of the one-at-a-time build: each slice of the stack is
multiplied and normalized by the same BLAS and numpy calls as one vector
alone, and every vector is the same bytes in any chunk.
A sector with M > N s is solved as sector 2 N s - M and flipped
(F: m -> -m on every site) onto the all-down vacuum: the principal Lax
matrix is unchanged by reversing its row and column order, so F t F = t,
and each flipped vector passes the eigen-gap gate again.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .lax import (_apply_blocks, _apply_monodromy, apply_transfer, site_lax_matrices,
                  sz_sector_indices, uniform_chain)
from .linalg import MAX_DIM, _norms

_ACCEPT = 1e-10
_NEWTON_STEPS = 200
_GAP = 1e-8
_PROBES = (0.233, -0.377, 0.151 + 0.09j)
_GAP_PROBE = 0.233
# generic complex point at which the sector eigenvectors are taken
_EIG_PROBE = 0.31 + 0.17j
# circle on which Lambda is sampled for the TQ system, at M + _TQ_MARGIN
# points for the largest source sector M: of the margins 3 to 20 tried, only
# 3 and 12 kept every level that 2N(2s+1) + 8 points certified up to (6, 1),
# and 12 lost more elsewhere; more points fit no better
_TQ_CENTER, _TQ_RADIUS = 0.07, 0.45
_TQ_MARGIN = 3


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


def _copy(obj, **changes):
    # dataclasses.replace without __init__: the fields kept are already checked
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__, **changes)
    return new


def _wrap(r):
    # reduce mod 2 pi i: the equations say exp(r) = 1
    return r - 2j * np.pi * (r.imag / (2 * np.pi)).round()


def _equations(f, lams, N, s, mu):
    """(N (f(l + i mu s) - f(l - i mu s)) - row sums of the pair table, the table
    f(l_j - l_k + i mu) - f(l_j - l_k - i mu) with a zero diagonal) on the last
    axis of a (..., M) stack of root sets.  f maps the (..., M, M + 1, 2) table
    of every argument at once (row j: l_j - l_k then l_j, plus then minus the
    shift; x + (-y) is x - y bit for bit), and may stack several functions on
    leading axes: f = log sinh gives the equations, f = coth their derivative."""
    M = lams.shape[-1]
    shifts = np.array([[1j * mu, -(1j * mu)]] * M + [[1j * mu * s, -(1j * mu * s)]])
    args = np.concatenate((lams[..., :, None] - lams[..., None, :], lams[..., None]), axis=-1)
    v = f(args[..., None] + shifts)
    d = v[..., 0] - v[..., 1]
    d.reshape(*d.shape[:-2], M * (M + 1))[..., ::M + 2] = 0.0  # the pair table's diagonal
    return N * d[..., M] - d[..., :M].sum(axis=-1), d[..., :M]


def _log_and_coth(z):
    # one sinh table gives the equations (log) and their derivative (cosh / sinh)
    return np.array((np.log(sh := np.sinh(z)), np.cosh(z) / sh))


def _residuals(systems) -> list:
    """bae_residual of each system, all of one chain and M, from one stacked
    pass (no pole check)."""
    if not systems:
        return []
    first = systems[0]
    lams = np.array([system.roots for system in systems], dtype=complex)
    with np.errstate(all="ignore"):
        eq = _equations(lambda z: np.log(np.sinh(z)), lams, first.N, first.s, first.mu)[0]
    return np.abs(_wrap(eq)).max(axis=-1, initial=0.0).tolist()


def _residual_and_jacobian(lams, N, s, mu):
    """The wrapped equations of a (..., M) stack of root sets and their
    (..., M, M) Jacobians, from one sinh table."""
    M = lams.shape[-1]
    eq, pair = _equations(_log_and_coth, lams, N, s, mu)
    # as pair + np.diag(eq) of one root set, whose pair diagonal is 0.0 (and
    # 0.0 + x is x but for x = -0.0), or np.diag(eq) alone below two roots
    jac = pair[1] + 0.0
    jac.reshape(*jac.shape[:-2], -1)[..., ::M + 1] = eq[1] + 0.0 if M > 1 else eq[1]
    return _wrap(eq[0]), jac


def _newton(starts, N, s, mu) -> list:
    """The roots Newton reaches below _ACCEPT from each row of the (L, M)
    stack starts, or None.  Each walk takes the damped steps it takes alone:
    the first of the steps 0.5**k delta, k = 0 to 39, under which the norm
    descends.  The pending trial points of all walks, three values of k
    each, are evaluated in one stacked pass: a walk from a singular pair
    halves its first steps twice."""
    found, walks = [None] * len(starts), {}

    def tries(i, point, delta, k):
        return {(i, q): point - 0.5**q * delta for q in range(k, min(k + 3, 40))}

    # walk i -> (point, its norm, delta, steps taken); a start (k = -1) is taken as it is
    trials = {(i, -1): row for i, row in enumerate(np.array(starts, dtype=complex))}
    with np.errstate(all="ignore"):
        while trials:
            r, jac = _residual_and_jacobian(np.array(list(trials.values())), N, s, mu)
            norms, moved, batch, trials = np.abs(r).max(-1, initial=0.0).tolist(), set(), trials, {}
            for ((i, k), lams), nr, r_k, jac_k in zip(batch.items(), norms, r, jac):
                if i in moved:  # a longer step of this walk was taken
                    continue
                old, old_nr, delta, steps = walks.get(i, (lams, nr, None, 0))
                if steps and not (math.isfinite(nr) and nr <= old_nr * (1 - 0.25 * 0.5**k)):
                    if k == 39:  # stalled at the rounding floor, maybe already below _ACCEPT
                        found[i] = old if old_nr < _ACCEPT else None
                    elif (i, k + 1) not in batch:  # the next pass tries the next three
                        trials.update(tries(i, old, delta, k + 1))
                    continue
                moved.add(i)
                if nr < 1e-13 or steps == _NEWTON_STEPS:
                    found[i] = lams if nr < _ACCEPT else None
                    continue
                try:
                    delta = np.linalg.solve(jac_k, r_k)
                except np.linalg.LinAlgError:
                    continue
                if np.isfinite(delta).all():
                    walks[i] = (lams, nr, delta, steps + 1)
                    trials.update(tries(i, lams, delta, 0))
    return found


def _normalize_mod_ipi(lams):
    # sinh(z + i pi) = -sinh z leaves every ratio in the equations fixed;
    # map Im into (-pi/2, pi/2]
    out = lams - 1j * np.pi * np.round(lams.imag / np.pi)
    out = out + 1j * np.pi * (out.imag <= -np.pi / 2 + 1e-12)
    return out


def _canonical(lams):
    # each root set of a (..., M) stack sorted on rounded parts, so that a
    # conjugate pair, whose real parts differ in the last bits only, keeps one order
    out = _normalize_mod_ipi(np.asarray(lams, dtype=complex))
    return np.take_along_axis(out, np.lexsort((np.round(out.imag, 9), np.round(out.real, 9))), -1)


def _at_pole(lams, s, mu, tol, pairs):
    """Whether a root sits within tol of a site pole, sinh(l +- i mu s) = 0,
    or, with pairs, two roots within tol of a pair pole, sinh(l_j - l_k +- i mu) = 0."""
    for i, a in enumerate(lams):
        if min(abs(cmath.sinh(a + 1j * mu * s)), abs(cmath.sinh(a - 1j * mu * s))) < tol:
            return True
        for b in lams[:i] if pairs else ():
            d = a - b
            if min(abs(cmath.sinh(d + 1j * mu)), abs(cmath.sinh(d - 1j * mu))) < tol:
                return True
    return False


def _passes_pole_gates(lams, s, mu):
    # runaway points of continuous beyond-the-equator families are cut off:
    # past this the equations only hold asymptotically; lams is any sequence,
    # and a tuple of Python complex makes the pole loop cheapest
    if any(abs(z.real) > 50.0 for z in lams):
        return False
    return not _at_pole(lams, s, mu, 1e-10, True)


def bae_residual(system: BetheSystem) -> float:
    """Max over i of the log-form equation defect, reduced mod 2 pi i."""
    if _at_pole(system.roots, system.s, system.mu, 1e-12, False):
        raise ValueError("root at a pole of the equations")
    return _residuals([system])[0]


def eigenvalue_fn(system):
    """Transfer eigenvalue lambda -> Lambda(lambda) for a converged system.

    The two dressed terms have simple poles at v_i = lambda_i - i mu / 2
    whose residues cancel when the equations hold; within 1e-6 of a pole
    the limit is realized by averaging the plain form over a small circle
    (exact for analytic functions up to a fourth-order Taylor remainder).
    """
    system = getattr(system, "system", system)
    N, s, mu = system.N, system.s, system.mu
    poles = (np.asarray(system.roots, dtype=complex) - 0.5j * mu).tolist()

    def plain(lam, guard):
        """The plain form at lam; None if guard is set and some |sinh(lam - v)| < 1e-6."""
        pa = pd = 1.0 + 0.0j
        for v in poles:
            den = cmath.sinh(lam - v)
            if guard and abs(den) < 1e-6:
                return None
            pa *= cmath.sinh(lam - v - 1j * mu) / den
            pd *= cmath.sinh(lam - v + 1j * mu) / den
        a = cmath.sinh(lam + 0.5j * mu + 1j * mu * s) ** N
        d = cmath.sinh(lam + 0.5j * mu - 1j * mu * s) ** N
        return a * pa + d * pd

    def value(lam):
        lam = complex(lam)
        near = plain(lam, True)
        if near is None:
            h = 1e-4
            return sum(plain(lam + h * z, False) for z in (1, 1j, -1, -1j)) / 4
        return near

    return value


def _closed_forms(sol) -> tuple:
    """(energy, momentum) of a spin-1/2 root set, from one pass over its roots."""
    system = getattr(sol, "system", sol)
    if abs(system.s - 0.5) > 1e-12:
        raise ValueError("closed-form energy and momentum are restricted to spin 1/2")
    mu = system.mu
    e = p = 0.0 + 0.0j
    for lam in system.roots:
        plus, minus = cmath.sinh(lam + 0.5j * mu), cmath.sinh(lam - 0.5j * mu)
        e += cmath.sinh(1j * mu) / (plus * minus)
        p += cmath.log(plus / minus)
    return -mu * e / (2 * np.pi), -p


def energy(sol) -> complex:
    """Closed-form energy of a spin-1/2 root set."""
    return _closed_forms(sol)[0]


def momentum(sol) -> complex:
    """Closed-form momentum of a spin-1/2 root set, defined mod 2 pi."""
    return _closed_forms(sol)[1]


def sz(sol) -> Fraction:
    """Exact Sz: N s - M on the all-up pseudo-vacuum, M - N s on all-down."""
    system = getattr(sol, "system", sol)
    up = Fraction(round(2 * system.s) * system.N, 2) - system.M
    return up if system.vacuum == "up" else -up


def bethe_vector(system: BetheSystem, chain=None) -> np.ndarray:
    """Normalized B(lambda_1 - i mu/2) ... B(lambda_M - i mu/2) |up...up>,
    or its spin flip F B...B|up...up> = C...C|down...down> on the all-down
    vacuum, an eigenvector too since F t F = t.

    The one-candidate case of the stacked build (`_bethe_rows`), so the
    vector is bit for bit the one the census builds in any chunk of its
    sector: each slice of a stacked kernel pass is the product of one
    vector alone.  Matrix-free, in O(N n^2 D) per root, and no D x D array
    is formed.  ValueError when the vector vanishes on the way."""
    if chain is None:
        chain = uniform_chain("xxz", system.N, system.mu, system.n, "principal")
    rows, built = _bethe_rows(chain, [system])
    if not built[0]:
        raise ValueError("Bethe vector vanished during construction")
    # F reverses the product basis: every site digit m -> n - 1 - m
    return rows[0] if system.vacuum == "up" else rows[0, ::-1]


def _bethe_rows(chain, systems) -> tuple:
    """(rows, built): the normalized B...B|up...up> of the systems, which
    share the chain and M, as the rows of one (len(systems), D) array, and
    whether each stayed finite and above 1e-280 in norm after every root.

    Root position j of every system goes through one `lax._apply_monodromy`
    pass on the (C, 2, D, 1) state of a chunk of C systems, with the
    (C, 2n, 2n) Lax stacks of their j-th roots, then each row is divided by
    its norm (`linalg._norms`).  The Lax stacks, the slices of the stacked
    product and the stacked norms are each bit for bit what one system
    alone gives, so a vector does not depend on the chunk it is built in,
    and the (6, 1) levels within a factor of a few of the 1e-8 eigen-gap
    gate keep their gaps.  A chunk's state and the kernel's spare state
    together hold about linalg.BLOCK_ENTRIES entries, so the build needs
    about that much beside the rows; at N = 12 (D = 4096), 8, 16 and 32
    candidates per chunk build 64 M = 6 vectors in the same time.
    """
    D = int(np.prod(chain.local_dims, dtype=np.int64))
    rows = np.zeros((len(systems), D), dtype=complex)
    rows[:, 0] = 1.0
    built = np.ones(len(systems), dtype=bool)
    lams = np.array([[z - 0.5j * system.mu for z in system.roots] for system in systems],
                    dtype=complex)
    width = max(1, linalg.BLOCK_ENTRIES // (4 * D))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(systems), width):
            chunk = rows[start:start + width]
            state = np.empty((len(chunk), 2, D, 1), dtype=complex)
            for lam in lams[start:start + width].T:
                state[:, 0] = 0.0
                state[:, 1, :, 0] = chunk
                _apply_monodromy(site_lax_matrices(chain, lam), state)
                chunk[...] = state[:, 0, :, 0]
                norms = _norms(chunk[:, None])
                ok = np.isfinite(norms) & (norms >= 1e-280)
                built[start:start + width] &= ok
                chunk /= np.where(ok, norms, 1.0)[:, None]
    return rows, built


def _gaps(chain, sols, vecs) -> np.ndarray:
    """Relative defects |t v - Lambda v| / |t v| of the solutions sols and
    the columns v of their (D, L) stack of Bethe vectors, with t at
    _GAP_PROBE applied by one batched `lax.apply_transfer` to the whole
    stack, which is left as it is."""
    values = np.array([sol.eigenvalue_fn(_GAP_PROBE) for sol in sols])
    tv = apply_transfer(chain, _GAP_PROBE, vecs)
    scale = np.maximum(np.linalg.norm(tv, axis=0), 1e-300)
    # values * vecs, operands in that order: numpy's SIMD complex product is
    # not symmetric in its last bit
    tv -= values * vecs
    return np.linalg.norm(tv, axis=0) / scale


def _at_probes(fn):
    # fn, with its values at the census's fixed points _PROBES (_GAP_PROBE
    # among them) taken once, for the gates and the ED match
    known = {complex(p): fn(p) for p in _PROBES}
    return lambda lam: known[complex(lam)] if complex(lam) in known else fn(lam)


def _certified(candidates, chain) -> tuple:
    """The solutions, the first per state, of the list of candidate systems
    (as `refine` returns them, all of one sector) that pass the one
    certifier, and their Bethe vectors as one (D, L) stack: the pole gates
    per candidate, then the equations to _ACCEPT, the residuals of all that
    pass the gates taken in one stacked pass (`_residuals`, each the
    bae_residual of its system bit for bit), then the Bethe vectors of all
    that pass, built together in chunks of about linalg.BLOCK_ENTRIES / 2
    state entries (`_bethe_rows`, each vector bit for bit the one
    `bethe_vector` builds alone), and on their stack the eigen-gap gate
    (below _GAP).  Each solution's eigenvalue_fn holds its values at
    _PROBES, taken once for the gates and the ED match (`_at_probes`)."""
    gated = [c for c in candidates if _passes_pole_gates(c.roots, c.s, c.mu)]
    gated = [(c, residual) for c, residual in zip(gated, _residuals(gated)) if residual < _ACCEPT]
    rows, built = _bethe_rows(chain, [system for system, _ in gated])
    sols = []
    for (system, residual), ok in zip(gated, built):
        if not ok:
            continue
        try:
            e, p = _closed_forms(system)
        except ValueError:  # above spin 1/2
            e = p = None
        sols.append(BetheSolution(system, residual, _at_probes(eigenvalue_fn(system)), e, p))
    vecs = (rows if built.all() else rows[built]).T
    # one state, one solution: runaway or i pi shifted roots build the same vector
    same = np.abs(vecs.conj().T @ vecs) > 1 - _GAP
    kept = []
    for j, gap in enumerate(_gaps(chain, sols, vecs)):
        if gap < _GAP and not same[kept, j].any():
            kept.append(j)
    return [sols[j] for j in kept], vecs[:, kept]


def _census(chain, s, mu, Ms) -> dict:
    """{M: certified solutions} for the sectors Ms, with at
    most one candidate per eigenvector of each source sector's block.

    Lambda is sampled at M_src + _TQ_MARGIN points, M_src the largest source
    sector, and each sector's levels are fitted in one stacked `tq_roots`
    call.  A sector M > N s takes the states of its mirror 2 N s - M,
    reconstructed once, flipped onto the all-down vacuum, and the flipped
    vectors pass the eigen-gap gate again, in one batch.  Chains above
    MAX_DIM are refused.
    """
    N, n = chain.N, round(2 * s + 1)
    if n**N > MAX_DIM:
        raise ValueError(f"Hilbert space (2s+1)^N above {MAX_DIM}")
    sources = {M: min(M, (n - 1) * N - M) for M in Ms}
    sectors = {M: sz_sector_indices(N, n, M) for M in sorted(set(sources.values()))}
    K = max(sectors) + _TQ_MARGIN
    points = _TQ_CENTER + _TQ_RADIUS * np.exp(2j * np.pi * np.arange(K) / K)
    found = {M: _certified(list(_tq_candidates(values, points, N, s, mu, M)), chain)
             for M, values in _sector_levels(chain, sectors, points).items()}
    census = {}
    for M, source in sources.items():
        sols, vecs = found[source]
        if source != M:
            sols = [_copy(sol, system=_copy(sol.system, vacuum="down")) for sol in sols]
            sols = [sol for sol, gap in zip(sols, _gaps(chain, sols, vecs[::-1])) if gap < _GAP]
        census[M] = sols
    return census


def refine(system: BetheSystem) -> BetheSystem:
    """Re-run Newton from the system's own roots (fixed point for solutions)."""
    lams = _newton([system.roots], system.N, system.s, system.mu)[0]
    if lams is None:
        raise ValueError("Newton did not converge from the supplied roots")
    return BetheSystem(system.N, system.s, system.mu, _canonical(lams).tolist(), system.vacuum)


def _report_order(sol: BetheSolution) -> tuple:
    # by matched ED level, unmatched last, then by the roots, rounded so that
    # last-bit noise in the eigensolver does not reorder the output
    m = sol.matched_ed_index
    return m is None, m or 0, tuple((round(z.real, 9), round(z.imag, 9)) for z in sol.system.roots)


def solve_bae(N, s, mu, M):
    """Certified root sets for the (N, s, mu) chain with M roots.

    The TQ census of `validate_against_ed` limited to sector M, through the
    same driver (`_census`) and without the ED match: one candidate per
    eigenvector of the sector block of the transfer matrix, through
    `tq_roots` and `refine`, each passing the same certifier (`_certified`)
    and kept once per state.  The sector blocks and the eigen-gap gate
    apply the transfer matrix matrix-free (`lax.apply_transfer`), so no
    D x D array is formed.  No random start takes part.  As there, a sector
    with M > N s is solved as sector 2 N s - M and flipped onto the
    all-down vacuum, and (2s+1)^N above MAX_DIM, or M outside [0, 2 N s],
    raises ValueError.  Solutions are sorted by their roots.
    """
    mu, s = complex(mu), float(s)
    if not 0 <= M <= round(2 * s) * N:
        raise ValueError(f"M must lie in [0, 2sN] = [0, {round(2 * s) * N}]")
    chain = uniform_chain("xxz", N, mu, round(2 * s + 1), "principal")
    return sorted(_census(chain, s, mu, [M])[M], key=_report_order)


def tq_roots(values, points, N, s, mu, M) -> list | np.ndarray | None:
    """Roots lambda_j of the Q solving Baxter's TQ relation for given Lambda.

    values holds Lambda at the K points, as a (K,) row or as an (L, K) table
    of levels fitted in one stacked SVD.  With v_j = lambda_j - i mu / 2,
    Q(l) = prod sinh(l - v_j) = sum_k c_k e^{(2k - M) l} satisfies
    Lambda Q(l) = a(l) Q(l - i mu) + d(l) Q(l + i mu), linear in c; c is
    the SVD null vector of the row-normalized system and the v_j are
    half the logarithms of the zeros of sum_k c_k x^k.  A level gets None
    when that polynomial has fewer than M finite nonzero zeros; a row
    returns its roots, a table their list.  Fewer than M + 2 points, or a
    system that is not finite (mu far off scale), raise ValueError.

    The zeros of all levels come from one stacked eigenvalue call
    (`_poly_zeros`), bit for bit np.roots of each level.  A level whose
    first or last coefficient is exactly 0, which np.roots would trim to
    fewer than M zeros or to a zero one, gets None without it.
    """
    pts = np.asarray(points, dtype=complex)
    values = np.asarray(values)
    if pts.size < M + 2:
        raise ValueError(f"the TQ fit for M = {M} needs at least {M + 2} points, not {pts.size}")
    mu = complex(mu)
    powers = 2 * np.arange(M + 1) - M
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.sinh(pts + 0.5j * mu + 1j * mu * s) ** N
        d = np.sinh(pts + 0.5j * mu - 1j * mu * s) ** N
        system = (values.reshape(-1, pts.size, 1) * np.exp(np.outer(pts, powers))
                  - a[:, None] * np.exp(np.outer(pts - 1j * mu, powers))
                  - d[:, None] * np.exp(np.outer(pts + 1j * mu, powers)))
    if not np.isfinite(system).all():
        raise ValueError(f"the TQ system at mu = {mu} is not finite")
    system /= np.maximum(np.linalg.norm(system, axis=2, keepdims=True), 1e-300)
    if M == 0:  # Q = 1
        found = [np.zeros(0, dtype=complex) for _ in system]
    else:
        # highest power first, as np.roots takes them
        polys = np.linalg.svd(system)[2][:, -1].conj()[:, ::-1]
        whole = (polys[:, 0] != 0) & (polys[:, -1] != 0)
        zeros = np.ones((len(polys), M), dtype=complex)
        zeros[whole] = _poly_zeros(polys[whole])
        ok = whole & ~(np.abs(zeros).min(axis=1) < 1e-300)
        found = [0.5 * np.log(z) + 0.5j * mu if good else None for z, good in zip(zeros, ok)]
    return found if values.ndim == 2 else found[0]


def _poly_zeros(polys) -> np.ndarray:
    """The (L, M) zeros of the rows of the complex (L, M + 1) table polys,
    highest power first and with no 0 first or last coefficient, from one
    stacked np.linalg.eigvals of the companion matrices that np.roots
    builds.  LAPACK solves a stack slice by slice as np.roots solves each
    matrix alone, so each row's zeros are np.roots' bit for bit."""
    M = polys.shape[1] - 1
    companion = np.zeros((len(polys), M, M), dtype=complex)
    companion[:, np.arange(1, M), np.arange(M - 1)] = 1.0
    companion[:, 0] = -polys[:, 1:] / polys[:, :1]
    return np.linalg.eigvals(companion)


def _sector_blocks(chain, lam, sectors) -> dict:
    """{M: t(lam)[sel, sel]} for the index arrays sel = sectors[M], from one
    Lax-kernel pass on the boolean unit columns of every sector (the kernel
    casts True to 1 + 0j) that reads the sector rows.  Each block is copied
    out, since a view would keep the whole image alive."""
    cols = np.concatenate(list(sectors.values()))
    unit = np.zeros((int(np.prod(chain.local_dims)), cols.size), dtype=bool)
    unit[cols, np.arange(cols.size)] = True
    image = _apply_blocks(site_lax_matrices(chain, lam), (0, 1),
                          lambda state: state[0, cols, 0] + state[1, cols, 1], unit)
    blocks, start = {}, 0
    for M, sel in sectors.items():
        blocks[M] = image[start:start + sel.size, start:start + sel.size].copy()
        start += sel.size
    return blocks


def _sector_levels(chain, sectors, points):
    """Lambda at the points for every eigenvector of every sector block.

    The eigenvectors V of each block are those of the transfer matrix at
    the generic probe _EIG_PROBE; Lambda of level j at lambda is
    (V^-1 t(lambda) V)_jj.  A block that is not finite (mu far off scale)
    raises ValueError.
    """
    def blocks(lam) -> dict:
        found = _sector_blocks(chain, lam, sectors)
        if not all(np.isfinite(block).all() for block in found.values()):
            raise ValueError(f"the transfer matrix at mu = {chain.mu} is not finite")
        return found

    with np.errstate(over="ignore", invalid="ignore"):
        bases = {}
        for M, block in blocks(_EIG_PROBE).items():
            vecs = np.linalg.eig(block)[1]
            bases[M] = (np.linalg.inv(vecs), vecs)
        table = {M: np.empty((sel.size, len(points)), dtype=complex) for M, sel in sectors.items()}
        for k, lam in enumerate(points):
            for M, block in blocks(lam).items():
                inv, vecs = bases[M]
                table[M][:, k] = np.einsum("ij,ji->i", inv, block @ vecs)
    return table


def _tq_candidates(values, points, N, s, mu, M):
    # one candidate per level: the `BetheSystem` that `refine` makes of its TQ
    # roots, which enter Newton only when one stacked pass finds them above its stop
    systems = []
    for roots in tq_roots(values, points, N, s, mu, M):
        if roots is None:
            continue
        try:
            systems.append(BetheSystem(N, s, mu, tuple(roots)))
        except ValueError:
            continue
    # root sets at or above Newton's stop, or with a NaN residual, walk; the
    # roots of all that converge are put in canonical order in one pass
    walk = [i for i, residual in enumerate(_residuals(systems)) if not residual < 1e-13]
    found = dict(zip(walk, _newton([systems[i].roots for i in walk], N, s, mu)))
    lams = [found.get(i, system.roots) for i, system in enumerate(systems)]
    lams = np.array([roots for roots in lams if roots is not None], dtype=complex)
    for roots in _canonical(lams.reshape(len(lams), M)).tolist():
        try:
            yield BetheSystem(N, s, mu, roots)
        except ValueError:
            continue


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
    certifier (`_certified`) and is kept once per state, through the census
    driver shared with `solve_bae` (`_census`), which applies the sector
    blocks and the eigen-gap gate matrix-free; the three ED probes read every
    sector block of t the same way (`_sector_blocks`), and their eigenvalues
    are checked against the analytic Lambda.  Sectors with M > N s are
    covered from sector 2 N s - M by the spin flip F, since F t F = t: the
    flipped vector, on the all-down vacuum, must pass the eigen-gap gate
    again.  (2s+1)^N above MAX_DIM, or an M_range with no M in [0, 2 N s],
    raises ValueError.  A solution is matched when its Lambda agrees with a
    sector eigenvalue to rtol at the three probes _PROBES, relative to
    max(|Lambda|, 1e-8 |t(p)|_F) so that a level with Lambda = 0 can match;
    t keeps Sz, so |t(p)|_F is the norm of its sector blocks taken together.
    Each sector's solutions are sorted by matched level, unmatched last.
    Coverage counts sector levels matched by at least one solution; it is
    fixed by the chain alone: no random start takes part.
    """
    mu, s = complex(mu), float(s)
    n = round(2 * s + 1)
    chain = uniform_chain("xxz", N, mu, n, "principal")
    top = (n - 1) * N
    if M_range is None:
        M_range = range(top + 1)
    Ms = [M for M in M_range if 0 <= M <= top]
    if not Ms:
        raise ValueError(f"M_range holds no sector M in [0, {top}]")
    census = _census(chain, s, mu, Ms)
    sectors = {M: sz_sector_indices(N, n, M) for M in range(top + 1)}
    evs = {M: [] for M in census}
    floors = []  # a level with Lambda = 0 is matched on the scale of t itself
    for p in _PROBES:
        blocks = _sector_blocks(chain, complex(p), sectors)
        floors.append(1e-8 * np.sqrt(sum(np.linalg.norm(b) ** 2 for b in blocks.values())))
        for M in census:
            evs[M].append(np.linalg.eigvals(blocks[M]))

    report = {
        "N": N,
        "s": s,
        "mu": [mu.real, mu.imag],
        "probes": [[complex(p).real, complex(p).imag] for p in _PROBES],
        "rtol": rtol,
        "sectors": [],
    }
    covered = mismatched = total_solutions = 0
    for M, found in census.items():
        hit = np.zeros(sectors[M].size, dtype=bool)
        vals = [[sol.eigenvalue_fn(complex(p)) for p in _PROBES] for sol in found]
        scale = [[max(abs(val), floor, 1e-300) for val, floor in zip(row, floors)] for row in vals]
        # the (solution, probe, level) distances in one broadcast
        dists = (np.abs(np.array(evs[M]) - np.reshape(vals, (-1, len(_PROBES), 1)))
                 / np.reshape(scale, (-1, len(_PROBES), 1)))
        # matched to the nearest level at the first probe when every probe
        # has a level within rtol (a NaN distance is not >= rtol)
        missed, nearest = (dists.min(axis=2) >= rtol).any(axis=1), dists[:, 0].argmin(axis=1)
        hit[nearest[~missed]] = True
        mismatched += int(missed.sum())
        sols = [_copy(sol, matched_ed_index=None if miss else int(k))
                for sol, miss, k in zip(found, missed, nearest)]
        entries = [solution_record(sol) for sol in sorted(sols, key=_report_order)]
        total_solutions += len(entries)
        report["sectors"].append({
            "M": M,
            "sz": float(N * s - M),
            "dimension": int(sectors[M].size),
            "solutions": entries,
            "levels_matched": int(hit.sum()),
            "unmatched_level_indices": [int(j) for j in np.where(~hit)[0]],
        })
        covered += int(hit.sum())
    report["coverage"] = [covered, n**N]
    report["mismatched_solutions"] = mismatched
    report["total_solutions"] = total_solutions
    return report
