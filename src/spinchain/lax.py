"""Lax operators, monodromy and transfer matrices, momentum and charges.

A Lax operator is a plain function lambda -> complex ndarray on the
two-dimensional auxiliary space (x) the quantum space; the monodromy is the
auxiliary-space-ordered product L_N ... L_1 (site 1 rightmost) whose
auxiliary trace is the transfer matrix, again a function of lambda;
`apply_monodromy_block` and `apply_transfer` apply them to a vector site
by site, without forming either.  Everything downstream of the transfer
matrix (translation operator, local Hamiltonian, Yangian charges) is
extracted here for periodic chains; open chains live in the boundary
module.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraRep, cyclic_rep, q_oscillator_rep, sl2_spin_rep, uq_sl2_spin_rep
from .linalg import embed, mat, rel_norm, richardson_derivative
from .rmatrix import braided, r_pm, xxx_family, xxz_family


@dataclass(frozen=True)
class ChainSpec:
    """Declarative description of a homogeneous-R spin chain.

    site_reps lists one AlgebraRep per site (mixed spins allowed); mu is
    the anisotropy for xxz (None for xxx); boundary is "periodic" or an
    object understood by the boundary module.
    """

    model: str
    N: int
    site_reps: tuple
    mu: complex | None = None
    gradation: str = "principal"
    boundary: object = "periodic"

    def __post_init__(self):
        if self.model not in ("xxx", "xxz"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.N < 1 or len(self.site_reps) != self.N:
            raise ValueError("need one site representation per site, N >= 1")
        object.__setattr__(self, "site_reps", tuple(self.site_reps))

    @property
    def local_dims(self) -> tuple:
        return tuple(next(iter(r.generators.values())).shape[0] for r in self.site_reps)


def uniform_chain(
    model: str,
    N: int,
    mu: complex | None = None,
    n: int = 2,
    gradation: str = "principal",
) -> ChainSpec:
    """Homogeneous periodic chain of N spin-(n-1)/2 sites; open chains
    come from `boundary.open_chain`."""
    if model == "xxx":
        rep = sl2_spin_rep(n)
    elif model == "xxz":
        if mu is None:
            raise ValueError("xxz chain needs mu")
        rep = uq_sl2_spin_rep(n, cmath.exp(1j * complex(mu)))
    else:
        raise ValueError(f"unknown model {model!r}")
    return ChainSpec(model, N, (rep,) * N, mu, gradation)


def chain_r_family(chain: ChainSpec):
    """The auxiliary-space R family matching the chain's Lax operators."""
    if chain.model == "xxx":
        return xxx_family()
    return xxz_family(chain.mu, chain.gradation)


def p_blocks(rep: AlgebraRep) -> list:
    # auxiliary 2x2 block form of the classical-limit generator matrix
    jz, jp, jm = rep.gen("Jz"), rep.gen("Jp"), rep.gen("Jm")
    half = 0.5 * np.eye(jz.shape[0], dtype=complex)
    return [[jz + half, jm], [jp, -jz + half]]


def p_matrix(rep: AlgebraRep) -> np.ndarray:
    """The matrix [[Jz + 1/2, Jm], [Jp, -Jz + 1/2]] on aux (x) quantum.

    For spin-1/2 this is exactly the permutation operator.
    """
    return np.block(p_blocks(rep))


def lax_xxx(rep: AlgebraRep):
    """Rational Lax operator lambda I + i p over any sl2 representation."""
    pm = p_matrix(rep)
    eye = np.eye(pm.shape[0], dtype=complex)
    return lambda lam: lam * eye + 1j * pm


def lax_xxz(rep: AlgebraRep, gradation: str = "principal", mu: complex | None = None):
    """Trigonometric spin-s Lax operator at anisotropy mu, q = e^{i mu}.

    Principal form: [[sinh(l + i mu/2 + i mu Jz), sinh(i mu) Jm],
    [sinh(i mu) Jp, sinh(l + i mu/2 - i mu Jz)]]; the homogeneous form
    dresses the off-diagonal blocks with e^{+-l}.  Spin-1/2 reproduces the
    six-vertex R-matrix entrywise.
    """
    q = complex(rep.params["q"])
    if mu is None:
        mu = -1j * cmath.log(q)
    mu = complex(mu)
    if abs(cmath.exp(1j * mu) - q) > 1e-10:
        raise ValueError("mu inconsistent with the representation's q")
    if gradation not in ("principal", "homogeneous"):
        raise ValueError(f"unknown gradation {gradation!r}")
    jz, jp, jm = rep.gen("Jz"), rep.gen("Jp"), rep.gen("Jm")
    weights = np.diag(jz)
    c = cmath.sinh(1j * mu)
    n = weights.size
    diag = np.arange(n)

    def ev(lam: complex) -> np.ndarray:
        out = np.zeros((2 * n, 2 * n), dtype=complex)
        out[diag, diag] = np.sinh(lam + 1j * mu / 2 + 1j * mu * weights)
        out[n + diag, n + diag] = np.sinh(lam + 1j * mu / 2 - 1j * mu * weights)
        up, down = c * jm, c * jp
        if gradation == "homogeneous":
            up = cmath.exp(lam) * up
            down = cmath.exp(-lam) * down
        out[:n, n:] = up
        out[n:, :n] = down
        return out

    return ev


def lax_xxz_pm(rep: AlgebraRep) -> tuple:
    """Constant triangular pair (L+, L-) with e^l L+ - e^{-l} L- = 2 L^h(l).

    The free constant multiplying the diagonal is fixed to c = q^{1/2}.
    """
    q = complex(rep.params["q"])
    c = q**0.5
    a, d = rep.gen("qJz"), rep.gen("qJzInv")
    jp, jm = rep.gen("Jp"), rep.gen("Jm")
    n = a.shape[0]
    zero = np.zeros((n, n), dtype=complex)
    delta = q - 1 / q
    lp = np.block([[c * a, delta * jm], [zero, c * d]])
    lm = np.block([[d / c, zero], [-delta * jp, a / c]])
    return lp, lm


def rll_residual(r_family, lax, lam1: complex, lam2: complex) -> float:
    """Residual of R12(l1-l2) L1(l1) L2(l2) = L2(l2) L1(l1) R12(l1-l2).

    lax is any callable lambda -> matrix on aux (x) quantum, with the
    auxiliary dimension sqrt(dim R); the same check therefore serves the
    monodromy (FRT) relation by passing the monodromy evaluator.
    """
    r = r_family(lam1 - lam2)
    na = round(np.shape(r)[0] ** 0.5)
    l1m, l2m = mat(lax(lam1)), mat(lax(lam2))
    dims = (na, na, l1m.shape[0] // na)  # aux1 (x) aux2 (x) quantum
    r12 = embed(r, (1, 2), dims)
    a = embed(l1m, (1, 3), dims)
    b = embed(l2m, (2, 3), dims)
    return rel_norm(r12 @ a @ b, b @ a @ r12)


def triangular_residuals(rep: AlgebraRep) -> dict:
    """Exchange relations of the triangular Lax pair with (R+, R-).

    Also checks the spectral rebuild e^l L+ - e^{-l} L- = 2 L^h(l) at
    l = 0.37.
    """
    probe = 0.37
    q = complex(rep.params["q"])
    rp, rm = r_pm(q)
    lp, lm = lax_xxz_pm(rep)
    dims = (2, 2, lp.shape[0] // 2)
    rp12, rm12 = embed(rp, (1, 2), dims), embed(rm, (1, 2), dims)
    lp1, lp2 = embed(lp, (1, 3), dims), embed(lp, (2, 3), dims)
    lm1, lm2 = embed(lm, (1, 3), dims), embed(lm, (2, 3), dims)
    lh = lax_xxz(rep, "homogeneous")(probe)
    rebuild = cmath.exp(probe) * lp - cmath.exp(-probe) * lm
    return {
        "R+ L+1 L+2 = L+2 L+1 R+": rel_norm(rp12 @ lp1 @ lp2, lp2 @ lp1 @ rp12),
        "R- L-1 L-2 = L-2 L-1 R-": rel_norm(rm12 @ lm1 @ lm2, lm2 @ lm1 @ rm12),
        "R+ L+1 L-2 = L-2 L+1 R+": rel_norm(rp12 @ lp1 @ lm2, lm2 @ lp1 @ rp12),
        "e^l L+ - e^-l L- = 2 L^h(l)": rel_norm(rebuild, 2 * lh),
    }


def _cyclic_generic_blocks(p: int, s: complex, k: int) -> tuple:
    cyc = cyclic_rep(p, k)
    q = complex(cyc.params["q"])
    x, y = cyc.gen("X"), cyc.gen("Y")
    xinv = np.diag(1 / np.diag(x))
    yinv = np.linalg.inv(y)
    delta = q - 1 / q
    b = (q**-s * xinv - q**s * x) @ yinv / delta
    c = (q**-s * x - q**s * xinv) @ y / delta
    return cyc, q, x, xinv, delta * b, delta * c


def lax_generic_xxz(p: int, s: complex, k: int = 1):
    """Spin-s Lax operator over the cyclic representation at q = e^{2 pi i k/p}.

    L = [[e^l X - e^{-l} X^-1, (q - 1/q) B], [(q - 1/q) C,
    e^l X^-1 - e^{-l} X]] with B, C built from the Weyl pair; satisfies the
    RLL relation with the principal six-vertex R at mu = 2 pi k / p.
    """
    cyc, _, x, xinv, db, dc = _cyclic_generic_blocks(p, s, k)

    def ev(lam: complex) -> np.ndarray:
        ep, em = cmath.exp(lam), cmath.exp(-lam)
        return np.block([[ep * x - em * xinv, db], [dc, ep * xinv - em * x]])

    return ev


def lax_sine_gordon(p: int, s: complex, k: int = 1):
    """Lattice sine-Gordon Lax operator: the generic spin-s L twisted by
    i m sigma^x in the auxiliary space, m = i q^{s - 1/2}, q = e^{2 pi i k/p}."""
    generic = lax_generic_xxz(p, s, k)
    q = cmath.exp(2j * cmath.pi * k / p)
    m = 1j * q ** (s - 0.5)
    twist = 1j * m * embed(_PAULI["x"], 1, (2, p))
    return lambda lam: twist @ generic(lam)


def lax_qoscillator(p: int, k: int = 1):
    """q-oscillator Lax operator [[e^l V - e^{-l} V^-1, adag], [a, -e^{-l} V]]."""
    osc = q_oscillator_rep(p, k)
    v, a, adag = osc.gen("V"), osc.gen("a"), osc.gen("adag")
    vinv = np.diag(1 / np.diag(v))
    zero = np.zeros_like(v)

    def ev(lam: complex) -> np.ndarray:
        ep, em = cmath.exp(lam), cmath.exp(-lam)
        return np.block([[ep * v - em * vinv, adag], [a, -em * v]])

    return ev


def lax_liouville(p: int, alpha: complex, k: int = 1):
    """Lattice Liouville Lax operator over the cyclic representation.

    L = [[XY, alpha e^{-l} X], [alpha (e^l X - e^{-l} X^-1),
    (1 + alpha^2 q X^2) (XY)^-1]].
    """
    cyc = cyclic_rep(p, k)
    q = complex(cyc.params["q"])
    x, y = cyc.gen("X"), cyc.gen("Y")
    xinv = np.diag(1 / np.diag(x))
    xy = x @ y
    xyinv = np.linalg.inv(xy)
    h = np.eye(p, dtype=complex) + alpha**2 * q * (x @ x)

    def ev(lam: complex) -> np.ndarray:
        ep, em = cmath.exp(lam), cmath.exp(-lam)
        return np.block([[xy, alpha * em * x], [alpha * (ep * x - em * xinv), h @ xyinv]])

    return ev


def _site_lax(chain: ChainSpec, rep: AlgebraRep):
    if chain.model == "xxx":
        return lax_xxx(rep)
    return lax_xxz(rep, chain.gradation, chain.mu)


def site_lax_matrices(chain: ChainSpec, lam: complex) -> list:
    """The Lax matrix of every site at lam, in chain order; each distinct
    site representation is evaluated once and its matrix shared."""
    evaluated = {}
    for rep in chain.site_reps:
        if id(rep) not in evaluated:
            evaluated[id(rep)] = _site_lax(chain, rep)(lam)
    return [evaluated[id(rep)] for rep in chain.site_reps]


def monodromy_blocks(chain: ChainSpec, lam: complex) -> list:
    """Auxiliary 2x2 blocks of T(lambda) = L_N ... L_1, site 1 rightmost.

    Block [a][b] is a matrix on the full quantum space; entry labels follow
    the chain order site1 (x) ... (x) siteN.  The dense oracle of
    `apply_monodromy_block`, and the builder of `transfer`.
    """
    na = 2
    T = np.eye(na, dtype=complex).reshape(na, na, 1, 1)  # T[a, b] on the sites so far
    for lmat in site_lax_matrices(chain, lam):
        nq = lmat.shape[0] // na
        lb = lmat.reshape(na, nq, na, nq)
        d = T.shape[-1]
        # T'[a, b] = sum_c T[c, b] (x) L[a, c] as a broadcast product with legs
        # [i, k, j, l]; one block at a time keeps the transient at one block
        grown = np.zeros((na, na, d, nq, d, nq), dtype=complex)
        for a, b, c in itertools.product(range(na), repeat=3):
            grown[a, b] += T[c, b][:, None, :, None] * lb[a, None, :, c, None, :]
        T = grown.reshape(na, na, d * nq, d * nq)
    return [list(row) for row in T]


def _monodromy_column(chain: ChainSpec, laxes: list, b: int, vec) -> np.ndarray:
    """Rows a = 0, 1 of T[a][b] @ vec, for the site Lax matrices laxes.

    The state |b> (x) vec is held with legs [aux, site 1, ..., site N];
    L_k contracts the aux leg and site leg k, site 1 first, so no D x D
    array is formed and the cost is O(N n^2 D).
    """
    state = np.zeros((2,) + chain.local_dims, dtype=complex)
    state[b] = np.reshape(vec, chain.local_dims)
    for k, lmat in enumerate(laxes, start=1):
        n = lmat.shape[0] // 2
        # legs of L: [aux out, site out, aux in, site in]
        state = np.tensordot(lmat.reshape(2, n, 2, n), state, axes=([2, 3], [0, k]))
        state = np.moveaxis(state, 1, k)
    return state.reshape(2, -1)


def apply_monodromy_block(chain: ChainSpec, lam: complex, a: int, b: int, vec) -> np.ndarray:
    """monodromy_blocks(chain, lam)[a][b] @ vec, matrix-free."""
    return _monodromy_column(chain, site_lax_matrices(chain, lam), b, vec)[a]


def apply_transfer(chain: ChainSpec, lam: complex, vec) -> np.ndarray:
    """transfer(chain)(lam) @ vec = T[0][0] vec + T[1][1] vec, matrix-free."""
    laxes = site_lax_matrices(chain, lam)
    return _monodromy_column(chain, laxes, 0, vec)[0] + _monodromy_column(chain, laxes, 1, vec)[1]


def monodromy(chain: ChainSpec, lam: complex) -> np.ndarray:
    """Monodromy matrix on aux (x) quantum for a periodic-convention chain."""
    return np.block(monodromy_blocks(chain, lam))


def transfer(chain: ChainSpec):
    """Auxiliary trace of the monodromy; one-parameter commuting family."""
    if chain.boundary != "periodic":
        raise ValueError("open chains are handled by the boundary module")

    def ev(lam: complex) -> np.ndarray:
        blocks = monodromy_blocks(chain, complex(lam))
        return blocks[0][0] + blocks[1][1]

    return ev


def cyclic_shift_matrix(dims) -> np.ndarray:
    """Translation by one site: |a1 ... aN> -> |aN a1 ... a{N-1}>.

    Built by index rotation, independently of any transfer matrix; serves
    as the oracle the normalized t(0) is compared against.
    """
    dims = tuple(int(d) for d in dims)
    if len(set(dims)) != 1:
        raise ValueError("translation needs equal local dimensions")
    rotated = _shift_targets(dims)
    out = np.zeros((rotated.size, rotated.size), dtype=complex)
    out[rotated, np.arange(rotated.size)] = 1.0
    return out


def _shift_targets(dims) -> np.ndarray:
    """Entry x is the index of the translate of basis state x."""
    D = int(np.prod(dims, dtype=np.int64))
    # entry [a1 ... aN] of the rolled index tensor is the index of |aN a1 ... a{N-1}>
    return np.moveaxis(np.arange(D).reshape(dims), 0, -1).ravel()


def momentum_operator(chain: ChainSpec) -> np.ndarray:
    """t(0) divided by the recorded R(0) = c P constant to the power N.

    Requires fundamental (spin-1/2) sites; the result is the cyclic shift
    with exact 0/1 entries up to roundoff.
    """
    if any(d != 2 for d in chain.local_dims):
        raise ValueError("momentum operator defined for spin-1/2 sites")
    from .rmatrix import regularity_constant

    c, resid = regularity_constant(chain_r_family(chain))
    if resid > 1e-10:
        raise ValueError("R family is not regular at the origin")
    return transfer(chain)(0.0) / c**chain.N


def hamiltonian_from_transfer(chain: ChainSpec) -> np.ndarray:
    """Nearest-neighbour Hamiltonian sum_i Rc'_{i,i+1}(0) with periodic wrap.

    Rc = P R is differentiated at the origin by Richardson extrapolation;
    equals c times the logarithmic derivative of the transfer matrix at 0,
    with c the regularity constant.
    """
    if any(d != 2 for d in chain.local_dims):
        raise ValueError("Hamiltonian extraction implemented for spin-1/2 sites")
    rc = braided(chain_r_family(chain))
    rcdot = richardson_derivative(rc, 0.0, 1e-5)
    return _bond_sum(rcdot, chain.N, periodic=True)


def transfer_log_derivative(chain: ChainSpec) -> np.ndarray:
    """t(0)^-1 t'(0) with the derivative by Richardson extrapolation."""
    fam = transfer(chain)
    tdot = richardson_derivative(fam, 0.0, 1e-5)
    return np.linalg.solve(fam(0.0), tdot)


def yangian_charges(chain: ChainSpec) -> tuple:
    """Level-0 and level-1 Yangian charges of the rational chain.

    With P_i the p matrix of site i on aux (x) quantum, Q0 = i sum_i P_i and
    Q1 = 1/2 sum_i P_i^2 + 1/2 sum_{i<j} [P_i, P_j].  Each is returned as a
    (2, 2, D, D) array whose entry (a, b) is the (b, a) auxiliary block, so
    that [Q0_ab, Q0_cd] = i d_cb Q0_ad - i d_ad Q0_cb holds.
    """
    if chain.model != "xxx":
        raise ValueError("Yangian charges are defined for the rational chain")
    dims = (2,) + tuple(chain.local_dims)  # chain site i is factor i + 1
    ps = [embed(p_matrix(rep), (1, i), dims) for i, rep in enumerate(chain.site_reps, start=2)]
    q0 = 1j * sum(ps)
    q1 = 0.5 * sum(p @ p for p in ps)
    for i, p in enumerate(ps):
        for other in ps[i + 1:]:
            q1 = q1 + 0.5 * (p @ other - other @ p)
    D = q0.shape[0] // 2
    return tuple(q.reshape(2, D, 2, D).transpose(2, 0, 1, 3) for q in (q0, q1))


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _xxz_bond(delta: complex) -> np.ndarray:
    """Two-site operator sx sx + sy sy + delta sz sz."""
    xx, yy, zz = (np.kron(_PAULI[axis], _PAULI[axis]) for axis in "xyz")
    return xx + yy + delta * zz


def _bond_moves(bond: np.ndarray, N: int, periodic: bool, basis: np.ndarray):
    """Yield (amp, target) for each bond (i, i+1) of N equal sites, and the
    wrap bond (N, 1) when periodic, acting on the basis indices in basis.

    Row `out` of both arrays holds, per basis index, bond[out, in] for its
    two local digits `in` and the index whose digits are replaced by out.
    """
    n = round(bond.shape[0] ** 0.5)
    outs = np.arange(n * n)[:, None]
    bonds = [(i, i + 1) for i in range(1, N)] + ([(N, 1)] if periodic else [])
    for i, j in bonds:
        wi, wj = n ** (N - i), n ** (N - j)
        a, b = basis // wi % n, basis // wj % n
        yield bond[outs, a * n + b], basis + (outs // n - a) * wi + (outs % n - b) * wj


def _bond_sum(bond: np.ndarray, N: int, periodic: bool, sector=None) -> np.ndarray:
    """Sum of a two-site operator over the bonds (i, i+1) of N equal sites,
    plus the wrap bond (N, 1) when periodic, on the sorted basis indices in
    sector (all n^N of them when None).

    Each bond term (`_bond_moves`) is added to the row of its target, found
    by searchsorted; rows outside the sector are dropped, so the block
    equals the full sum sliced with np.ix_(sector, sector), bit for bit.
    """
    n = round(bond.shape[0] ** 0.5)
    basis = np.arange(n**N) if sector is None else np.asarray(sector)
    L = basis.size
    total = np.zeros((L, L), dtype=complex)
    cols = np.broadcast_to(np.arange(L), (n * n, L))
    for amp, target in _bond_moves(bond, N, periodic, basis):
        rows = np.minimum(np.searchsorted(basis, target), L - 1)
        # within one bond every (row, column) pair occurs once
        hit = (basis[rows] == target) & (amp != 0)
        total[rows[hit], cols[hit]] += amp[hit]
    return total


def xxz_hamiltonian(N: int, delta: complex, boundary: str = "periodic", sector=None) -> np.ndarray:
    """H = -1/2 sum_i (sx sx + sy sy + delta sz sz) on N spin-1/2 sites.

    The periodic sum runs over all N bonds; "open" drops the wrap term and
    doubles the remaining coupling so the N=2 chain matches the periodic one.
    Given sorted basis indices in sector, only that diagonal block is built.
    """
    if N < 2:
        raise ValueError("need at least two sites")
    periodic = boundary == "periodic"
    coupling = -0.5 if periodic else -1.0
    bond = coupling * _xxz_bond(delta)
    return _bond_sum(bond, N, periodic, sector)


def sz_sector_indices(N: int, n: int, m: int) -> np.ndarray:
    """Basis indices of the Sz = N(n-1)/2 - m sector of an n^N chain."""
    weights = (n - 1) / 2 - np.arange(n)
    # one open axis per site, broadcast to the (n,) * N table of total Sz
    sz_total = sum(np.ix_(*[weights] * N)).ravel()
    return np.flatnonzero(np.abs(sz_total - (N * (n - 1) / 2 - m)) < 1e-9)


def _translation_orbits(N: int) -> tuple:
    """Orbits of the one-site shift T on the 2^N basis of N spin-1/2 sites.

    Returns, per basis index x, its representative (the smallest index in
    its orbit), the distance l with x = T^l rep, and the orbit period R.
    """
    targets = _shift_targets((2,) * N)
    orbit = np.empty((N, targets.size), dtype=np.int64)  # orbit[r, x] = T^r x
    orbit[0] = np.arange(targets.size)
    for r in range(1, N):
        orbit[r] = targets[orbit[r - 1]]
    first = orbit.argmin(axis=0)
    back = orbit[1:] == orbit[0]
    period = np.where(back.any(axis=0), back.argmax(axis=0) + 1, N)
    return orbit.min(axis=0), -first % N, period


def _momentum_blocks(N: int, delta: float):
    """Yield (m, k, reps, block): xxz_hamiltonian in the Sz = N/2 - m,
    momentum k sector of the periodic chain.

    Row and column j stand for |a(k)> = R_a^-1/2 sum_{r < R_a}
    e^{-2 pi i k r / N} T^r |a>, a = reps[j], which has T eigenvalue
    e^{2 pi i k / N} and exists when k R_a = 0 mod N.  A bond term
    amp |t> of H|a> adds amp e^{2 pi i k l / N} sqrt(R_a / R_b) to row b,
    where t = T^l b.  The block is real for k = 0 and k = N/2.
    """
    rep, dist, period = _translation_orbits(N)
    bond = -0.5 * _xxz_bond(delta).real
    phases = np.exp(2j * np.pi * (np.outer(np.arange(N), np.arange(N)) % N) / N)
    for m in range(N + 1):
        sector = sz_sector_indices(N, 2, m)
        reps = sector[rep[sector] == sector]
        L, R = reps.size, period[reps]
        cols = np.broadcast_to(np.arange(L), (4, L))
        terms = np.zeros((N, L, L))  # terms[l]: the bond terms with t = T^l b
        for amp, target in _bond_moves(bond, N, True, reps):
            hit = amp != 0  # XXZ keeps Sz, so every target lies in the sector
            # one bond sends a column to distinct t, and t = T^l b fixes (l, b)
            t = target[hit]
            terms[dist[t], np.searchsorted(reps, rep[t]), cols[hit]] += amp[hit]
        terms *= np.sqrt(R / R[:, None])
        for k in range(N):
            keep = k * R % N == 0
            if not keep.any():
                continue
            block = np.tensordot(phases[k], terms[:, keep][:, :, keep], axes=1)
            yield m, k, reps[keep], block.real if 2 * k % N == 0 else block


def spectrum_table(N: int, delta: complex, boundary: str = "periodic") -> list:
    """Sorted eigenvalues of xxz_hamiltonian with S^z and momentum labels.

    Returns one dict per state: energy, sz, and for periodic chains the
    integer k with translation eigenvalue e^{2 pi i k / N}.  A periodic
    chain is solved one (Sz, k) block at a time in the basis of translation
    orbits (`_momentum_blocks`), so every label is the block the level was
    solved in; an open chain is solved one Sz block at a time.  Only
    eigenvalues are computed, and no 2^N x 2^N array is formed.  delta must
    be real, since H is Hermitian only then; the open chain's blocks and
    the momentum blocks with k = 0 and k = N/2 are then real.
    """
    if 2**N > 4096:
        raise ValueError("Hilbert space dimension above 4096")
    if abs(complex(delta).imag) > 1e-14:
        raise ValueError("spectrum needs a real delta; a complex one makes H non-Hermitian")
    delta = complex(delta).real
    if boundary == "periodic":
        levels = [
            {"energy": float(e), "sz": N / 2 - m, "momentum": k}
            for m, k, _, block in _momentum_blocks(N, delta)
            for e in np.linalg.eigvalsh(block)
        ]
    else:
        levels = [
            {"energy": float(e), "sz": N / 2 - m}
            for m in range(N + 1)
            for e in np.linalg.eigvalsh(
                xxz_hamiltonian(N, delta, boundary, sz_sector_indices(N, 2, m)).real
            )
        ]
    levels.sort(key=lambda rec: (rec["energy"], rec["sz"], rec.get("momentum", 0)))
    return levels
