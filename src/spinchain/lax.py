"""Lax operators, monodromy and transfer matrices, momentum and charges.

A Lax operator lives on auxiliary (x) quantum space; the monodromy is the
auxiliary-space-ordered product L_N ... L_1 (site 1 rightmost) whose
auxiliary trace is the transfer matrix.  Everything downstream of the
transfer matrix (translation operator, local Hamiltonian, Yangian charges)
is extracted here for periodic chains; open chains live in the boundary
module.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraRep, cyclic_rep, q_oscillator_rep, sl2_spin_rep, uq_sl2_spin_rep
from .linalg import (
    Operator,
    as_operator,
    embed,
    mat,
    rel_norm,
    richardson_derivative,
)
from .rmatrix import SpectralMatrixFamily, braided, r_pm, xxx_family, xxz_family


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
        return tuple(as_operator(next(iter(r.generators.values()))).side for r in self.site_reps)


@dataclass(frozen=True)
class LaxOperator:
    """Family lambda -> Operator on auxiliary (x) quantum space."""

    name: str
    auxiliary_dim: int
    quantum_rep: AlgebraRep
    gradation: str
    eval: object

    def __call__(self, lam: complex) -> Operator:
        return self.eval(lam)


class TransferFamily:
    """Commuting family lambda -> Operator."""

    def __init__(self, chain: ChainSpec, eval_fn, name: str = "transfer"):
        self.chain = chain
        self.eval = eval_fn
        self.name = name

    def __call__(self, lam: complex) -> Operator:
        return self.eval(complex(lam))


def uniform_chain(
    model: str,
    N: int,
    mu: complex | None = None,
    n: int = 2,
    gradation: str = "principal",
    boundary: object = "periodic",
) -> ChainSpec:
    """Homogeneous chain of N spin-(n-1)/2 sites."""
    if model == "xxx":
        rep = sl2_spin_rep(n)
    elif model == "xxz":
        if mu is None:
            raise ValueError("xxz chain needs mu")
        rep = uq_sl2_spin_rep(n, cmath.exp(1j * complex(mu)))
    else:
        raise ValueError(f"unknown model {model!r}")
    return ChainSpec(model, N, (rep,) * N, mu, gradation, boundary)


def chain_r_family(chain: ChainSpec) -> SpectralMatrixFamily:
    """The auxiliary-space R family matching the chain's Lax operators."""
    if chain.model == "xxx":
        return xxx_family()
    return xxz_family(chain.mu, chain.gradation)


def p_blocks(rep: AlgebraRep) -> list:
    # auxiliary 2x2 block form of the classical-limit generator matrix
    jz, jp, jm = rep.gen("Jz"), rep.gen("Jp"), rep.gen("Jm")
    half = 0.5 * np.eye(jz.shape[0], dtype=complex)
    return [[jz + half, jm], [jp, -jz + half]]


def p_matrix(rep: AlgebraRep) -> Operator:
    """The matrix [[Jz + 1/2, Jm], [Jp, -Jz + 1/2]] on aux (x) quantum.

    For spin-1/2 this is exactly the permutation operator.
    """
    blocks = p_blocks(rep)
    n = blocks[0][0].shape[0]
    return Operator((2, n), np.block(blocks))


def lax_xxx(rep: AlgebraRep) -> LaxOperator:
    """Rational Lax operator lambda I + i p over any sl2 representation."""
    pm = mat(p_matrix(rep))
    eye = np.eye(pm.shape[0], dtype=complex)
    n = pm.shape[0] // 2
    return LaxOperator(
        "lax_xxx",
        2,
        rep,
        "rational",
        lambda lam: Operator((2, n), lam * eye + 1j * pm),
    )


def lax_xxz(rep: AlgebraRep, gradation: str = "principal", mu: complex | None = None) -> LaxOperator:
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
    n = jz.shape[0]
    weights = np.diag(jz)
    c = cmath.sinh(1j * mu)

    def ev(lam: complex) -> Operator:
        dplus = np.diag(np.sinh(lam + 1j * mu / 2 + 1j * mu * weights))
        dminus = np.diag(np.sinh(lam + 1j * mu / 2 - 1j * mu * weights))
        up, down = c * jm, c * jp
        if gradation == "homogeneous":
            up = cmath.exp(lam) * up
            down = cmath.exp(-lam) * down
        return Operator((2, n), np.block([[dplus, up], [down, dminus]]))

    return LaxOperator(f"lax_xxz_{gradation}", 2, rep, gradation, ev)


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
    return Operator((2, n), lp), Operator((2, n), lm)


def rll_residual(r_family, lax, lam1: complex, lam2: complex, aux_dim: int | None = None) -> float:
    """Residual of R12(l1-l2) L1(l1) L2(l2) = L2(l2) L1(l1) R12(l1-l2).

    lax may be a LaxOperator or any callable lambda -> matrix on
    aux (x) quantum; the same check therefore serves the monodromy (FRT)
    relation by passing the monodromy evaluator.
    """
    ev = lax.eval if isinstance(lax, LaxOperator) else lax
    na = aux_dim or getattr(lax, "auxiliary_dim", 2)
    r = r_family if callable(r_family) else r_family.eval
    l1m, l2m = mat(ev(lam1)), mat(ev(lam2))
    dims = (na, na, l1m.shape[0] // na)  # aux1 (x) aux2 (x) quantum
    r12 = embed(r(lam1 - lam2), (1, 2), dims)
    a = embed(l1m, (1, 3), dims)
    b = embed(l2m, (2, 3), dims)
    return rel_norm(r12 @ a @ b, b @ a @ r12)


def triangular_residuals(rep: AlgebraRep, probe: complex = 0.37) -> dict:
    """Exchange relations of the triangular Lax pair with (R+, R-).

    Also checks the spectral rebuild e^l L+ - e^{-l} L- = 2 L^h(l) at the
    probe point.
    """
    q = complex(rep.params["q"])
    rp, rm = (mat(x) for x in r_pm(q))
    lp, lm = (mat(x) for x in lax_xxz_pm(rep))
    dims = (2, 2, lp.shape[0] // 2)
    rp12, rm12 = embed(rp, (1, 2), dims), embed(rm, (1, 2), dims)
    lp1, lp2 = embed(lp, (1, 3), dims), embed(lp, (2, 3), dims)
    lm1, lm2 = embed(lm, (1, 3), dims), embed(lm, (2, 3), dims)
    lh = mat(lax_xxz(rep, "homogeneous")(probe))
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


def lax_generic_xxz(p: int, s: complex, k: int = 1) -> LaxOperator:
    """Spin-s Lax operator over the cyclic representation at q = e^{2 pi i k/p}.

    L = [[e^l X - e^{-l} X^-1, (q - 1/q) B], [(q - 1/q) C,
    e^l X^-1 - e^{-l} X]] with B, C built from the Weyl pair; satisfies the
    RLL relation with the principal six-vertex R at mu = 2 pi k / p.
    """
    cyc, _, x, xinv, db, dc = _cyclic_generic_blocks(p, s, k)

    def ev(lam: complex) -> Operator:
        ep, em = cmath.exp(lam), cmath.exp(-lam)
        return Operator((2, p), np.block([[ep * x - em * xinv, db], [dc, ep * xinv - em * x]]))

    return LaxOperator("lax_generic_xxz", 2, cyc, "principal", ev)


def lax_sine_gordon(p: int, s: complex, k: int = 1) -> LaxOperator:
    """Lattice sine-Gordon Lax operator: the generic spin-s L twisted by
    i m sigma^x in the auxiliary space, m = i q^{s - 1/2}."""
    generic = lax_generic_xxz(p, s, k)
    q = complex(generic.quantum_rep.params["q"])
    m = 1j * q ** (s - 0.5)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    twist = 1j * m * embed(sx, 1, (2, p))

    def ev(lam: complex) -> Operator:
        return Operator((2, p), twist @ mat(generic(lam)))

    return LaxOperator("lax_sine_gordon", 2, generic.quantum_rep, "principal", ev)


def lax_qoscillator(p: int, k: int = 1) -> LaxOperator:
    """q-oscillator Lax operator [[e^l V - e^{-l} V^-1, adag], [a, -e^{-l} V]]."""
    osc = q_oscillator_rep(p, k)
    v, a, adag = osc.gen("V"), osc.gen("a"), osc.gen("adag")
    vinv = np.diag(1 / np.diag(v))
    zero = np.zeros_like(v)

    def ev(lam: complex) -> Operator:
        ep, em = cmath.exp(lam), cmath.exp(-lam)
        return Operator((2, p), np.block([[ep * v - em * vinv, adag], [a, -em * v]]))

    return LaxOperator("lax_qoscillator", 2, osc, "principal", ev)


def lax_liouville(p: int, alpha: complex, k: int = 1) -> LaxOperator:
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

    def ev(lam: complex) -> Operator:
        ep, em = cmath.exp(lam), cmath.exp(-lam)
        return Operator((2, p), np.block([[xy, alpha * em * x], [alpha * (ep * x - em * xinv), h @ xyinv]]))

    return LaxOperator("lax_liouville", 2, cyc, "principal", ev)


def _site_lax(chain: ChainSpec, rep: AlgebraRep) -> LaxOperator:
    if chain.model == "xxx":
        return lax_xxx(rep)
    return lax_xxz(rep, chain.gradation, chain.mu)


def monodromy_blocks(chain: ChainSpec, lam: complex) -> list:
    """Auxiliary 2x2 blocks of T(lambda) = L_N ... L_1, site 1 rightmost.

    Block [a][b] is a matrix on the full quantum space; entry labels follow
    the chain order site1 (x) ... (x) siteN.
    """
    na = 2
    T = np.eye(na, dtype=complex).reshape(na, na, 1, 1)  # T[a, b] on the sites so far
    for rep in chain.site_reps:
        lmat = mat(_site_lax(chain, rep)(lam))
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


def monodromy(chain: ChainSpec, lam: complex) -> Operator:
    """Monodromy matrix on aux (x) quantum for a periodic-convention chain."""
    blocks = monodromy_blocks(chain, lam)
    return Operator((2,) + chain.local_dims, np.block(blocks))


def transfer(chain: ChainSpec) -> TransferFamily:
    """Auxiliary trace of the monodromy; one-parameter commuting family."""
    if chain.boundary != "periodic":
        raise ValueError("open chains are handled by the boundary module")

    def ev(lam: complex) -> Operator:
        blocks = monodromy_blocks(chain, lam)
        return Operator(chain.local_dims, blocks[0][0] + blocks[1][1])

    return TransferFamily(chain, ev)


def cyclic_shift_matrix(dims) -> Operator:
    """Translation by one site: |a1 ... aN> -> |aN a1 ... a{N-1}>.

    Built by index rotation, independently of any transfer matrix; serves
    as the oracle the normalized t(0) is compared against.
    """
    dims = tuple(int(d) for d in dims)
    if len(set(dims)) != 1:
        raise ValueError("translation needs equal local dimensions")
    D = int(np.prod(dims, dtype=np.int64))
    # entry [a1 ... aN] of the rolled index tensor is the index of |aN a1 ... a{N-1}>
    rotated = np.moveaxis(np.arange(D).reshape(dims), 0, -1).ravel()
    out = np.zeros((D, D), dtype=complex)
    out[rotated, np.arange(D)] = 1.0
    return Operator(dims, out)


def momentum_operator(chain: ChainSpec) -> Operator:
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
    t0 = mat(transfer(chain).eval(0.0))
    return Operator(chain.local_dims, t0 / c**chain.N)


def hamiltonian_from_transfer(chain: ChainSpec) -> Operator:
    """Nearest-neighbour Hamiltonian sum_i Rc'_{i,i+1}(0) with periodic wrap.

    Rc = P R is differentiated at the origin by Richardson extrapolation;
    equals c times the logarithmic derivative of the transfer matrix at 0,
    with c the regularity constant.
    """
    if any(d != 2 for d in chain.local_dims):
        raise ValueError("Hamiltonian extraction implemented for spin-1/2 sites")
    rc = braided(chain_r_family(chain))
    rcdot = richardson_derivative(lambda x: mat(rc(x)), 0.0, 1e-5)
    return Operator(chain.local_dims, _bond_sum(rcdot, chain.N, periodic=True))


def transfer_log_derivative(chain: ChainSpec, step: float = 1e-5) -> Operator:
    """t(0)^-1 t'(0) with the derivative by Richardson extrapolation."""
    fam = transfer(chain)
    t0 = mat(fam(0.0))
    tdot = richardson_derivative(lambda x: mat(fam.eval(x)), 0.0, step)
    return Operator(chain.local_dims, np.linalg.solve(t0, tdot))


def yangian_charges(chain: ChainSpec) -> tuple:
    """Level-0 and level-1 Yangian charges of the rational chain.

    Returned as 2x2 nested lists of Operators indexed so that
    [Q0_ab, Q0_cd] = i d_cb Q0_ad - i d_ad Q0_cb holds; entry (a, b) is the
    (b, a) block of the auxiliary-space charge matrix.
    """
    if chain.model != "xxx":
        raise ValueError("Yangian charges are defined for the rational chain")
    dims = chain.local_dims
    D = int(np.prod(dims, dtype=np.int64))
    site_blocks = []
    for i, rep in enumerate(chain.site_reps, start=1):
        blk = p_blocks(rep)
        site_blocks.append(
            [[embed(blk[a][b], i, dims) for b in range(2)] for a in range(2)]
        )

    def auxmul(x, y):
        return [
            [sum(x[a][c] @ y[c][b] for c in range(2)) for b in range(2)]
            for a in range(2)
        ]

    zero = [[np.zeros((D, D), dtype=complex) for _ in range(2)] for _ in range(2)]

    def auxadd(x, y, scale=1.0):
        return [[x[a][b] + scale * y[a][b] for b in range(2)] for a in range(2)]

    q0 = zero
    for blk in site_blocks:
        q0 = auxadd(q0, blk, 1j)
    q1 = zero
    for i, blk in enumerate(site_blocks):
        q1 = auxadd(q1, auxmul(blk, blk), 0.5)
        for j in range(i + 1, len(site_blocks)):
            q1 = auxadd(q1, auxmul(blk, site_blocks[j]), 0.5)
            q1 = auxadd(q1, auxmul(site_blocks[j], blk), -0.5)
    dims_full = dims
    q0_ops = [[Operator(dims_full, q0[b][a]) for b in range(2)] for a in range(2)]
    q1_ops = [[Operator(dims_full, q1[b][a]) for b in range(2)] for a in range(2)]
    return q0_ops, q1_ops


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _xxz_bond(delta: complex) -> np.ndarray:
    """Two-site operator sx sx + sy sy + delta sz sz."""
    xx, yy, zz = (np.kron(_PAULI[axis], _PAULI[axis]) for axis in "xyz")
    return xx + yy + delta * zz


def _bond_sum(bond: np.ndarray, N: int, periodic: bool) -> np.ndarray:
    """Sum of a two-site operator over the bonds (i, i+1) of N equal sites,
    plus the wrap bond (N, 1) when periodic."""
    dims = (round(bond.shape[0] ** 0.5),) * N
    D = int(np.prod(dims, dtype=np.int64))
    bonds = [(i, i + 1) for i in range(1, N)] + ([(N, 1)] if periodic else [])
    total = np.zeros((D, D), dtype=complex)
    for sites in bonds:
        total += embed(bond, sites, dims)
    return total


def xxz_hamiltonian(N: int, delta: complex, boundary: str = "periodic") -> Operator:
    """H = -1/2 sum_i (sx sx + sy sy + delta sz sz) on N spin-1/2 sites.

    The periodic sum runs over all N bonds; "open" drops the wrap term and
    doubles the remaining coupling so the N=2 chain matches the periodic one.
    """
    if N < 2:
        raise ValueError("need at least two sites")
    periodic = boundary == "periodic"
    coupling = -0.5 if periodic else -1.0
    bond = coupling * _xxz_bond(delta)
    return Operator((2,) * N, _bond_sum(bond, N, periodic))


def sz_sector_indices(N: int, n: int, m: int) -> np.ndarray:
    """Basis indices of the Sz = N(n-1)/2 - m sector of an n^N chain."""
    weights = (n - 1) / 2 - np.arange(n)
    # one open axis per site, broadcast to the (n,) * N table of total Sz
    sz_total = sum(np.ix_(*[weights] * N)).ravel()
    return np.flatnonzero(np.abs(sz_total - (N * (n - 1) / 2 - m)) < 1e-9)


def spectrum_table(N: int, delta: complex, boundary: str = "periodic") -> list:
    """Sorted eigenvalues of xxz_hamiltonian with S^z and momentum labels.

    Returns one dict per state: energy, sz, and for periodic chains the
    integer k with translation eigenvalue e^{2 pi i k / N}, resolved by
    diagonalising the shift inside each degenerate (energy, sz) block.
    """
    if 2**N > 4096:
        raise ValueError("Hilbert space dimension above 4096")
    h = mat(xxz_hamiltonian(N, delta, boundary))
    shift = mat(cyclic_shift_matrix((2,) * N)) if boundary == "periodic" else None
    levels = []
    for m in range(N + 1):
        sector = sz_sector_indices(N, 2, m)
        evals, evecs = np.linalg.eigh(h[np.ix_(sector, sector)])
        entry = {"sz": N / 2 - m}
        if shift is None:
            levels.extend([{"energy": float(e), **entry} for e in evals])
            continue
        shift_sector = shift[np.ix_(sector, sector)]
        start = 0
        while start < len(evals):
            stop = start + 1
            while stop < len(evals) and evals[stop] - evals[start] < 1e-10:
                stop += 1
            block = evecs[:, start:stop]
            # translation restricted to the degenerate block is unitary
            phases = np.linalg.eigvals(block.conj().T @ shift_sector @ block)
            ks = sorted((round(float(np.angle(p)) * N / (2 * np.pi)) % N) for p in phases)
            levels.extend(
                {"energy": float(evals[start]), "momentum": int(k), **entry} for k in ks
            )
            start = stop
    levels.sort(key=lambda rec: (rec["energy"], rec["sz"], rec.get("momentum", 0)))
    return levels
