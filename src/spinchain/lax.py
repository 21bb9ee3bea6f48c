"""Lax operators, monodromy and transfer matrices, momentum and charges.

A Lax operator is a function lambda -> complex ndarray on the
two-dimensional auxiliary space (x) the quantum space; the families built
here follow the stack convention of `linalg` (a scalar lambda gives a
matrix, a 1-D array of lambdas the (P, s, s) stack).  The monodromy is the
auxiliary-space-ordered product L_N ... L_1 (site 1 rightmost) whose
auxiliary trace is the transfer matrix, again a function of lambda.  One
kernel (`_apply_monodromy`), one site per matrix product over cache-sized
column blocks (`_apply_blocks`), makes every Lax product: t applied to
columns (`apply_transfer`), the dense blocks and the dense t on the unit
columns, the boundary module's open transfer, and, on a stack of chains
with one spectral parameter each, the bethe module's Bethe vectors; one T
block applied to columns (`apply_monodromy_block`) is the tests' reference
for the kernel and for the Bethe vectors.  Everything downstream of the
transfer matrix (translation operator, local Hamiltonian, Yangian
charges) is extracted here for periodic chains; open chains live in the
boundary module.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import AlgebraRep, cyclic_rep, q_oscillator_rep, sl2_spin_rep, uq_sl2_spin_rep
from . import linalg, rmatrix
from .linalg import MAX_DIM, draw_shape, embed, per_draw, rel_norm, richardson_derivative, stacking
from .rmatrix import _rll_residual, braided, r_pm, regularity_constant, xxx_family, xxz_family


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

    @cached_property
    def _lax_families(self) -> dict:
        """{id(rep): Lax family} of each distinct site representation, in
        order of first appearance; built on first use and kept with the chain."""
        distinct = {id(rep): rep for rep in self.site_reps}
        return {key: _site_lax(self, rep) for key, rep in distinct.items()}


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
    """Rational Lax operator lambda I + i p over any sl2 representation:
    scalar -> matrix, 1-D array -> stack."""
    pm = p_matrix(rep)
    eye = np.eye(pm.shape[0], dtype=complex)
    return stacking(lambda lam: np.multiply.outer(lam, eye) + 1j * pm)


def lax_xxz(rep: AlgebraRep, gradation: str = "principal", mu: complex | None = None):
    """Trigonometric spin-s Lax operator at anisotropy mu, q = e^{i mu}.

    Principal form: [[sinh(l + i mu/2 + i mu Jz), sinh(i mu) Jm],
    [sinh(i mu) Jp, sinh(l + i mu/2 - i mu Jz)]]; the homogeneous form
    dresses the off-diagonal blocks with e^{+-l}.  Spin-1/2 reproduces the
    six-vertex R-matrix entrywise.  Scalar -> matrix, 1-D array -> stack.
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
    c = cmath.sinh(1j * mu)
    up, down = c * jm, c * jp
    n = up.shape[0]
    # +- i mu Jz along the diagonal of the aux (x) quantum matrix
    shifts = 1j * mu * np.diag(jz)
    shifts = np.concatenate([shifts, -shifts])

    @stacking
    def ev(lam) -> np.ndarray:
        lead = draw_shape(lam)
        out = np.zeros(lead + (2 * n, 2 * n), dtype=complex)
        diagonal = per_draw(lambda l: l + 1j * mu / 2, lam, 1) + shifts
        out.reshape(lead + (-1,))[..., :: 2 * n + 1] = np.sinh(diagonal)
        if gradation == "homogeneous":
            ep, em = _exp_pair(lam)
            out[..., :n, n:], out[..., n:, :n] = ep * up, em * down
        else:
            out[..., :n, n:], out[..., n:, :n] = up, down
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


def rll_residual(r_family, lax, lam1, lam2):
    """Residual of R12(l1-l2) L1(l1) L2(l2) = L2(l2) L1(l1) R12(l1-l2).

    lax is any callable lambda -> matrix on aux (x) quantum, with the
    auxiliary dimension sqrt(dim R); the same check therefore serves the
    monodromy (FRT) relation by passing the monodromy evaluator, and
    `rmatrix.ybe_residual` is this check with L = R.  A float for scalar
    lambdas, one residual per draw for equal-length sequences.
    """
    return _rll_residual(r_family, lax, lam1, lam2)


def triangular_residuals(rep: AlgebraRep) -> dict:
    """Exchange relations of the triangular Lax pair with (R+, R-): the RLL
    defect `rmatrix._rll_gap` of (R+; L+, L+), (R-; L-, L-) and (R+; L+, L-),
    and the spectral rebuild e^l L+ - e^{-l} L- = 2 L^h(l) at l = 0.37."""
    probe = 0.37
    q = complex(rep.params["q"])
    rp, rm = r_pm(q)
    lp, lm = lax_xxz_pm(rep)
    dims = rmatrix._rll_dims(rp, lp)
    lh = lax_xxz(rep, "homogeneous")(probe)
    rebuild = cmath.exp(probe) * lp - cmath.exp(-probe) * lm
    return {
        "R+ L+1 L+2 = L+2 L+1 R+": rmatrix._rll_gap(dims, rp, lp, lp),
        "R- L-1 L-2 = L-2 L-1 R-": rmatrix._rll_gap(dims, rm, lm, lm),
        "R+ L+1 L-2 = L-2 L+1 R+": rmatrix._rll_gap(dims, rp, lp, lm),
        "e^l L+ - e^-l L- = 2 L^h(l)": rel_norm(rebuild, 2 * lh),
    }


def _aux_blocks(a, b, c, d) -> np.ndarray:
    # [[a, b], [c, d]] on aux (x) quantum, written into one preallocated
    # matrix; blocks that are (P, n, n) stacks give the (P, 2n, 2n) stack
    n = np.shape(a)[-1]
    lead = np.broadcast_shapes(*(np.shape(m)[:-2] for m in (a, b, c, d)))
    out = np.empty(lead + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n], out[..., :n, n:], out[..., n:, :n], out[..., n:, n:] = a, b, c, d
    return out


def _exp_pair(lam) -> tuple:
    # e^l and e^-l by cmath, per draw of a 1-D lam
    return per_draw(cmath.exp, lam), per_draw(lambda l: cmath.exp(-l), lam)


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
    Scalar -> matrix, 1-D array -> stack.
    """
    cyc, _, x, xinv, db, dc = _cyclic_generic_blocks(p, s, k)

    @stacking
    def ev(lam) -> np.ndarray:
        ep, em = _exp_pair(lam)
        return _aux_blocks(ep * x - em * xinv, db, dc, ep * xinv - em * x)

    return ev


def lax_sine_gordon(p: int, s: complex, k: int = 1):
    """Lattice sine-Gordon Lax operator: the generic spin-s L twisted by
    i m sigma^x in the auxiliary space, m = i q^{s - 1/2}, q = e^{2 pi i k/p}.
    Scalar -> matrix, 1-D array -> stack."""
    generic = lax_generic_xxz(p, s, k)
    q = cmath.exp(2j * cmath.pi * k / p)
    m = 1j * q ** (s - 0.5)
    twist = 1j * m * embed(_PAULI["x"], 1, (2, p))
    return stacking(lambda lam: twist @ generic(lam))


def lax_qoscillator(p: int, k: int = 1):
    """q-oscillator Lax operator [[e^l V - e^{-l} V^-1, adag], [a, -e^{-l} V]]:
    scalar -> matrix, 1-D array -> stack."""
    osc = q_oscillator_rep(p, k)
    v, a, adag = osc.gen("V"), osc.gen("a"), osc.gen("adag")
    vinv = np.diag(1 / np.diag(v))

    @stacking
    def ev(lam) -> np.ndarray:
        ep, em = _exp_pair(lam)
        return _aux_blocks(ep * v - em * vinv, adag, a, -em * v)

    return ev


def lax_liouville(p: int, alpha: complex, k: int = 1):
    """Lattice Liouville Lax operator over the cyclic representation.

    L = [[XY, alpha e^{-l} X], [alpha (e^l X - e^{-l} X^-1),
    (1 + alpha^2 q X^2) (XY)^-1]].  Scalar -> matrix, 1-D array -> stack.
    """
    cyc = cyclic_rep(p, k)
    q = complex(cyc.params["q"])
    x, y = cyc.gen("X"), cyc.gen("Y")
    xinv = np.diag(1 / np.diag(x))
    xy = x @ y
    xyinv = np.linalg.inv(xy)
    corner = (np.eye(p, dtype=complex) + alpha**2 * q * (x @ x)) @ xyinv

    @stacking
    def ev(lam) -> np.ndarray:
        ep, em = _exp_pair(lam)
        alpha_em = per_draw(lambda l: alpha * cmath.exp(-l), lam)
        return _aux_blocks(xy, alpha_em * x, alpha * (ep * x - em * xinv), corner)

    return ev


def _site_lax(chain: ChainSpec, rep: AlgebraRep):
    if chain.model == "xxx":
        return lax_xxx(rep)
    return lax_xxz(rep, chain.gradation, chain.mu)


def site_lax_matrices(chain: ChainSpec, lam: complex) -> list:
    """The Lax matrix of every site at lam, in chain order; each distinct
    site representation is evaluated once and its matrix shared."""
    evaluated = {key: family(lam) for key, family in chain._lax_families.items()}
    return [evaluated[id(rep)] for rep in chain.site_reps]


def monodromy_blocks(chain: ChainSpec, lam: complex) -> list:
    """Auxiliary 2x2 blocks of T(lambda) = L_N ... L_1, site 1 rightmost.

    Block [a][b] is a matrix on the full quantum space; entry labels follow
    the chain order site1 (x) ... (x) siteN: the Lax kernel on the unit
    columns of both aux inputs, the dense build behind `monodromy`.
    """
    T = _apply_blocks(site_lax_matrices(chain, lam), (0, 1), lambda state: state, None)
    return [[T[a, :, b] for b in range(2)] for a in range(2)]


def _apply_monodromy(laxes: list, state: np.ndarray, reverse: bool = False) -> None:
    """Overwrite state, of shape (2, D, B), with T state for T = L_N ... L_1
    and the site Lax matrices laxes; the legs are aux, quantum space (site 1
    leading) and column batch.  The one place Lax matrices are multiplied.

    Each site step is one (2n x 2n) @ (2n x R B) product, R = D / n, on the
    aux leg and the leading site leg, written to a spare state; copying it
    back moves that site behind the others, so after N steps the site order
    is back where it started; reverse moves the last site in front first, so
    laxes L_N ... L_1 give L_1 ... L_N.  No D x D array is formed and the
    cost is O(N n^2 D) per column.

    A (C, 2, D, B) state with (C, 2n, 2n) stacks of Lax matrices runs C
    independent chains of products, one per leading index: numpy's matmul
    multiplies a stack slice by slice with the BLAS call of the 2-D product
    of the same shape, so each slice is bit for bit the (2, D, B) state
    multiplied alone.  The Bethe-vector build of the bethe module stacks
    its candidates this way, C of them per chunk with C 4 D, the state and
    the spare, near linalg.BLOCK_ENTRIES.
    """
    lead, (_, D, B) = state.shape[:-3], state.shape[-3:]
    spare = np.empty_like(state)
    for lmat in laxes:
        n = lmat.shape[-1] // 2
        flat, split, grouped = lead + (2 * n, -1), lead + (2, D // n, n, B), lead + (2, n, D // n, B)
        if reverse:
            spare.reshape(grouped)[...] = state.reshape(split).swapaxes(-3, -2)
            np.matmul(lmat, spare.reshape(flat), out=state.reshape(flat))
        else:
            np.matmul(lmat, state.reshape(flat), out=spare.reshape(flat))
            state.reshape(split)[...] = spare.reshape(grouped).swapaxes(-3, -2)


def _apply_blocks(laxes: list, inputs, read, vec, mirrored: list = ()) -> np.ndarray:
    """read(state) of every column block of vec (a (D,) vector, a (D, L)
    batch, or None for the D unit columns), joined along its last axis; the
    first block's read fixes the shape, and L = 0 runs one empty block.  A
    block's (2, D, C, w) state holds its columns on aux input inputs[c] of
    copy c and goes through the reversed pass of mirrored, if any, and the
    pass of laxes; blocks are as wide as keeps it near linalg.BLOCK_ENTRIES.
    """
    D = int(np.prod([len(lmat) // 2 for lmat in laxes], dtype=np.int64))
    cols = None if vec is None else np.reshape(vec, (np.shape(vec)[0], -1))
    L = D if cols is None else cols.shape[1]
    width = max(1, linalg.BLOCK_ENTRIES // (2 * D * len(inputs)))

    def apply(start: int, w: int) -> np.ndarray:
        state = np.zeros((2, D, len(inputs), w), dtype=complex)
        block = np.eye(D, w, -start) if cols is None else cols[:, start:start + w]
        state[inputs, :, range(len(inputs))] = block
        if mirrored:
            _apply_monodromy(mirrored, state.reshape(2, D, -1), reverse=True)
        _apply_monodromy(laxes, state.reshape(2, D, -1))
        return read(state)

    for start in range(0, max(L, 1), width):
        part = apply(start, min(width, L - start))
        if start == 0:
            out = np.empty(part.shape[:-1] + (L,), dtype=complex)
        out[..., start:start + width] = part
    return out if cols is None else out.reshape(len(out), *np.shape(vec)[1:])


def apply_monodromy_block(chain: ChainSpec, lam: complex, a: int, b: int, vec) -> np.ndarray:
    """monodromy_blocks(chain, lam)[a][b] @ vec, matrix-free; vec is a (D,)
    vector or a (D, L) batch of columns.  Nothing in the package calls it:
    it is the one-block reader that the kernel is checked with against the
    Kronecker-grown blocks, and its single-column T[0][1] product per root
    is the one-at-a-time Bethe vector the stacked build is pinned to."""
    return _apply_blocks(site_lax_matrices(chain, lam), (b,), lambda state: state[a, :, 0], vec)


def apply_transfer(chain: ChainSpec, lam: complex, vec) -> np.ndarray:
    """transfer(chain)(lam) @ vec = T[0][0] vec + T[1][1] vec, matrix-free,
    with both aux inputs in one pass; vec is a (D,) vector, a (D, L) batch
    of columns, or None for the dense t itself."""
    _check_periodic(chain)
    return _apply_blocks(site_lax_matrices(chain, lam), (0, 1),
                         lambda state: state[0, :, 0] + state[1, :, 1], vec)


def monodromy(chain: ChainSpec, lam: complex) -> np.ndarray:
    """Monodromy matrix on aux (x) quantum for a periodic-convention chain."""
    return np.block(monodromy_blocks(chain, lam))


def _check_periodic(chain: ChainSpec) -> None:
    if chain.boundary != "periodic":
        raise ValueError("open chains are handled by the boundary module")


def transfer(chain: ChainSpec):
    """Auxiliary trace of the monodromy, a one-parameter commuting family:
    t(lam) = apply_transfer(chain, lam, None), with no monodromy formed."""
    _check_periodic(chain)
    return lambda lam: apply_transfer(chain, complex(lam), None)


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
    """Return (amp, target), both of shape (bonds, n*n, basis.size), for the
    bonds (i, i+1) of N equal sites, then the wrap bond (N, 1) when periodic,
    acting on the basis indices in basis.

    Row `out` of a bond holds, per basis index, bond[out, in] for its two
    local digits `in` and the index whose digits are replaced by out.
    """
    n = round(bond.shape[0] ** 0.5)
    outs = np.arange(n * n)[:, None]
    i = np.arange(1, N + 1 if periodic else N)[:, None, None]
    wi, wj = n ** (N - i), n ** (N - i % N - 1)
    a, b = basis // wi % n, basis // wj % n
    return bond[outs, a * n + b], basis + (outs // n - a) * wi + (outs % n - b) * wj


def _bond_sum(bond: np.ndarray, N: int, periodic: bool) -> np.ndarray:
    """Sum of a two-site operator over the bonds (i, i+1) of N equal sites,
    plus the wrap bond (N, 1) when periodic: each bond term (`_bond_moves`)
    is added to the row of its target, so the sum equals the identity-padded
    placement of every bond, bit for bit.
    """
    n = round(bond.shape[0] ** 0.5)
    D = n**N
    total = np.zeros((D, D), dtype=complex)
    cols = np.broadcast_to(np.arange(D), (n * n, D))
    for amp, target in zip(*_bond_moves(bond, N, periodic, np.arange(D))):
        # within one bond every (row, column) pair occurs once
        total[target, cols] += amp
    return total


def _coupling(periodic: bool) -> float:
    """The bond coupling of xxz_hamiltonian: -1/2, or -1 on the open chain."""
    return -0.5 if periodic else -1.0


def _is_periodic(boundary: str) -> bool:
    if boundary not in ("periodic", "open"):
        raise ValueError(f"boundary must be 'periodic' or 'open', not {boundary!r}")
    return boundary == "periodic"


def xxz_hamiltonian(N: int, delta: complex, boundary: str = "periodic") -> np.ndarray:
    """H = -1/2 sum_i (sx sx + sy sy + delta sz sz) on N spin-1/2 sites.

    The periodic sum runs over all N bonds; "open" drops the wrap term and
    doubles the remaining coupling so the N=2 chain matches the periodic one.
    """
    periodic = _is_periodic(boundary)
    if N < 2:
        raise ValueError("need at least two sites")
    return _bond_sum(_coupling(periodic) * _xxz_bond(delta), N, periodic)


def _frozen(*arrays) -> tuple:
    """The arrays, made read-only, so that no caller can corrupt a cache."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def sz_sector_indices(N: int, n: int, m: int) -> np.ndarray:
    """Basis indices of the Sz = N(n-1)/2 - m sector of an n^N chain: those
    whose n-ary digits sum to m, as a read-only array built once per (N, n, m)."""
    # one open axis per site, broadcast to the (n,) * N table of digit sums
    return _frozen(np.flatnonzero(sum(np.ix_(*[np.arange(n)] * N)).ravel() == m))[0]


@lru_cache(maxsize=None)
def _symmetry_orbits(N: int, periodic: bool) -> tuple:
    """Orbits of the symmetry g on the 2^N basis of N spin-1/2 sites: the
    shift T (order G = N) when periodic, else the reflection i -> N + 1 - i
    (order G = 2).  Returns G and, per basis index x, its representative
    (the smallest index in its orbit), the distance l with x = g^l rep, and
    the orbit period R, as read-only arrays built once per (N, periodic).
    """
    if periodic:
        G, targets = N, _shift_targets((2,) * N)
    else:
        G, targets = 2, np.arange(2**N).reshape((2,) * N).T.ravel()
    orbit = np.empty((G, targets.size), dtype=np.int64)  # orbit[r, x] = g^r x
    orbit[0] = np.arange(targets.size)
    for r in range(1, G):
        orbit[r] = targets[orbit[r - 1]]
    first = orbit.argmin(axis=0)
    back = orbit[1:] == orbit[0]
    period = np.where(back.any(axis=0), back.argmax(axis=0) + 1, G)
    return (G, *_frozen(orbit.min(axis=0), -first % G, period))


@lru_cache(maxsize=None)
def _symmetry_skeleton(N: int, periodic: bool) -> tuple:
    """The part of every `_symmetry_blocks` block that delta does not
    change, as read-only arrays built once per (N, periodic): G, the cos and
    sin tables of the phases 2 pi k l / G, k = 0 ... G//2, and per sector
    m = 0 ... N//2 the tuple (L, cells, flips, bins, scale, zz, blocks):

    - L, the number of orbit representatives;
    - flips, the nonzero terms of the delta-free bond sx sx + sy sy, in
      bond order, and bins, the index in cells of each one's flat
      (l, row, col) position in the (G, L, L) terms;
    - scale, sqrt(R_a / R_b) at each cell;
    - zz, the sign of sz sz per bond (row) and representative (column),
      as int8;
    - blocks, the (momenta, reps, keep) of each block with a state: the
      block keeps the rows and columns keep of the sector's L.
    """
    G, rep, dist, period = _symmetry_orbits(N, periodic)
    angles = 2 * np.pi * (np.outer(np.arange(G // 2 + 1), np.arange(G)) % G) / G
    hop = _coupling(periodic) * _xxz_bond(0.0).real
    sz_sz = np.kron(_PAULI["z"], _PAULI["z"]).real
    sectors = []
    for m in range(N // 2 + 1):
        sector = sz_sector_indices(N, 2, m)
        reps = sector[rep[sector] == sector]
        L, R = reps.size, period[reps]
        amp, target = _bond_moves(hop, N, periodic, reps)
        hit = amp != 0  # XXZ keeps Sz, and so does g: every target lies in the sector
        # one bond sends a column to distinct t, and t = g^l b fixes (l, b)
        t, col = target[hit], np.nonzero(hit)[2]
        cells, bins = np.unique((dist[t] * L + np.searchsorted(reps, rep[t])) * L + col,
                                return_inverse=True)
        row, col = cells // L % L, cells % L
        # sz sz is diagonal: one nonzero out of the n*n per bond and column
        zz = _bond_moves(sz_sz, N, periodic, reps)[0].sum(axis=1).astype(np.int8)
        blocks = []
        for k in range(G // 2 + 1):
            keep = np.flatnonzero(k * R % G == 0)
            if keep.size:
                momenta = (k,) if 2 * k % G == 0 else (k, G - k)
                blocks.append((momenta, *_frozen(reps[keep], keep)))
        tables = _frozen(cells, amp[hit], bins, np.sqrt(R[col] / R[row]), zz)
        sectors.append((L, *tables, tuple(blocks)))
    return (G, *_frozen(np.cos(angles), np.sin(angles)), tuple(sectors))


def _symmetry_blocks(N: int, delta: float, periodic: bool):
    """Yield (m, momenta, reps, block): xxz_hamiltonian in the Sz = N/2 - m
    sector where the symmetry g of order G (`_symmetry_orbits`) has
    eigenvalue e^{2 pi i k / G}, k = momenta[0]: the momentum of the
    periodic chain, the reflection parity (k = 0 even, 1 odd) of the open one.

    Row and column j stand for |a(k)> = R_a^-1/2 sum_{r < R_a}
    e^{-2 pi i k r / G} g^r |a>, a = reps[j], which exists when
    k R_a = 0 mod G.  A bond term amp |t> of H|a> adds amp e^{2 pi i k l / G}
    sqrt(R_a / R_b) to row b, where t = g^l b (Sandvik, arXiv:1101.3281,
    section 4).  The bond terms are real, so the G - k block is the complex
    conjugate of the k block, on the same reps, with the same eigenvalues:
    only k = 0 ... G//2 are built, and momenta is (k, G - k), or (k,) for
    the real blocks k = 0 and k = G/2.  Every block of a sector comes from
    the two real products cos @ terms and sin @ terms (only the first when
    G = 2, where every block is real), where terms[l] holds the bond terms
    with t = g^l b.

    Only the diagonal of terms[0] depends on delta: the flip terms, their
    cells and scales, and the blocks' reps come from `_symmetry_skeleton`,
    built once per (N, periodic).  One bincount sums each cell's flips in
    bond order, and the diagonal is the bond-order sum of the sz sz terms
    (none at delta = 0, as zero terms were never added), so every block is
    bit-identical to adding the nonzero bond terms one bond at a time.  A
    block is cut from row k of the products after the elementwise complex
    sum; a block that keeps every representative is that row.

    Only the sectors m = 0 ... N//2 are built.  The spin flip F = prod sx
    maps sector m onto sector N - m, keeps H and commutes with g, so the
    N - m blocks are F-images of these, k for k, with the same levels.
    """
    G, cos, sin, sectors = _symmetry_skeleton(N, periodic)
    z = _coupling(periodic) * delta  # each bond's sz sz term, times its sign
    for m, (L, cells, flips, bins, scale, zz, blocks) in enumerate(sectors):
        terms = np.zeros(G * L * L)
        terms[cells] = np.bincount(bins, flips, minlength=cells.size) * scale
        if z != 0:
            # a running sum, one bond at a time; R_a / R_a = 1 on the diagonal
            terms[: L * L : L + 1] = np.cumsum(zz * z, axis=0)[-1]
        terms = terms.reshape(G, L, L)
        re = np.tensordot(cos, terms, axes=1)
        im = np.tensordot(sin, terms, axes=1) if G > 2 else None
        for momenta, reps, keep in blocks:
            k = momenta[0]
            block = re[k] if len(momenta) == 1 else re[k] + 1j * im[k]
            yield m, momenta, reps, block if keep.size == L else block.take(keep, 0).take(keep, 1)


def spectrum_levels(N: int, delta: complex, boundary: str = "periodic") -> dict:
    """Sorted eigenvalues of xxz_hamiltonian with S^z and momentum labels,
    as columns: {"energy": float64, "sz": float64} numpy arrays of the 2^N
    levels in ascending energy, and for periodic chains "momentum", the
    int64 k with translation eigenvalue e^{2 pi i k / N}.  Equal energies
    keep (sz, momentum) order.

    Both chains are solved one `_symmetry_blocks` block at a time, per
    (Sz, k) on translation orbits or per (Sz, reflection parity) on
    reflection orbits, so every momentum is the block the level was solved
    in, with no energy threshold; one eigensolve serves the conjugate k and
    N - k blocks, and the spin-flipped -Sz block with the same k, whose
    levels are equal bit for bit (only Sz >= 0 is solved).  Only eigenvalues
    are computed, and no 2^N x 2^N array is formed.  The delta-free part of
    the blocks is built on the first call at a given (N, boundary) and kept
    for the process (`_symmetry_skeleton`), so a scan over delta at one N
    pays for it once; later calls only sum the sz sz diagonal and form the
    blocks.  delta must be real, since H is Hermitian only then; the open
    blocks and the k = 0, N/2 blocks are then real.  A delta that is not
    finite, or a block that is not finite (|delta| near the float range),
    raises ValueError, and so does an eigensolve that does not converge.
    """
    periodic = _is_periodic(boundary)
    if N < 2:
        raise ValueError("spectrum needs at least two sites")
    if 2**N > MAX_DIM:
        raise ValueError(f"Hilbert space dimension above {MAX_DIM}")
    if abs(complex(delta).imag) > 1e-14:
        raise ValueError("spectrum needs a real delta; a complex one makes H non-Hermitian")
    delta = complex(delta).real
    if not np.isfinite(delta):
        raise ValueError(f"delta must be finite, not {delta}")
    energy, sz, momentum = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for m, momenta, _, block in _symmetry_blocks(N, delta, periodic):
            if not np.isfinite(block).all():
                raise ValueError(f"the Hamiltonian at delta = {delta} is not finite")
            energies = np.linalg.eigvalsh(block)
            # the spin flip gives sector N - m the same levels; Sz = 0 is its own mirror
            labels = (N / 2 - m,) if 2 * m == N else (N / 2 - m, m - N / 2)
            for label in labels:
                for k in momenta:
                    energy.append(energies)
                    sz.append(label)
                    momentum.append(k)
    sizes = [energies.size for energies in energy]
    energy, sz, momentum = np.concatenate(energy), np.repeat(sz, sizes), np.repeat(momentum, sizes)
    # stable, so equal (energy, sz, momentum) keep their block order
    order = np.lexsort((momentum, sz, energy))
    columns = {"energy": energy[order], "sz": sz[order]}
    if periodic:
        columns["momentum"] = momentum[order]
    return columns


def spectrum_table(N: int, delta: complex, boundary: str = "periodic") -> list:
    """The levels of `spectrum_levels` as records: one dict per state, in
    the same order, with its energy, sz and, for periodic chains, momentum
    as Python floats and int; the same errors."""
    columns = spectrum_levels(N, delta, boundary)
    return [dict(zip(columns, row)) for row in zip(*(col.tolist() for col in columns.values()))]
