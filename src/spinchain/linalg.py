"""Dense complex linear algebra primitives for many-body operator work.

Every operator on a tensor product of local spaces is a plain dense complex
ndarray; the local dimensions travel with the call that needs them, as in
embed(op, sites, dims).  At desk scale (total dimension <= 4096) dense
storage and LAPACK eigen-solves beat any sparse machinery, so that is all
we use.  embed scatters the operator's entries into a zero D x D matrix
through an index table cached per placement, so the small products of the
verify suites pay for one allocation and one index assignment, not for a
Kronecker product and a transpose.  Nearest-neighbour Hamiltonians are the
exception to embed: the lax module writes their bond terms by basis-index
arithmetic, into the full matrix or into the symmetry-orbit blocks of one
Sz sector, so a spectrum at the cap never holds a 4096 x 4096 array.  The
orbit blocks' flip terms, their places and the orbit scales do not depend
on the anisotropy delta and are indexed once per chain length and
boundary; each delta only sums the diagonal sz sz terms.

The identity checks of the verify suites run over whole lists of spectral
draws, on one convention: a scalar lambda gives a matrix, a 1-D array of
lambdas the (P, s, s) stack of the P matrices, each slice bit-identical to
the scalar call.  The library's families follow it and carry the `stacking`
mark; `at_draws` evaluates any family that way, looping over the draws of a
scalar-only callable (a user's lambda) and stacking its matrices.
`over_draws` hands each chunk of draws to the caller's evaluation and the
stacks it returns to one stacked computation.  embed places a stack in one
call, and rel_norm and comm_norm return one distance per slice, each
bit-identical to the distance of that slice alone.
"""

from __future__ import annotations

from functools import lru_cache
from numbers import Number

import numpy as np

# the advertised cap on the Hilbert dimension of every chain
MAX_DIM = 4096

# complex entries (4 MiB) of one working block, about the L2 cache of one
# core: a column block of the lax monodromy kernel, or the stacks that one
# chunk of over_draws places
BLOCK_ENTRIES = 2**18


def mat(x) -> np.ndarray:
    """A caller-supplied matrix coerced to a complex ndarray."""
    return np.asarray(x, dtype=complex)


def kron_all(*ops) -> np.ndarray:
    """n-fold Kronecker product of the factors, in order."""
    out = np.eye(1, dtype=complex)
    for op in ops:
        out = np.kron(out, mat(op))
    return out


@lru_cache(maxsize=256)
def _placement(sites: tuple, dims: tuple) -> np.ndarray:
    """Read-only (side, D // side) table of chain basis indices for sites.

    Row i is the operator's basis state i (its sites in its own tensor
    order), column k a basis state of the other sites in chain order, so
    embed's entry (i, j) of the operator lands at out[t[i, k], t[j, k]] for
    every k.  Bad placements raise here, and raise again on every call,
    because lru_cache does not store exceptions.
    """
    N = len(dims)
    if not sites or len(set(sites)) != len(sites) or not all(1 <= s <= N for s in sites):
        raise ValueError(f"sites {sites} invalid for {N} factors")
    order = [s - 1 for s in sites] + [s for s in range(N) if s + 1 not in sites]
    side = int(np.prod([dims[s - 1] for s in sites], dtype=np.int64))
    table = np.arange(int(np.prod(dims, dtype=np.int64))).reshape(dims)
    table = table.transpose(order).reshape(side, -1)
    table.flags.writeable = False
    return table


def embed(a, sites, dims) -> np.ndarray:
    """Place an operator on 1-indexed sites of a product space, identity
    everywhere else.

    sites is one site or a tuple of distinct sites in the operator's own
    tensor order, so (N, 1) puts its first factor on the last site.  The
    operator's entries are scattered into a zero D x D matrix through the
    placement table of (sites, dims), built once per placement and cached.
    A (P, side, side) stack of operators gives the (P, D, D) stack of their
    placements, through the same table in one assignment.  A call allocates
    the complex output plus index temporaries of at most 2 * side * D int64,
    for side the operator's dimension.
    """
    dims = tuple(int(d) for d in dims)
    sites = tuple(int(s) for s in sites) if np.iterable(sites) else (int(sites),)
    table = _placement(sites, dims)
    m = mat(a)
    side = table.shape[0]
    if m.ndim not in (2, 3) or m.shape[-2:] != (side, side):
        raise ValueError(f"operator shape {m.shape[-2:]} != local dimension {side} of sites {sites}")
    D = table.size
    out = np.zeros(m.shape[:-2] + (D, D), dtype=complex)
    out[..., table[:, None, :], table[None, :, :]] = m[..., None]
    return out


def embed_pair(a, site: int, dims) -> np.ndarray:
    """Place a two-site operator on the adjacent pair (site, site+1)."""
    return embed(a, (site, site + 1), dims)


def embed_wrap_pair(a, dims) -> np.ndarray:
    """Place a two-site operator on the wrap-around pair (last site, site 1).

    The first tensor index of the operator acts on the last chain site, the
    second on site 1, matching the periodic bond H_{N,1}.
    """
    return embed(a, (len(dims), 1), dims)


def permutation(n: int) -> np.ndarray:
    """Exchange operator on n (x) n: P (a (x) b) = b (x) a; P^2 = I."""
    P = np.zeros((n * n, n * n), dtype=complex)
    # row i n + j holds its one 1 in column j n + i
    P[np.arange(n * n), np.arange(n * n).reshape(n, n).T.ravel()] = 1.0
    return P


def _norms(x: np.ndarray):
    # Frobenius norm of a matrix, or of each matrix of a (P, m, n) stack by
    # the same two real dot products np.linalg.norm takes, so each entry is
    # bit-identical to the norm of its slice (np.linalg.norm(x, axis=(1, 2))
    # sums in another order and is not)
    if x.ndim != 3:
        return np.linalg.norm(x)
    flat = x.reshape(len(x), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.mT + im @ im.mT)[:, 0, 0])


def _result(x):
    return float(x) if np.ndim(x) == 0 else x


def comm_norm(a, b):
    """Relative Frobenius norm of the commutator [A, B]; A or B may be a
    (P, n, n) stack, giving one norm per slice."""
    A, B = mat(a), mat(b)
    if A.shape[-2:] != B.shape[-2:]:
        raise ValueError("commutator needs equal shapes")
    scale = np.maximum(1.0, _norms(A) * _norms(B))
    return _result(_norms(A @ B - B @ A) / scale)


def rel_norm(a, b):
    """Relative Frobenius distance between two matrices, or between the
    matching slices of (P, m, n) stacks, giving one distance per slice."""
    A, B = mat(a), mat(b)
    scale = np.maximum(np.maximum(_norms(A), _norms(B)), 1e-300)
    return _result(_norms(A - B) / scale)


def stacking(family):
    """Mark family as following the stack convention: a 1-D array of lambdas
    gives the (P, s, s) stack of its matrices, each slice bit-identical to
    the scalar call.  at_draws calls a marked family once per stack."""
    family.stacks_draws = True
    return family


def at_draws(family, lam) -> np.ndarray:
    """family's matrix at a scalar lam, or the (P, s, s) stack of its
    matrices at the 1-D array lam: one call for a family marked by
    `stacking`, one scalar call per draw (each a Python number) otherwise."""
    if not draw_shape(lam) or getattr(family, "stacks_draws", False):
        return mat(family(lam))
    return np.stack([mat(family(draw)) for draw in np.asarray(lam).tolist()])


def draw_shape(lam) -> tuple:
    """() for a scalar lambda, (P,) for a 1-D array of P lambdas: the leading
    shape of a family's result."""
    # arrays and numbers skip np.shape, which converts its argument
    if isinstance(lam, np.ndarray):
        return lam.shape
    return () if isinstance(lam, Number) else np.shape(lam)


def per_draw(f, lam, axes: int = 2):
    """f(lam) at a scalar lam; at a 1-D array lam, the array of f at each
    draw (each a Python number, as a scalar call takes it) with `axes`
    trailing unit axes, so that it scales matrices into stacks.  f computes
    the per-draw numbers, cmath's or Python's, that numpy's vector arithmetic
    may round otherwise."""
    if not draw_shape(lam):
        return f(lam)
    return np.array([f(draw) for draw in np.asarray(lam).tolist()]).reshape((-1,) + (1,) * axes)


def over_draws(evaluate, dims, combine, *lams):
    """Residuals of one identity at each draw of its spectral parameters.

    lams are one scalar each (a single draw, giving a float) or equal-length
    1-D sequences (draw i takes entry i of each, giving an ndarray of one
    residual per draw).  evaluate(*chunk) takes one 1-D array per parameter,
    P draws, and returns the tuple of (P, s, s) stacks of their matrices
    (a family's through `at_draws`); dims(*matrices) gives, from the first
    draw's matrices, the local dimensions of the product space they are
    placed on; combine(dims, *stacks) returns the (P,) residuals of the
    chunk.  Draws go in chunks of P draws such that eight (P, D, D) stacks,
    about what combine holds at once between its placements and products,
    make BLOCK_ENTRIES entries.
    """
    if all(np.ndim(lam) == 0 for lam in lams):
        return float(over_draws(evaluate, dims, combine, *([lam] for lam in lams))[0])
    if any(np.ndim(lam) != 1 for lam in lams):
        raise ValueError("spectral parameters must be all scalars or all 1-D sequences")
    if len({len(lam) for lam in lams}) != 1 or not len(lams[0]):
        raise ValueError("draws must be non-empty sequences of equal length")
    lams = [np.asarray(lam) for lam in lams]
    stacks = evaluate(*(lam[:1] for lam in lams))
    local = dims(*(stack[0] for stack in stacks))
    D = int(np.prod(local, dtype=np.int64))
    width = max(1, BLOCK_ENTRIES // (8 * D * D))
    out = np.empty(len(lams[0]))
    for start in range(0, len(out), width):
        # the first draw's stacks serve as the first chunk when that is all it holds
        if start or min(width, len(out)) > 1:
            stacks = evaluate(*(lam[start:start + width] for lam in lams))
        out[start:start + width] = combine(local, *stacks)
    return out


def fit_affine(target, basis) -> tuple[np.ndarray, float]:
    """Least-squares fit target ~= sum_k c_k basis_k over matrices.

    Returns (coefficients, relative residual).  Used to pin down the 'up to
    a constant' normalizations that relate transfer-matrix derivatives to
    explicitly displayed Hamiltonians.
    """
    t = mat(target).ravel()
    A = np.stack([mat(b).ravel() for b in basis], axis=1)
    coef, *_ = np.linalg.lstsq(A, t, rcond=None)
    resid = np.linalg.norm(A @ coef - t) / max(np.linalg.norm(t), 1e-300)
    return coef, float(resid)


def polynomial_matrix_coefficients(f, degree: int) -> list:
    """Coefficients c_k with f(x) = sum c_k x^k for a matrix polynomial.

    Exact (up to roundoff) Vandermonde solve from degree+1 samples on
    [-1, 1]; f must be a genuine polynomial of the stated degree.
    """
    pts = np.linspace(-1.0, 1.0, degree + 1)
    vander = np.vander(pts, increasing=True).astype(complex)
    samples = np.stack([mat(f(x)).ravel() for x in pts])
    coef = np.linalg.solve(vander, samples)
    shape = mat(f(pts[0])).shape
    return [coef[k].reshape(shape) for k in range(degree + 1)]


def richardson_derivative(f, x0: float = 0.0, step: float = 1e-5):
    """Central-difference derivative with one Richardson extrapolation step.

    f may return scalars or arrays; the error is O(step^4), far below the
    test tolerances used throughout.
    """
    d1 = (f(x0 + step) - f(x0 - step)) / (2 * step)
    d2 = (f(x0 + 2 * step) - f(x0 - 2 * step)) / (4 * step)
    return (4 * d1 - d2) / 3
