"""Numerical workbench for 1+1 dimensional quantum integrable spin chains.

The library builds the standard objects of the quantum inverse scattering
method as dense complex matrices and verifies their defining identities to
machine precision: R-matrices and the Yang-Baxter equation, Lax/monodromy/
transfer matrices and commuting families, boundary K-matrices and the
reflection equation, Hecke/Temperley-Lieb/blob algebra representations, and
the algebraic Bethe ansatz cross-validated against exact diagonalization.

Everything is desk scale by design (Hilbert dimension <= 4096); dense linear
algebra on top of numpy is the only numerical backend.
"""

from .linalg import (
    Operator,
    Spectrum,
    comm_norm,
    eig,
    embed,
    fit_affine,
    kron,
    kron_all,
    mat,
    partial_trace_first,
    permutation,
    polynomial_matrix_coefficients,
    rel_norm,
    richardson_derivative,
)
from .algebra import (
    AlgebraRep,
    Coproduct,
    casimir_uq,
    check_relations,
    coproduct_uq,
    cyclic_rep,
    ncoproduct,
    q_integer,
    q_oscillator_rep,
    sl2_spin_rep,
    uq_sl2_spin_rep,
)
from .braid import (
    BraidFamily,
    blob_rep,
    check_braid_hecke,
    check_btype_quotients,
    check_temperley_lieb,
    hecke_rep,
    hecke_u_matrix,
)
from .rmatrix import (
    SpectralMatrixFamily,
    baxterize,
    braided,
    braided_ybe_residual,
    gauge_v,
    intertwiner_residual,
    r_pm,
    r_xxx,
    r_xxz,
    regularity_constant,
    xxx_family,
    xxz_family,
    ybe_residual,
)
from .lax import (
    ChainSpec,
    LaxOperator,
    TransferFamily,
    chain_r_family,
    cyclic_shift_matrix,
    hamiltonian_from_transfer,
    lax_generic_xxz,
    lax_liouville,
    lax_qoscillator,
    lax_sine_gordon,
    lax_xxx,
    lax_xxz,
    lax_xxz_pm,
    momentum_operator,
    monodromy,
    monodromy_blocks,
    p_matrix,
    rll_residual,
    spectrum_table,
    sz_sector_indices,
    transfer,
    transfer_log_derivative,
    triangular_residuals,
    uniform_chain,
    xxz_hamiltonian,
    yangian_charges,
)
from .bethe import (
    BetheSolution,
    BetheSystem,
    bae_residual,
    bethe_vector,
    eigenvalue_fn,
    energy,
    momentum,
    refine,
    solution_record,
    solve_bae,
    sz,
    validate_against_ed,
)
from .boundary import (
    KMatrixFamily,
    OpenBoundary,
    casimir_from_asymptotics,
    crossed_k_plus,
    dressed_k,
    k_blob,
    k_gz_dvgr,
    k_identity,
    open_chain,
    open_hamiltonian,
    open_transfer,
    re_residual,
    uq_invariant_hamiltonian,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
