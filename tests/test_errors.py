"""Reachable error branches: each invalid input is refused with ValueError
by its own check, and the CLI names a missing required key, an off-scale
bethe chain, an off-scale mu of every command that takes one and an
off-scale spectrum or phase-scan delta."""

import json
import warnings

import numpy as np
import pytest

from spinchain import algebra, bethe, boundary, braid, cli, lax, linalg, rmatrix

MU = 0.3
Q = np.exp(1j * MU)
SL2 = algebra.sl2_spin_rep(2)

# (case, message fragment, call that must raise)
REFUSED = [
    ("generators of different sizes", "differ in dimension",
     lambda: algebra.AlgebraRep("mixed", {"a": np.eye(2), "b": np.eye(3)}, {})),
    ("sl2 in dimension 0", "dimension must be", lambda: algebra.sl2_spin_rep(0)),
    ("Uq(sl2) in dimension 0", "dimension must be", lambda: algebra.uq_sl2_spin_rep(0, Q)),
    ("Uq(sl2) spin 1 at q = e^-400", r"q = .* is off scale for dimension 3",
     lambda: algebra.uq_sl2_spin_rep(3, np.exp(-400))),
    ("co-product of undeformed reps", "q-deformed", lambda: algebra.coproduct_uq(SL2, SL2)),
    ("zero-fold co-product", "at least one copy", lambda: algebra.ncoproduct(SL2, 0)),
    ("unknown pseudo-vacuum", "pseudo-vacuum",
     lambda: bethe.BetheSystem(2, 0.5, MU, (), vacuum="sideways")),
    ("K+ in an unknown gradation", "unknown gradation",
     lambda: boundary.crossed_k_plus(boundary.k_identity(), "xxz", MU, "sideways")),
    ("K+ of an unknown model", "unknown model",
     lambda: boundary.crossed_k_plus(boundary.k_identity(), "xyz")),
    ("open Hamiltonian with K- = diag(1, 2)", "singular at the origin",
     lambda: boundary.open_hamiltonian(
         boundary.open_chain("xxz", 2, MU, k_minus=lambda lam: np.diag([1.0, 2.0])))),
    ("Uq-invariant Hamiltonian on one site", "two sites",
     lambda: boundary.uq_invariant_hamiltonian(1, MU)),
    ("Hecke rep at q = 0", "q must be nonzero", lambda: braid.hecke_rep(2, 3, 0)),
    ("blob rep on one site", "two sites", lambda: braid.blob_rep(1, Q, 2.0, 1.0)),
    ("chain of an unknown model", "unknown model", lambda: lax.ChainSpec("xyz", 1, (SL2,))),
    ("chain with too few site reps", "one site representation per site",
     lambda: lax.ChainSpec("xxx", 2, (SL2,))),
    ("xxz chain without mu", "needs mu", lambda: lax.uniform_chain("xxz", 2)),
    ("uniform chain of an unknown model", "unknown model", lambda: lax.uniform_chain("xyz", 2)),
    ("shift on unequal sites", "equal local dimensions", lambda: lax.cyclic_shift_matrix((2, 3))),
    ("Hamiltonian of a spin-1 chain", "spin-1/2 sites",
     lambda: lax.hamiltonian_from_transfer(lax.uniform_chain("xxz", 2, MU, 3))),
    ("commutator of unequal shapes", "equal shapes", lambda: linalg.comm_norm(np.eye(2), np.eye(3))),
    ("TQ fit on M + 1 points", "needs at least 4 points",
     lambda: bethe.tq_roots(np.ones(3), 0.1 * np.arange(3), 4, 0.5, MU, 2)),
    ("braided 3 x 3 family", "equal local dimensions", lambda: rmatrix.braided(lambda lam: np.eye(3))),
    ("spectrum at delta = nan", "delta must be finite", lambda: lax.spectrum_table(4, float("nan"))),
    ("Bethe roots with M = -1", r"M must lie in \[0, 2sN\] = \[0, 4\]",
     lambda: bethe.solve_bae(4, 0.5, MU, -1)),
    ("Bethe roots with M = 7", r"M must lie in \[0, 2sN\] = \[0, 4\]",
     lambda: bethe.solve_bae(4, 0.5, MU, 7)),
]


@pytest.mark.parametrize("message, build", [case[1:] for case in REFUSED],
                         ids=[case[0] for case in REFUSED])
def test_invalid_input_is_refused(message, build):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("command", ["spectrum", "bethe", "phase-scan"])
def test_a_config_without_N_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({}))
    assert cli.main([command, "--config", str(cfg)]) == 2
    assert "missing config keys: N" in capsys.readouterr().err


def test_a_bethe_chain_off_scale_exits_2_with_one_line(tmp_path, capsys):
    # mu = 1e308 overflows the TQ system, mu = 400i the transfer matrix:
    # each named as such, with no numpy warning
    cfg = tmp_path / "cfg.json"
    for mu, message in ((1e308, "the TQ system"), ([0, 400], "the transfer matrix at mu = 400j")):
        cfg.write_text(json.dumps({"N": 4, "mu": mu}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["bethe", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: {message}")
        assert "not finite" in err


@pytest.mark.parametrize("command, obj", [
    *[("verify", {"suite": suite, "mu": [0, 400]}) for suite in ("ybe", "re", "braid", "frt", "symmetry")],
    ("casimir", {"mu": [0, 400]}),
    ("bethe", {"N": 3, "s": 1, "mu": [0, 400]}),
    ("bethe", {"N": 4, "mu": [0.3, 60]}),
    ("spectrum", {"N": 4, "mu": [0, 800]}),
], ids=["ybe", "re", "braid", "frt", "symmetry", "casimir", "bethe-spin-1", "bethe-mu-60i",
        "spectrum"])
def test_a_complex_mu_off_scale_exits_2_with_one_line(tmp_path, capsys, command, obj):
    # q = e^{i mu} = e^-400 overflows the matrix products, or q^-2 the spin-1
    # ladder, the row norm of bethe's TQ system overflows at mu = 0.3 + 60i,
    # and cos(mu) overflows at mu = 800i: a config error, with no
    # RuntimeWarning and no NaN residual on stdout
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error: ")
    if obj.get("suite") == "frt" or obj.get("s") == 1:
        assert err.startswith("config error: q = ")


@pytest.mark.parametrize("command, obj", [
    ("spectrum", {"N": 12, "delta": 1e308}),
    ("spectrum", {"N": 12, "delta": 3e307}),
    ("spectrum", {"N": 4, "delta": 1e308}),
    ("spectrum", {"N": 3, "delta": -1e308, "boundary": "open"}),
    ("phase-scan", {"N": 6, "deltas": [1e308]}),
    ("phase-scan", {"N": 4, "deltas": [-1e308], "boundary": "open"}),
    ("phase-scan", {"N": 4, "delta_start": -1e308, "delta_stop": 1e308, "delta_steps": 3}),
], ids=["spectrum-12", "spectrum-12-3e307", "spectrum-4", "spectrum-open-3",
        "phase-scan-6", "phase-scan-open-4", "phase-scan-range-overflows"])
def test_a_delta_off_scale_exits_2_with_one_line(tmp_path, capsys, command, obj):
    # the Hamiltonian overflows: refused, with no traceback, no NaN or
    # Infinity energy on stdout and no numpy warning
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error: ")
