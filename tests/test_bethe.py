"""Bethe-equation solver: roots, eigenvalue function, ED cross-validation."""

import cmath
import json
import tracemalloc

import numpy as np
import pytest

import spinchain as sc
from spinchain import bethe, cli, lax

MU = 0.3


@pytest.fixture(scope="module")
def sols21():
    return sc.solve_bae(2, 0.5, MU, 1)


@pytest.fixture(scope="module")
def sols42():
    return sc.solve_bae(4, 0.5, MU, 2)


def test_system_constructor_gates():
    with pytest.raises(ValueError):
        sc.BetheSystem(2, 0.3, MU, ())  # not a half-integer spin
    with pytest.raises(ValueError):
        sc.BetheSystem(2, 0.5, MU, (0.1, 0.2, 0.3, 0.4, 0.5))  # M > 2 N s + N
    with pytest.raises(ValueError):
        sc.BetheSystem(2, 0.5, MU, (0.1, 0.1 + 1e-12))  # coincident roots
    with pytest.raises(ValueError):
        sc.BetheSystem(0, 0.5, MU, ())


def test_bae_residual_discriminates():
    good = sc.BetheSystem(2, 0.5, MU, (0.0,))
    assert sc.bae_residual(good) < 1e-12
    bad = sc.BetheSystem(2, 0.5, MU, (0.3,))
    assert sc.bae_residual(bad) > 0.1
    with pytest.raises(ValueError):
        sc.bae_residual(sc.BetheSystem(2, 0.5, MU, (0.5j * MU,)))  # root at a pole


def test_pseudo_vacuum_eigenvalue():
    sol0 = sc.solve_bae(2, 0.5, MU, 0)
    assert len(sol0) == 1
    fn = sol0[0].eigenvalue_fn
    lam = 0.4
    want = cmath.sinh(lam + 1j * MU) ** 2 + cmath.sinh(lam) ** 2
    assert abs(fn(lam) - want) < 1e-13
    # the all-up state is an exact transfer eigenvector
    ch = lax.uniform_chain("xxz", 2, MU, 2, "principal")
    tm = sc.mat(sc.transfer(ch)(lam))
    vec = np.zeros(4)
    vec[0] = 1.0
    assert np.linalg.norm(tm @ vec - fn(lam) * vec) < 1e-13


def test_two_site_one_root_solutions(sols21):
    assert len(sols21) == 2
    vals = [complex(s.system.roots[0]) for s in sols21]
    assert any(abs(v) < 1e-9 for v in vals)
    assert any(abs(v - 0.5j * np.pi) < 1e-9 for v in vals)


def test_eigenvalue_matches_ed(sols21):
    ch = lax.uniform_chain("xxz", 2, MU, 2, "principal")
    tm = sc.mat(sc.transfer(ch)(0.4))
    evs = np.linalg.eigvals(tm)
    for sol in sols21:
        val = sol.eigenvalue_fn(0.4)
        assert np.abs(evs - val).min() / abs(val) < 1e-12


def test_eigenvalue_continuous_through_pole(sols21):
    # residues of the two dressed terms cancel on shell; the circle-mean
    # evaluation must join the plain form smoothly
    sol = next(s for s in sols21 if abs(s.system.roots[0]) < 1e-9)
    fn = sol.eigenvalue_fn
    v = complex(sol.system.roots[0]) - 0.5j * MU
    assert abs(fn(v) - fn(v + 5e-6)) < 1e-7
    assert abs(fn(v) - fn(v - 5e-6)) < 1e-7


def test_energy_closed_form_and_log_derivative(sols21):
    sol = next(s for s in sols21 if abs(s.system.roots[0]) < 1e-9)
    expected = MU * cmath.sinh(1j * MU) / (2 * np.pi * cmath.sinh(0.5j * MU) ** 2)
    assert abs(sol.energy - expected) < 1e-12
    # E = -(mu/2pi) (d/dl log Lambda(0) - N coth(i mu))
    fn = sol.eigenvalue_fn
    h = 1e-6
    dln = (cmath.log(fn(h)) - cmath.log(fn(-h))) / (2 * h)
    route = -(MU / (2 * np.pi)) * (dln - 2 * cmath.cosh(1j * MU) / cmath.sinh(1j * MU))
    assert abs(sol.energy - route) < 1e-9


def test_momentum_identity(sols21):
    for sol in sols21:
        lhs = cmath.exp(-sol.momentum)
        rhs = sol.eigenvalue_fn(0.0) / cmath.sinh(1j * MU) ** 2
        assert abs(lhs - rhs) < 1e-12


def test_physical_energy_mapping(sols21):
    # alpha h_raw + beta reproduces the closed-form energy, with
    # alpha = -mu/(2 pi sinh(i mu)) and beta = mu N coth(i mu)/(2 pi)
    ch = lax.uniform_chain("xxz", 2, MU, 2, "principal")
    h_raw = sc.mat(sc.hamiltonian_from_transfer(ch))
    alpha = -MU / (2 * np.pi * cmath.sinh(1j * MU))
    beta = MU * 2 * cmath.cosh(1j * MU) / cmath.sinh(1j * MU) / (2 * np.pi)
    for sol in sols21:
        vec = sc.bethe_vector(sol.system)
        e_raw = vec.conj() @ h_raw @ vec
        assert abs(alpha * e_raw + beta - sol.energy) < 1e-8


def test_bethe_vector_is_transfer_eigenvector(sols42):
    ch = lax.uniform_chain("xxz", 4, MU, 2, "principal")
    tm = sc.mat(sc.transfer(ch)(0.233))
    for sol in sols42:
        vec = sc.bethe_vector(sol.system, ch)
        val = sol.eigenvalue_fn(0.233)
        assert np.linalg.norm(tm @ vec - val * vec) < 1e-8


def test_roots_closed_under_conjugation(sols42):
    # at real mu every admissible multiset is self-conjugate mod i pi
    for sol in sols42:
        roots = np.asarray(sol.system.roots)
        for z in roots:
            best = min(
                abs(np.conj(z) - w - 1j * np.pi * k) for w in roots for k in (-1, 0, 1)
            )
            assert best < 1e-7


def test_refine_is_idempotent(sols42):
    for sol in sols42:
        ref = sc.refine(sol.system)
        drift = max(abs(np.asarray(ref.roots) - np.asarray(sol.system.roots)))
        assert drift < 1e-9
    # a rough guess polishes onto the nearby exact root
    ref = sc.refine(sc.BetheSystem(2, 0.5, MU, (0.05,)))
    assert abs(ref.roots[0]) < 1e-10


def test_sz_bookkeeping(sols42):
    for sol in sols42:
        assert float(sc.bethe.sz(sol)) == 4 * 0.5 - 2
    rec = sc.solution_record(sols42[0])
    assert set(rec) == {
        "N", "s", "mu", "M", "roots", "residual", "energy", "momentum", "sz", "matched",
    }
    assert rec["N"] == 4 and rec["M"] == 2
    assert rec["mu"] == [MU, 0.0]


def test_sector_indices():
    sel = sc.sz_sector_indices(2, 2, 1)
    assert sorted(sel) == [1, 2]
    assert len(sc.sz_sector_indices(4, 2, 2)) == 6
    assert len(sc.sz_sector_indices(2, 3, 1)) == 2


def test_higher_spin_has_no_closed_form_charges():
    system = sc.BetheSystem(2, 1.0, MU, ())
    with pytest.raises(ValueError):
        sc.bethe.energy(system)
    with pytest.raises(ValueError):
        sc.bethe.momentum(system)


def test_validate_small_chain_full_coverage():
    report = sc.validate_against_ed(2, 0.5, MU)
    assert report["coverage"] == [4, 4]
    assert report["mismatched_solutions"] == 0
    per_m = {sec["M"]: len(sec["solutions"]) for sec in report["sectors"]}
    assert per_m[0] == 1 and per_m[1] == 2
    # the one-dimensional M = 2 sector holds one state, reported once
    assert per_m[2] == 1
    for sec in report["sectors"]:
        for rec in sec["solutions"]:
            assert rec["matched"] is not None


def test_gapped_regime_bound_pair():
    # imaginary mu (|Delta| > 1): the two-root sector holds exactly two
    # admissible solutions, one of them the massive pair at Im = pi/2
    sols = sc.solve_bae(4, 0.5, 0.3j, 2)
    assert len(sols) == 2
    pair = None
    for sol in sols:
        re = sorted(z.real for z in sol.system.roots)
        im = [z.imag for z in sol.system.roots]
        if max(abs(v - np.pi / 2) for v in im) < 1e-6:
            pair = re
    assert pair is not None
    assert abs(pair[0] + 0.667161) < 1e-5 and abs(pair[1] - 0.667161) < 1e-5
    report = sc.validate_against_ed(4, 0.5, 0.3j, M_range=[2])
    assert report["mismatched_solutions"] == 0


def test_rational_limit_of_ground_roots():
    # as mu -> 0 the trigonometric roots approach mu times the rational
    # N=4 ground pair +-1/sqrt(12)
    mu = 0.02
    sols = sc.solve_bae(4, 0.5, mu, 2)
    target = mu / np.sqrt(12.0)
    hit = False
    for sol in sols:
        re = sorted(z.real for z in sol.system.roots)
        if max(abs(z.imag) for z in sol.system.roots) < 1e-8:
            if abs(re[0] + target) < 1e-9 and abs(re[1] - target) < 1e-9:
                hit = True
    assert hit


def test_solver_determinism():
    a = sc.solve_bae(2, 0.5, MU, 1, seed=0)
    b = sc.solve_bae(2, 0.5, MU, 1, seed=0)
    assert [s.system.roots for s in a] == [s.system.roots for s in b]


def test_tq_roots_invert_the_eigenvalue(sols42):
    # Lambda sampled on a circle determines Q, hence the roots mod i pi
    points = 0.07 + 0.45 * np.exp(2j * np.pi * np.arange(24) / 24)
    for sol in sols42:
        values = np.array([sol.eigenvalue_fn(p) for p in points])
        roots = sc.tq_roots(values, points, 4, 0.5, MU, 2)
        assert bethe._same_multiset(bethe._canonical(roots), np.asarray(sol.system.roots), 1e-8)


@pytest.mark.parametrize("N, s", [(4, 0.5), (2, 1.0)])
def test_mirrored_sectors_built_on_all_down_vacuum(N, s):
    ch = lax.uniform_chain("xxz", N, MU, round(2 * s + 1), "principal")
    fam = sc.transfer(ch)
    for lam in (0.233, 0.31 + 0.17j):
        tm = sc.mat(fam(lam))
        assert sc.rel_norm(tm[::-1, ::-1], tm) < 1e-12  # F t F = t
    tm = sc.mat(fam(0.233))
    report = sc.validate_against_ed(N, s, MU, M_range=[3, 4])
    assert [sec["M"] for sec in report["sectors"]] == [3, 4]
    for sec in report["sectors"]:
        assert sec["levels_matched"] == sec["dimension"]
        for rec in sec["solutions"]:
            assert rec["vacuum"] == "down"
            assert rec["sz"] == sec["sz"] == N * s - sec["M"]
            assert rec["M"] == round(2 * N * s) - sec["M"]
            system = sc.BetheSystem(N, s, MU, [complex(*z) for z in rec["roots"]], "down")
            vec = sc.bethe_vector(system, ch)
            val = sc.eigenvalue_fn(system)(0.233)
            assert np.linalg.norm(tm @ vec - val * vec) / np.linalg.norm(tm @ vec) < 1e-8


@pytest.mark.parametrize("n", range(2, 9))
def test_principal_lax_is_flip_symmetric(n):
    # the mirror of sectors M > N s relies on it for every mu: reversing the
    # row and column order of the site Lax matrix leaves it unchanged
    for mu in (MU, 0.3 + 0.2j, 1.1, 2.1 - 0.4j):
        ch = lax.uniform_chain("xxz", 1, mu, n, "principal")
        for lam in (0.233, 0.31 + 0.17j, -1.4 + 0.6j):
            (lmat,) = lax.site_lax_matrices(ch, lam)
            assert sc.rel_norm(lmat[::-1, ::-1], lmat) < 1e-12


def test_validation_independent_of_seed_and_threads(tmp_path, capsys):
    # coverage is fixed by the chain: no random start stream takes part
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 6, "s": 0.5, "mu": MU}))
    runs = []
    for seed, threads in ((0, 1), (1, 1), (0, 2), (1, 2), (0, 1)):
        cli.main(["bethe", "--config", str(cfg), "--seed", str(seed), "--threads", str(threads)])
        runs.append(json.loads(capsys.readouterr().out)["report"])
    for report in runs[1:]:
        assert report["coverage"] == runs[0]["coverage"]
        assert report["sectors"] == runs[0]["sectors"]


def test_zero_eigenvalue_levels_match():
    # at q = i the spin-1 vacua have Lambda = 0 at every probe; the match is
    # then judged on the scale of the transfer matrix, not of Lambda
    report = sc.validate_against_ed(3, 1.0, np.pi / 2)
    assert report["mismatched_solutions"] == 0
    assert report["coverage"][0] >= 2


@pytest.mark.parametrize("N, M, dimension", [(2, 2, 1), (4, 3, 4)])
def test_solve_bae_reports_each_state_once(N, M, dimension):
    # runaway root families build one state many times over
    sols = sc.solve_bae(N, 0.5, MU, M)
    assert 1 <= len(sols) <= dimension
    vecs = [sc.bethe_vector(sol.system) for sol in sols]
    for i, a in enumerate(vecs):
        for b in vecs[:i]:
            assert abs(np.vdot(a, b)) < 1 - 1e-8


def _replace_everywhere(monkeypatch, func, replacement):
    # a module that imported func by name holds its own reference to it
    for module in (lax, bethe):
        for name, value in list(vars(module).items()):
            if value is func:
                monkeypatch.setattr(module, name, replacement)


def test_bethe_vector_and_solve_bae_form_no_dense_transfer(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("a dense monodromy or transfer matrix was built")

    _replace_everywhere(monkeypatch, lax.monodromy_blocks, dense)
    _replace_everywhere(monkeypatch, lax.transfer, dense)
    for M in (2, 3):
        sols = sc.solve_bae(4, 0.5, MU, M)
        assert sols
        for sol in sols:
            assert np.isclose(np.linalg.norm(sc.bethe_vector(sol.system)), 1.0)


def test_solve_bae_memory_stays_far_below_one_dense_block():
    # at N = 10 one dense 1024 x 1024 complex monodromy block is 16 MiB
    tracemalloc.start()
    try:
        sols = sc.solve_bae(10, 0.5, MU, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sols and peak < 4 * 2**20


def test_validation_builds_transfer_matrices_only(monkeypatch):
    # K = 2 N n + 8 = 32 TQ points, tmat, teig and the 3 ED probes; the
    # Bethe vectors never build a dense monodromy
    calls = []
    inside = []
    blocks, vector = lax.monodromy_blocks, bethe.bethe_vector

    def counted_blocks(chain, lam):
        assert not inside, "bethe_vector built a dense monodromy"
        calls.append(lam)
        return blocks(chain, lam)

    def flagged_vector(*args):
        inside.append(True)
        try:
            return vector(*args)
        finally:
            inside.pop()

    _replace_everywhere(monkeypatch, blocks, counted_blocks)
    monkeypatch.setattr(bethe, "bethe_vector", flagged_vector)
    report = sc.validate_against_ed(6, 0.5, MU)
    assert report["total_solutions"] > 0
    assert len(calls) == 2 * 6 * 2 + 8 + 2 + 3


@pytest.mark.parametrize("N, s", [(2, 0.5), (4, 0.5), (5, 0.5), (2, 1.0)])
def test_solve_bae_mirrors_sectors_beyond_the_equator(N, s):
    # M > N s is solved as sector 2 N s - M on the all-down vacuum, so the
    # runaway root families of the direct search never appear
    top = round(2 * s) * N
    ch = lax.uniform_chain("xxz", N, MU, round(2 * s + 1), "principal")
    tm = sc.mat(sc.transfer(ch)(0.233))
    for M in range(top // 2 + 1, top + 1):
        sols = sc.solve_bae(N, s, MU, M)
        mirror = sc.solve_bae(N, s, MU, top - M)
        assert [sol.system.roots for sol in sols] == [sol.system.roots for sol in mirror]
        for sol in sols:
            assert sol.system.vacuum == "down" and sol.system.M == top - M
            assert sc.solution_record(sol)["sz"] == N * s - M
            vec = sc.bethe_vector(sol.system, ch)
            val = sol.eigenvalue_fn(0.233)
            assert np.linalg.norm(tm @ vec - val * vec) / np.linalg.norm(tm @ vec) < 1e-8
    (vacuum,) = sc.solve_bae(N, s, MU, top)
    assert vacuum.system.roots == () and vacuum.system.vacuum == "down"


def test_mirrored_states_pass_the_gate_again(monkeypatch):
    # both entry points re-gate a flipped vector: with the gate failing on
    # the all-down state only, the mirrored M = 2 sector of (2, 1/2) is empty
    assert len(sc.solve_bae(2, 0.5, MU, 2)) == 1
    gap = bethe._eigen_gap

    def fails_on_all_down(apply_t, vec, value):
        return 1.0 if abs(vec[-1]) > 0.5 else gap(apply_t, vec, value)

    monkeypatch.setattr(bethe, "_eigen_gap", fails_on_all_down)
    assert sc.solve_bae(2, 0.5, MU, 0) and sc.solve_bae(2, 0.5, MU, 2) == []
    (sector,) = sc.validate_against_ed(2, 0.5, MU, M_range=[2])["sectors"]
    assert sector["solutions"] == [] and sector["levels_matched"] == 0
