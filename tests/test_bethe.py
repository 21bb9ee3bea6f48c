"""Bethe-equation solver: roots, eigenvalue function, ED cross-validation."""

import cmath
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("s", [0.5, 1.0])
@pytest.mark.parametrize("M", [1, 2, 3])
def test_jacobian_is_the_derivative_of_the_equations(M, s):
    # the Newton Jacobian (f = coth) against a central difference of the
    # unwrapped log-form residual (f = log sinh), column by column
    lams = np.array([0.21 + 0.05j, -0.34 + 0.11j, 0.57 - 0.08j][:M])
    jac = bethe._residual_and_jacobian(lams, 4, s, MU)[1]
    h = 1e-6
    for k in range(M):
        step = h * np.eye(M)[k]
        up, down = (bethe._equations(lambda z: np.log(np.sinh(z)), lams + sign * step, 4, s, MU)[0]
                    for sign in (1, -1))
        assert np.abs((up - down) / (2 * h) - jac[:, k]).max() < 1e-7 * np.abs(jac).max()


def _one_root_set(f, lams, N, s, mu):
    """The equations of one root set and, with f = coth, their Jacobian, as
    written before the stacked table: f on each argument array alone and
    np.fill_diagonal on the (M, M) pair table, which is None below two roots."""
    drive = N * (f(lams + 1j * mu * s) - f(lams - 1j * mu * s))
    if lams.size < 2:
        return drive, np.diag(drive)
    diff = lams[:, None] - lams[None, :]
    pair = f(diff + 1j * mu) - f(diff - 1j * mu)
    np.fill_diagonal(pair, 0.0)
    eq = drive - pair.sum(axis=1)
    return eq, pair + np.diag(eq)


def _roots(M):
    part = st.floats(-1.2, 1.2, allow_nan=False)
    return st.lists(st.builds(complex, part, part), min_size=M, max_size=M)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(N=st.integers(2, 8), s=st.sampled_from([0.5, 1.0, 1.5]), mu=st.sampled_from([MU, 0.3j]),
       data=st.data())
def test_stacked_gate_is_each_candidate_alone_bit_for_bit(N, s, mu, data):
    # a stack of 1 to 6 root sets at real or imaginary mu, some polished onto
    # solutions by refine so that they skip Newton: each row's stacked residual is bae_residual of
    # its system, its stacked residual and Jacobian are those of the root
    # set alone, and each candidate the census makes of the rows is refine
    # of the row's system (M >= 8 sums the pair table pairwise)
    M = data.draw(st.integers(1, min(10, round(2 * s + 1) * N)), label="M")
    rows = data.draw(st.lists(_roots(M), min_size=1, max_size=6), label="rows")
    polish = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)), label="polish")
    systems = []
    for roots, solved in zip(rows, polish):
        try:
            system = sc.BetheSystem(N, s, mu, roots)
            systems.append(sc.refine(system) if solved else system)
        except ValueError:  # coincident roots, or Newton fails
            continue
    if not systems:
        return
    lams = np.array([system.roots for system in systems])
    residuals = bethe._residuals(systems)
    r, jac = bethe._residual_and_jacobian(lams, N, s, mu)
    with np.errstate(all="ignore"):
        for system, row, got, got_r, got_jac in zip(systems, lams, residuals, r, jac):
            eq = bethe._wrap(_one_root_set(lambda z: np.log(np.sinh(z)), row, N, s, mu)[0])
            want_jac = _one_root_set(lambda z: np.cosh(z) / np.sinh(z), row, N, s, mu)[1]
            assert got_r.tobytes() == eq.tobytes()
            assert got_jac.tobytes() == want_jac.tobytes()
            assert np.float64(got).tobytes() == np.abs(eq).max().tobytes()
            if not bethe._at_pole(system.roots, s, mu, 1e-12, False):
                assert np.float64(got).tobytes() == np.float64(sc.bae_residual(system)).tobytes()
    want = []
    for system in systems:
        try:
            want.append(sc.refine(system))
        except ValueError:
            continue
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bethe, "tq_roots", lambda *args: [np.array(system.roots) for system in systems])
        got = list(bethe._tq_candidates(None, None, N, s, mu, M))
    assert [system.roots for system in got] == [system.roots for system in want]


def test_one_root_jacobian_keeps_the_sign_of_a_zero():
    # below two roots the Jacobian is np.diag of the derivative alone, as the
    # one-root-set formula has it: at a root 0 and imaginary mu the derivative
    # has imaginary part -0.0, which 0.0 + x would turn into +0.0
    lams = np.zeros(1, dtype=complex)
    with np.errstate(all="ignore"):
        want = _one_root_set(lambda z: np.cosh(z) / np.sinh(z), lams, 3, 0.5, 0.3j)[1]
    assert np.signbit(want[0, 0].imag)
    assert bethe._residual_and_jacobian(lams, 3, 0.5, 0.3j)[1].tobytes() == want.tobytes()


@pytest.mark.parametrize("N, s, walks", [(6, 0.5, 14), (4, 0.5, 1), (2, 0.5, 0), (2, 1.0, 0)])
def test_only_candidates_above_the_stop_enter_newton(monkeypatch, N, s, walks):
    # the census's TQ roots that already solve the equations below 1e-13 skip
    # Newton (all 42 candidates of (6, 1/2) entered it before the stacked
    # gate); the coverage and the matches stay those of the criterion 6 chains
    entered, newton = [], bethe._newton

    def counted(starts, *args):
        entered.append(len(starts))
        return newton(starts, *args)

    monkeypatch.setattr(bethe, "_newton", counted)
    report = sc.validate_against_ed(N, s, MU)
    assert sum(entered) == walks
    assert report["coverage"] == {(6, 0.5): [60, 64], (4, 0.5): [15, 16], (2, 0.5): [4, 4],
                                  (2, 1.0): [9, 9]}[(N, s)]
    assert report["mismatched_solutions"] == 0


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


def test_refine_accepts_a_start_stalled_below_the_acceptance_bound():
    # TQ roots of an (8, 1/2, M = 3) level near a string solve the equations
    # to the rounding floor, where no line-search step descends any further
    start = sc.BetheSystem(8, 0.5, MU, (-0.09952007544876873 - 0.15008004151606844j,
                                        -0.180001521899253 + 3.247402347028583e-15j,
                                        -0.09952007544877059 + 0.15008004151606608j))
    assert sc.bae_residual(start) < bethe._ACCEPT
    ref = sc.refine(start)
    assert max(abs(np.asarray(ref.roots) - bethe._canonical(start.roots))) < 1e-9
    # and the level is a certified state of the sector
    assert any(max(abs(np.asarray(sol.system.roots) - np.asarray(ref.roots))) < 1e-9
               for sol in sc.solve_bae(8, 0.5, MU, 3))


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
    # imaginary mu (|Delta| > 1): the two-root sector holds the validated
    # census, one of its solutions the massive pair at Im = pi/2
    sols = sc.solve_bae(4, 0.5, 0.3j, 2)
    report = sc.validate_against_ed(4, 0.5, 0.3j, M_range=[2])
    assert len(sols) == len(report["sectors"][0]["solutions"])
    pair = None
    for sol in sols:
        re = sorted(z.real for z in sol.system.roots)
        im = [z.imag for z in sol.system.roots]
        if max(abs(v - np.pi / 2) for v in im) < 1e-6:
            pair = re
    assert pair is not None
    assert abs(pair[0] + 0.667161) < 1e-5 and abs(pair[1] - 0.667161) < 1e-5
    assert report["mismatched_solutions"] == 0


@pytest.mark.parametrize("N, s", [(6, 0.5), (4, 1.0)])
def test_solve_bae_equals_the_validated_census(N, s):
    # one solver: every sector's solve_bae returns exactly the states that
    # validation certifies there, compared by Lambda at the probes
    def lambdas(systems):
        return [np.array([sc.eigenvalue_fn(system)(p) for p in bethe._PROBES]) for system in systems]

    report = sc.validate_against_ed(N, s, MU)
    for sector in report["sectors"]:
        want = lambdas(sc.BetheSystem(N, s, MU, [complex(*z) for z in rec["roots"]],
                                      rec.get("vacuum", "up")) for rec in sector["solutions"])
        got = lambdas(sol.system for sol in sc.solve_bae(N, s, MU, sector["M"]))
        assert len(got) == len(want) > 0
        for lam in got:
            d = [np.abs(lam - w).max() / np.abs(w).max() for w in want]
            assert min(d) < 1e-9
            want.pop(int(np.argmin(d)))


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
    a = sc.solve_bae(2, 0.5, MU, 1)
    b = sc.solve_bae(2, 0.5, MU, 1)
    assert [s.system.roots for s in a] == [s.system.roots for s in b]


def test_tq_roots_invert_the_eigenvalue(sols42):
    # Lambda sampled on a circle determines Q, hence the roots mod i pi
    points = 0.07 + 0.45 * np.exp(2j * np.pi * np.arange(24) / 24)
    for sol in sols42:
        values = np.array([sol.eigenvalue_fn(p) for p in points])
        roots = sc.tq_roots(values, points, 4, 0.5, MU, 2)
        # order-free, and mod i pi, so that roots straddling the Im = pi/2
        # branch boundary still match
        want = list(sol.system.roots)
        assert len(roots) == len(want)
        for z in roots:
            d = [min(abs(z - w - 1j * np.pi * k) for k in (-1, 0, 1)) for w in want]
            assert min(d) < 1e-8
            want.pop(int(np.argmin(d)))


@pytest.mark.parametrize("run, top, probes",
                         [(lambda: sc.validate_against_ed(6, 0.5, MU), 3, len(bethe._PROBES)),
                          (lambda: sc.solve_bae(6, 0.5, MU, 5), 1, 0)],
                         ids=["validated", "M5-from-source-1"])
def test_tq_fit_samples_as_few_points_as_q_needs(monkeypatch, run, top, probes):
    # Lambda is sampled at M_src + _TQ_MARGIN points, M_src the largest source
    # sector, not at a count set by the chain; one sector-block pass per
    # point plus the eigenvector probe, and validation's one per ED probe
    fits, passes = [], []
    tq, blocks = bethe.tq_roots, bethe._sector_blocks

    def fit(values, points, *args):
        fits.append(len(points))
        return tq(values, points, *args)

    def block(chain, lam, sectors):
        passes.append(lam)
        return blocks(chain, lam, sectors)

    monkeypatch.setattr(bethe, "tq_roots", fit)
    monkeypatch.setattr(bethe, "_sector_blocks", block)
    run()
    K = top + bethe._TQ_MARGIN
    assert fits and set(fits) == {K}
    assert len(passes) == K + 1 + probes


@pytest.mark.parametrize("N, s", [(6, 0.5), (4, 1.0), (3, 1.5)])
def test_sector_blocks_equal_the_dense_transfer_slices(N, s):
    # the ED probes read t through `_sector_blocks`; every block is the
    # slice of the dense t bit for bit, so the oracle sees the same matrix
    n = round(2 * s + 1)
    ch = lax.uniform_chain("xxz", N, MU, n, "principal")
    sectors = {M: lax.sz_sector_indices(N, n, M) for M in range((n - 1) * N + 1)}
    for p in bethe._PROBES:
        dense = sc.transfer(ch)(p)
        for M, block in bethe._sector_blocks(ch, complex(p), sectors).items():
            assert np.array_equal(block, dense[np.ix_(sectors[M], sectors[M])])


def test_sector_blocks_hold_no_full_height_image():
    # one pass on the 924 unit columns of sector M = 6 of (12, 1/2) reads
    # only the sector rows: no 4096 x 924 complex image (57.8 MiB) is held
    ch = lax.uniform_chain("xxz", 12, MU, 2, "principal")
    tracemalloc.start()
    try:
        blocks = bethe._sector_blocks(ch, bethe._EIG_PROBE, {6: lax.sz_sector_indices(12, 2, 6)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocks[6].shape == (924, 924)
    assert peak < 4096 * 924 * 16, peak / 2**20


@pytest.mark.parametrize("N, s", [(6, 0.5), (4, 1.0)])
def test_stacked_tq_fit_equals_the_row_fit(monkeypatch, N, s):
    # every sector's (L, K) table, as the census hands it over, fitted in one
    # stacked call gives bit for bit the roots of L separate row fits
    calls, tq = [], bethe.tq_roots

    def recorded(values, points, *args):
        calls.append((values, points, args))
        return tq(values, points, *args)

    monkeypatch.setattr(bethe, "tq_roots", recorded)
    sc.validate_against_ed(N, s, MU)
    assert [args[-1] for _, _, args in calls] == list(range(round(2 * s) * N // 2 + 1))
    for values, points, args in calls:
        stacked = tq(values, points, *args)
        rows = [tq(row, points, *args) for row in values]
        assert len(stacked) == len(rows) == len(values)
        for got, want in zip(stacked, rows):
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got, want)


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


@pytest.mark.parametrize("N, s, floor", [(4, 0.5, 15), (6, 0.5, 60), (8, 0.5, 239), (4, 1.0, 77),
                                         (5, 1.0, 236), (3, 1.5, 64)])
def test_coverage_floors_with_nothing_mismatched(N, s, floor):
    # the current coverage; levels whose eigen-gap sits within a few times
    # the gate bound are lost first when the order of operations changes
    report = sc.validate_against_ed(N, s, MU)
    assert report["coverage"][0] >= floor
    assert report["mismatched_solutions"] == 0


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

    apply = lax.apply_transfer

    def columns_only(chain, lam, vec):
        # vec None is the dense t on every unit column
        if vec is None:
            dense()
        return apply(chain, lam, vec)

    _replace_everywhere(monkeypatch, lax.monodromy_blocks, dense)
    _replace_everywhere(monkeypatch, lax.transfer, dense)
    _replace_everywhere(monkeypatch, apply, columns_only)
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
    # no dense t (vec None, the route of lax.transfer) at all: the ED probes
    # and the TQ points read t's sector blocks off unit columns, the
    # eigen-gap gate and the Bethe vectors apply t to vectors, and nothing
    # builds a dense monodromy
    calls = []
    inside = []
    apply, vector = lax.apply_transfer, bethe.bethe_vector

    def no_monodromy(*args):
        raise AssertionError("a dense monodromy was built")

    def counted_apply(chain, lam, vec):
        if vec is None:
            assert not inside, "bethe_vector built a dense transfer matrix"
            calls.append(lam)
        return apply(chain, lam, vec)

    def flagged_vector(*args):
        inside.append(True)
        try:
            return vector(*args)
        finally:
            inside.pop()

    _replace_everywhere(monkeypatch, lax.monodromy_blocks, no_monodromy)
    _replace_everywhere(monkeypatch, apply, counted_apply)
    monkeypatch.setattr(bethe, "bethe_vector", flagged_vector)
    report = sc.validate_against_ed(6, 0.5, MU)
    assert report["total_solutions"] > 0
    assert len(calls) == 0


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


@pytest.mark.parametrize("N, s", [(6, 0.5), (4, 1.0)])
def test_batched_gate_matches_the_dense_transfer(monkeypatch, N, s):
    # every candidate vector of the census, flipped ones included: the gap
    # of the batched matrix-free gate is |t v - Lambda v| / |t v| with a
    # dense t, and passes or fails the gate with it
    calls, gaps = [], bethe._gaps

    def recorded(chain, sols, vecs):
        out = gaps(chain, sols, vecs)
        calls.append((sols, vecs, out))
        return out

    monkeypatch.setattr(bethe, "_gaps", recorded)
    chain = lax.uniform_chain("xxz", N, MU, round(2 * s + 1), "principal")
    bethe._census(chain, s, MU, range(round(2 * s) * N + 1))
    tm = lax.transfer(chain)(bethe._GAP_PROBE)
    checked = []
    for sols, vecs, batched in calls:
        for sol, vec, gap in zip(sols, vecs.T, batched):
            tv = tm @ vec
            dense = np.linalg.norm(tv - sol.eigenvalue_fn(bethe._GAP_PROBE) * vec) / np.linalg.norm(tv)
            assert abs(gap - dense) < 1e-12
            assert (gap < bethe._GAP) == (dense < bethe._GAP)
            checked.append(sol.system.vacuum)
    assert checked.count("up") > 0 and checked.count("down") > 0


def test_both_entry_points_refuse_chains_above_the_cap():
    with pytest.raises(ValueError):
        sc.solve_bae(13, 0.5, MU, 1)
    with pytest.raises(ValueError):
        sc.validate_against_ed(13, 0.5, MU, M_range=[1])


@pytest.mark.parametrize("M_range", [[], [99]], ids=["empty", "past-2Ns"])
def test_validation_refuses_a_range_without_sectors(M_range):
    # refused by name before the census, not by numpy's concatenate
    with pytest.raises(ValueError, match="M_range holds no sector"):
        sc.validate_against_ed(4, 0.5, MU, M_range=M_range)


def test_mirrored_states_pass_the_gate_again(monkeypatch):
    # both entry points re-gate a flipped vector: with the gate failing on
    # the all-down state only, the mirrored M = 2 sector of (2, 1/2) is empty
    assert len(sc.solve_bae(2, 0.5, MU, 2)) == 1
    gaps = bethe._gaps

    def fails_on_all_down(chain, sols, vecs):
        return np.where(abs(vecs[-1]) > 0.5, 1.0, gaps(chain, sols, vecs))

    monkeypatch.setattr(bethe, "_gaps", fails_on_all_down)
    assert sc.solve_bae(2, 0.5, MU, 0) and sc.solve_bae(2, 0.5, MU, 2) == []
    (sector,) = sc.validate_against_ed(2, 0.5, MU, M_range=[2])["sectors"]
    assert sector["solutions"] == [] and sector["levels_matched"] == 0


def test_certifier_rejects_at_every_gate():
    # systems built as `refine` would hand them over, each failing one gate:
    # a site pole at i mu s, a runaway root, a pair pole at a - b = -i mu, the
    # equations (residual 2.45); the solved system, given twice, comes back once
    chain = lax.uniform_chain("xxz", 4, MU, 2, "principal")
    failing = [sc.BetheSystem(4, 0.5, MU, roots)
               for roots in [(0.15j,), (60,), (0.1, 0.1 + 0.3j), (0.3,)]]
    assert [bethe._passes_pole_gates(np.asarray(sys_.roots), 0.5, MU) for sys_ in failing] == [
        False, False, False, True]
    assert sc.bae_residual(failing[-1]) > bethe._ACCEPT
    good = sc.solve_bae(4, 0.5, MU, 1)[0].system
    sols, vecs = bethe._certified(failing + [good, good], chain)
    assert [sol.system for sol in sols] == [good] and vecs.shape == (16, 1)
    # on one site B B|up> = 0: the Bethe vector vanishes on the second root
    with pytest.raises(ValueError, match="vanished"):
        sc.bethe_vector(sc.BetheSystem(1, 0.5, MU, (0.2, -0.3)))


def test_gap_gate_holds_two_stacks():
    # the gate takes the stack of 2,000 vectors at N = 8 as it is and adds
    # two stacks: their image under t and one temporary (Lambda v, then the
    # norm's), so its memory stays well below the bound, and the gaps are
    # those of the out-of-place formula bit for bit
    class Stub:
        def __init__(self, value):
            self.eigenvalue_fn = lambda lam: value

    chain = lax.uniform_chain("xxz", 8, MU, 2, "principal")
    rng = np.random.default_rng(0)
    sols, cols = [], []
    for _ in range(2000):
        vec = rng.normal(size=256) + 1j * rng.normal(size=256)
        cols.append(vec / np.linalg.norm(vec))
        sols.append(Stub(complex(*rng.normal(size=2))))
    vecs = np.stack(cols, axis=1)
    values = np.array([sol.eigenvalue_fn(bethe._GAP_PROBE) for sol in sols])
    tv = lax.apply_transfer(chain, bethe._GAP_PROBE, vecs)
    reference = np.linalg.norm(tv - values * vecs, axis=0) / np.linalg.norm(tv, axis=0)
    del cols, tv
    tracemalloc.start()
    try:
        gaps = bethe._gaps(chain, sols, vecs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(gaps, reference)
    assert peak < 3.5 * 256 * 2000 * 16, peak / (256 * 2000 * 16)


# the (6, 1) level at the eigen-gap gate: its gap sits between 3.5e-9 and
# 2.1e-8 against the 1e-8 bound as the last bits of its roots move
KNIFE_EDGE = (-0.2265, 0.0438, 0.0438 - 0.3j, 0.0438 + 0.3j, 0.0475 - 0.6246j, 0.0475 + 0.6246j)


def _one_at_a_time(chain, system):
    """B...B|0> as built before the stacked build: one single-column T[0][1]
    product per root, each followed by division by np.linalg.norm."""
    vec = np.zeros(np.prod(chain.local_dims), dtype=complex)
    vec[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lam in system.roots:
            vec = lax.apply_monodromy_block(chain, lam - 0.5j * system.mu, 0, 1, vec)
            vec = vec / float(np.linalg.norm(vec))
    return vec if system.vacuum == "up" else vec[::-1]


def _census_calls(N, s):
    """The chain and the candidate lists that one census of (N, s) hands
    to `_certified`, one per source sector."""
    calls, certified = [], bethe._certified

    def recording(candidates, chain):
        calls.append(candidates)
        return certified(candidates, chain)

    n = round(2 * s + 1)
    chain = lax.uniform_chain("xxz", N, MU, n, "principal")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bethe, "_certified", recording)
        bethe._census(chain, s, MU, range((n - 1) * N // 2 + 1))
    return chain, calls


def _certify_in(chain, calls, chunk):
    """(rows, roots, gaps) of `_certified` on each candidate list, with the
    Bethe vectors built one system per call (chunk None) or in chunks of
    chunk systems (0: all in one): every candidate's vector, the certified
    root sets, and the eigen-gap of every built solution by its roots."""
    build, gaps = bethe._bethe_rows, bethe._gaps
    D = int(np.prod(chain.local_dims))
    rows, by_roots = [], {}

    def chunked(chain, systems):
        if chunk is None:
            parts = [build(chain, [system]) for system in systems] or [build(chain, [])]
            out = np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
        else:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sc.linalg, "BLOCK_ENTRIES", 2 * D * (chunk or max(1, len(systems))))
                out = build(chain, systems)
        rows.append(out[0])
        return out

    def recorded(chain, sols, vecs):
        out = gaps(chain, sols, vecs)
        by_roots.update((sol.system.roots, gap) for sol, gap in zip(sols, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bethe, "_bethe_rows", chunked)
        mp.setattr(bethe, "_gaps", recorded)
        roots = [[sol.system.roots for sol in bethe._certified(candidates, chain)[0]]
                 for candidates in calls]
    return rows, roots, by_roots


@pytest.mark.parametrize("N, s", [(4, 0.5), (6, 0.5), (4, 1.0), (3, 1.5), (6, 1.0)])
def test_stacked_build_is_the_one_at_a_time_build_bit_for_bit(N, s):
    # every candidate's Bethe vector and every certified root set are the
    # same bytes built one system at a time, all at once, or in chunks of 1
    # to 3 systems; a chunk's stacked kernel pass multiplies slice by slice
    chain, calls = _census_calls(N, s)
    rows, roots, gaps = _certify_in(chain, calls, 0)
    assert sum(map(len, roots)) > 0
    knife = [key for key in gaps if len(key) == 6 and np.allclose(key, KNIFE_EDGE, atol=1e-4)]
    assert len(knife) == (1 if (N, s) == (6, 1.0) else 0)
    for chunk in (None, 1, 2, 3):
        got_rows, got_roots, got_gaps = _certify_in(chain, calls, chunk)
        assert got_roots == roots
        assert all(np.array_equal(a.view(float), b.view(float)) for a, b in zip(got_rows, rows))
        assert list(got_gaps.items()) == list(gaps.items())
        # the knife-edge level's gap, which decides whether it is certified
        assert [got_gaps[key] for key in knife] == [gaps[key] for key in knife]
    # bethe_vector is the one-system build
    for candidates, built in zip(calls, rows):
        systems = [system for system in candidates
                   if bethe._passes_pole_gates(np.asarray(system.roots), s, MU)
                   and sc.bae_residual(system) < bethe._ACCEPT]
        assert len(systems) == len(built)
        for system, row in zip(systems, built):
            vec = sc.bethe_vector(system, chain)
            assert np.array_equal(vec.view(float), row.view(float))
            assert np.array_equal(vec.view(float), _one_at_a_time(chain, system).view(float))
    assert all(1e-9 < gaps[key] < 1e-7 for key in knife)


@pytest.mark.parametrize("N, s", [(6, 0.5), (4, 1.0)])
def test_stacked_tq_zeros_are_np_roots_on_the_census_tables(N, s, monkeypatch):
    # the census's own Q polynomials, every level through the stacked
    # eigenvalue call, against np.roots level by level
    seen, zeros = [], bethe._poly_zeros

    def recorded(polys):
        seen.append(polys.copy())
        return zeros(polys)

    monkeypatch.setattr(bethe, "_poly_zeros", recorded)
    sc.validate_against_ed(N, s, MU)
    assert sum(len(polys) for polys in seen) > 10
    for polys in seen:
        assert polys[:, [0, -1]].all()
        for got, coeffs in zip(zeros(polys), polys):
            assert np.array_equal(got.view(float), np.roots(coeffs).view(float))


def test_tq_roots_zeros_are_np_roots_and_trimmed_levels_get_none(monkeypatch):
    # a random table of Q polynomials through the stacked eigenvalue call,
    # then through tq_roots as its SVD null vectors, against the per-level
    # np.roots formula bit for bit; an exact 0 leading coefficient (np.roots
    # drops it, leaving M - 1 zeros) or trailing one (np.roots adds a 0
    # zero) gives None
    L, M = 40, 6
    rng = np.random.default_rng(3)
    polys = rng.normal(size=(L, M + 1)) + 1j * rng.normal(size=(L, M + 1))
    for got, coeffs in zip(bethe._poly_zeros(polys), polys):
        assert np.array_equal(got.view(float), np.roots(coeffs).view(float))
    polys[5, 0] = 0.0
    polys[9, -1] = 0.0
    assert np.roots(polys[5]).size == M - 1 and np.roots(polys[9])[-1] == 0
    want = []
    for coeffs in polys:
        zeros = np.roots(coeffs)
        ok = zeros.size == M and not np.abs(zeros).min() < 1e-300
        want.append(0.5 * np.log(zeros) + 0.5j * MU if ok else None)
    # the SVD's last right singular vectors hold the coefficients, lowest
    # power first and conjugated
    null = np.zeros((L, M + 1, M + 1), dtype=complex)
    null[:, -1] = polys[:, ::-1].conj()
    monkeypatch.setattr(np.linalg, "svd", lambda system: (None, None, null))
    got = sc.tq_roots(np.ones((L, M + 2)), 0.1 * np.arange(M + 2), 4, 0.5, MU, M)
    assert [g is None for g in got] == [i in (5, 9) for i in range(L)]
    assert all(g is None or np.array_equal(g.view(float), w.view(float)) for g, w in zip(got, want))


def test_stacked_build_memory_stays_at_two_blocks():
    # 64 candidates at N = 12 (D = 4096) in chunks: beside the rows, one
    # chunk's state and the kernel's spare state, together BLOCK_ENTRIES entries
    chain = lax.uniform_chain("xxz", 12, MU, 2, "principal")
    rng = np.random.default_rng(12)
    systems = [sc.BetheSystem(12, 0.5, MU, tuple(rng.normal(size=2) + 0.2j * rng.normal(size=2)))
               for _ in range(64)]
    rows_bytes = 64 * 4096 * 16
    bethe._bethe_rows(chain, systems[:1])  # first-call caches stay out of the count
    tracemalloc.start()
    try:
        rows, built = bethe._bethe_rows(chain, systems)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built.all() and rows.shape == (64, 4096)
    assert peak < rows_bytes + sc.linalg.BLOCK_ENTRIES * 16 + 2**16, peak - rows_bytes
