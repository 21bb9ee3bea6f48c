"""Acceptance gate: twelve numbered criteria, one visible line each.

Run with `pytest tests/test_acceptance.py -s` (or plain pytest; the lines
print through capture) to see the per-criterion PASS/FAIL summary.
"""

import cmath
import json
import time

import numpy as np
import pytest

import spinchain as sc
from spinchain import cli, lax

MU = 0.3


def _report(capsys, num: int, ok: bool, detail: str = ""):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num}: {detail}"


def _pairs(count: int, seed: int):
    rng = np.random.default_rng(seed)
    box = rng.uniform(-1.4, 1.4, size=(count, 4))
    pairs = [(complex(a, b), complex(c, d)) for a, b, c, d in box]
    assert all(abs(l1) <= 2 and abs(l2) <= 2 for l1, l2 in pairs)
    return pairs


def test_criterion_01_yang_baxter(capsys):
    start = time.monotonic()
    draws = _pairs(20, seed=101)
    worst = 0.0
    for l1, l2 in draws:
        worst = max(worst, sc.ybe_residual(sc.xxx_family(), l1, l2))
        for mu in (0.3, 0.3 + 0.1j):
            for grad in ("principal", "homogeneous"):
                worst = max(worst, sc.ybe_residual(sc.xxz_family(mu, grad), l1, l2))
    elapsed = time.monotonic() - start
    ok = worst < 1e-11 and elapsed < 1.0
    _report(capsys, 1, ok, f"YBE worst residual {worst:.2e} over 20 pairs, {elapsed:.2f}s")


def test_criterion_02_two_site_spectrum(capsys, tmp_path):
    worst = 0.0
    for delta in (-2.0, 0.5, 1.0, 3.0):
        energies = sorted(rec["energy"] for rec in sc.spectrum_table(2, delta))
        want = sorted([-delta, -delta, delta - 2, delta + 2])
        worst = max(worst, float(np.abs(np.asarray(energies) - want).max()))
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"N": 2, "deltas": [0.5, 1.0, 3.0]}))
    out = tmp_path / "scan.csv"
    code = cli.main(["phase-scan", "--config", str(cfg), "--out", str(out)])
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    degeneracies = [int(r[2]) for r in rows]
    ok = worst < 1e-12 and code == 0 and degeneracies == [1, 3, 2]
    _report(
        capsys, 2, ok,
        f"two-site levels off by {worst:.2e}; phase-scan degeneracy {degeneracies}",
    )


def test_criterion_03_commuting_families(capsys):
    start = time.monotonic()
    draws = _pairs(10, seed=103)
    periodic = sc.transfer(lax.uniform_chain("xxz", 6, MU, 2, "principal"))
    open_fam = sc.open_transfer(
        sc.open_chain("xxz", 4, MU, 2, "homogeneous", sc.k_gz_dvgr(0.5, 0.27, "homogeneous"))
    )
    worst = 0.0
    for l1, l2 in draws:
        worst = max(worst, sc.comm_norm(sc.mat(periodic(l1)), sc.mat(periodic(l2))))
        worst = max(worst, sc.comm_norm(sc.mat(open_fam(l1)), sc.mat(open_fam(l2))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 30.0
    _report(
        capsys, 3, ok,
        f"commutators (N=6 periodic, N=4 open) worst {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_hamiltonian_extraction(capsys):
    ch = lax.uniform_chain("xxz", 4, MU, 2, "principal")
    h_sum = sc.mat(sc.hamiltonian_from_transfer(ch))
    h_log = cmath.sinh(1j * MU) * sc.mat(sc.transfer_log_derivative(ch))
    route_gap = sc.rel_norm(h_sum, h_log)
    display = sc.mat(sc.xxz_hamiltonian(4, np.cos(MU)))
    coef, resid = sc.fit_affine(display, [h_sum, np.eye(16)])
    chx = lax.uniform_chain("xxx", 4)
    hx = sc.mat(sc.hamiltonian_from_transfer(chx))
    p = sc.mat(sc.permutation(2))
    dims = (2,) * 4
    explicit = sum(sc.linalg.embed_pair(p, i, dims) for i in (1, 2, 3))
    explicit = explicit + sc.linalg.embed_wrap_pair(p, dims)
    xxx_gap = float(np.abs(hx - explicit).max())
    ok = route_gap < 1e-8 and resid < 1e-8 and xxx_gap < 1e-10
    _report(
        capsys, 4, ok,
        f"routes agree to {route_gap:.2e}; fit (scale, shift) = "
        f"({coef[0]:.6f}, {coef[1]:.6f}), residual {resid:.2e}; "
        f"XXX sum-of-permutations off by {xxx_gap:.2e}",
    )


def test_criterion_05_momentum_operator(capsys):
    worst_entry = worst_power = worst_comm = 0.0
    for N in (2, 3, 4):
        ch = lax.uniform_chain("xxz", N, MU, 2, "principal")
        pi_op = sc.mat(sc.momentum_operator(ch))
        shift = sc.mat(sc.cyclic_shift_matrix((2,) * N))
        worst_entry = max(worst_entry, float(np.abs(pi_op - shift).max()))
        power = np.linalg.matrix_power(pi_op, N)
        worst_power = max(worst_power, float(np.abs(power - np.eye(2**N)).max()))
        h = sc.mat(sc.hamiltonian_from_transfer(ch))
        worst_comm = max(worst_comm, sc.comm_norm(pi_op, h))
    ok = worst_entry < 1e-12 and worst_power < 1e-11 and worst_comm < 1e-11
    _report(
        capsys, 5, ok,
        f"shift entries off by {worst_entry:.2e}; Pi^N - I {worst_power:.2e}; "
        f"[Pi, H] {worst_comm:.2e}",
    )


def test_criterion_06_bethe_cross_validation(capsys):
    start = time.monotonic()
    summary = []
    ok = True
    floors = {(2, 0.5): 4, (4, 0.5): 13, (6, 0.5): 31, (2, 1.0): 8}
    for N, s in ((2, 0.5), (4, 0.5), (6, 0.5), (2, 1.0)):
        report = sc.validate_against_ed(N, s, MU)
        mismatched = report["mismatched_solutions"]
        ok = ok and mismatched == 0 and report["coverage"][0] >= floors[(N, s)]
        for sector in report["sectors"]:
            ok = ok and sector["sz"] == N * s - sector["M"]
        summary.append(
            f"({N},{s}): {report['coverage'][0]}/{report['coverage'][1]} levels, "
            f"{mismatched} mismatched"
        )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    _report(capsys, 6, ok, "; ".join(summary) + f"; {elapsed:.0f}s")


def test_criterion_07_algebra_suites(capsys):
    q = cmath.exp(1j * MU)
    Qb = 1j * cmath.exp(1j * MU * 0.7)
    residuals = {}
    residuals["sl2"] = max(
        max(sc.check_relations(sc.sl2_spin_rep(n)).values()) for n in (2, 3)
    )
    residuals["uq_sl2"] = max(
        max(sc.check_relations(sc.uq_sl2_spin_rep(n, q)).values()) for n in (2, 3)
    )
    hecke = sc.hecke_rep(2, 4, q)
    residuals["hecke"] = max(sc.check_braid_hecke(hecke).values())
    residuals["temperley_lieb"] = max(sc.check_temperley_lieb(hecke).values())
    blob = sc.blob_rep(3, q, Qb, 1.0)
    residuals["blob"] = max(
        max(sc.check_temperley_lieb(blob).values()),
        max(sc.check_btype_quotients(blob).values()),
    )
    residuals["cyclic"] = max(sc.check_relations(sc.cyclic_rep(5)).values())
    residuals["q_oscillator"] = max(sc.check_relations(sc.q_oscillator_rep(5)).values())
    worst = max(residuals.values())
    ok = worst < 1e-10
    _report(
        capsys, 7, ok,
        "algebra residuals " + ", ".join(f"{k} {v:.1e}" for k, v in residuals.items()),
    )


def test_criterion_08_reflection_suite(capsys):
    draws = _pairs(20, seed=108)
    fams = {
        "h": sc.xxz_family(MU, "homogeneous"),
        "p": sc.xxz_family(MU, "principal"),
    }
    cases = [
        (fams["h"], sc.k_identity()),
        (fams["p"], sc.k_identity()),
        (fams["h"], sc.k_gz_dvgr(0.5, 0.27, "homogeneous")),
        (fams["p"], sc.k_gz_dvgr(0.5, 0.27, "principal")),
    ]
    worst_c = 0.0
    for rfam, kfam in cases:
        for l1, l2 in draws:
            worst_c = max(worst_c, sc.re_residual(rfam, kfam, l1, l2))
    worst_d = 0.0
    for n in (2, 3):
        rep = sc.uq_sl2_spin_rep(n, cmath.exp(1j * MU))
        lx = sc.lax_xxz(rep, "principal", MU)
        dk = lambda lam, lx=lx: sc.dressed_k(lx, sc.k_identity(), lam)
        for l1, l2 in draws[:5]:
            worst_d = max(worst_d, sc.re_residual(fams["p"], dk, l1, l2))
    ok = worst_c < 1e-10 and worst_d < 1e-10
    _report(
        capsys, 8, ok,
        f"c-number RE worst {worst_c:.2e} (20 pairs); dressed operatorial RE "
        f"worst {worst_d:.2e} (spin-1/2 and spin-1)",
    )


def test_criterion_09_open_symmetry(capsys):
    rng = np.random.default_rng(109)
    ch = sc.open_chain("xxz", 3, MU, 2, "homogeneous", sc.k_identity())
    fam = sc.open_transfer(ch)
    cop = sc.ncoproduct(sc.uq_sl2_spin_rep(2, cmath.exp(1j * MU)), 3)
    worst = 0.0
    for lam in rng.uniform(-1.0, 1.0, 5):
        tm = sc.mat(fam(float(lam)))
        for label in ("Jp", "Jm", "qJz"):
            worst = max(worst, sc.comm_norm(tm, cop.gen(label)))
    h = sc.mat(sc.open_hamiltonian(ch))
    model = sc.mat(sc.uq_invariant_hamiltonian(3, MU))
    coef, resid = sc.fit_affine(h, [model, np.eye(8)])
    ok = worst < 1e-10 and resid < 1e-8
    _report(
        capsys, 9, ok,
        f"[t, Delta(X)] worst {worst:.2e} at 5 points; invariant-form fit "
        f"residual {resid:.2e} with (scale, shift) = ({coef[0]:.6f}, {coef[1]:.6f})",
    )


def test_criterion_10_casimir(capsys):
    q = cmath.exp(1j * MU)
    worst_comm = worst_scalar = worst_prop = 0.0
    for n in (2, 3):
        rep = sc.uq_sl2_spin_rep(n, q)
        cas = sc.mat(sc.casimir_uq(rep))
        worst_comm = max(
            worst_comm, max(sc.comm_norm(cas, rep.gen(g)) for g in ("Jp", "Jm", "qJz"))
        )
        scalar = np.trace(cas) / n
        worst_scalar = max(worst_scalar, sc.rel_norm(cas, scalar * np.eye(n)))
        t_plus, _ = sc.casimir_from_asymptotics(rep)
        tp = sc.mat(t_plus)
        coef = np.vdot(cas, tp) / np.vdot(cas, cas)
        worst_prop = max(worst_prop, sc.rel_norm(tp, coef * cas))
    ok = worst_comm < 1e-10 and worst_scalar < 1e-10 and worst_prop < 1e-9
    _report(
        capsys, 10, ok,
        f"commutators {worst_comm:.2e}; scalar defect {worst_scalar:.2e}; "
        f"asymptotic proportionality {worst_prop:.2e}",
    )


def test_criterion_11_yangian(capsys):
    ch = lax.uniform_chain("xxx", 3)
    q0, q1 = sc.yangian_charges(ch)
    delta = np.eye(2)
    worst00 = worst01 = 0.0
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    comm0 = sc.mat(q0[a][b]) @ sc.mat(q0[c][d]) - sc.mat(q0[c][d]) @ sc.mat(q0[a][b])
                    rhs0 = 1j * delta[c][b] * sc.mat(q0[a][d]) - 1j * delta[a][d] * sc.mat(q0[c][b])
                    worst00 = max(worst00, float(np.abs(comm0 - rhs0).max()))
                    comm1 = sc.mat(q0[a][b]) @ sc.mat(q1[c][d]) - sc.mat(q1[c][d]) @ sc.mat(q0[a][b])
                    rhs1 = 1j * delta[c][b] * sc.mat(q1[a][d]) - 1j * delta[a][d] * sc.mat(q1[c][b])
                    worst01 = max(worst01, float(np.abs(comm1 - rhs1).max()))
    ch2 = lax.uniform_chain("xxx", 2)
    coeffs = sc.polynomial_matrix_coefficients(lambda x: sc.mat(sc.monodromy(ch2, x)), 2)
    blk = lax.p_blocks(ch2.site_reps[0])
    p_embedded = [
        [[sc.mat(sc.embed(blk[a][b], site, (2, 2))) for b in range(2)] for a in range(2)]
        for site in (1, 2)
    ]

    def auxfull(x, scale):
        out = np.zeros((8, 8), dtype=complex)
        for a in range(2):
            for b in range(2):
                e = np.zeros((2, 2))
                e[a, b] = 1
                out += scale * np.kron(e, x[a][b])
        return out

    p1, p2 = p_embedded
    gap2 = float(np.abs(coeffs[2] - np.eye(8)).max())
    lin = auxfull([[p1[a][b] + p2[a][b] for b in range(2)] for a in range(2)], 1j)
    gap1 = float(np.abs(coeffs[1] - lin).max())
    prod = [[sum(p2[a][c] @ p1[c][b] for c in range(2)) for b in range(2)] for a in range(2)]
    gap0 = float(np.abs(coeffs[0] - auxfull(prod, -1.0)).max())
    worst_coef = max(gap2, gap1, gap0)
    ok = worst00 < 1e-10 and worst01 < 1e-10 and worst_coef < 1e-10
    _report(
        capsys, 11, ok,
        f"relations (0,0) {worst00:.2e}, (0,1) {worst01:.2e}; N=2 expansion "
        f"coefficients off by {worst_coef:.2e}",
    )


def test_criterion_12_four_site_ground_state(capsys):
    worst = 1.0
    for delta in (0.0, -0.5, 0.9):
        h = sc.mat(sc.xxz_hamiltonian(4, delta))
        evals, evecs = np.linalg.eigh((h + h.conj().T) / 2)
        ground = evecs[:, 0]
        c = (-delta + np.sqrt(delta**2 + 8)) / 2
        phi = np.zeros(16)
        # up = 0, down = 1, site 1 most significant
        for idx in (0b0011, 0b0110, 0b1100, 0b1001):
            phi[idx] = 1.0
        for idx in (0b0101, 0b1010):
            phi[idx] = c
        phi = phi / np.linalg.norm(phi)
        worst = min(worst, float(abs(phi @ ground)))
    ok = worst >= 1 - 1e-8
    _report(capsys, 12, ok, f"minimum ground-state overlap {worst:.12f}")
