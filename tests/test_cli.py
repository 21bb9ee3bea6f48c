"""End-to-end CLI behavior: exit codes, schemas, formats, determinism."""

import cmath
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spinchain import algebra, bethe, boundary, cli, lax, linalg, rmatrix


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_ybe_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"suite": "ybe", "mu": 0.3, "pairs": 6})
    code, out, _ = run(capsys, ["verify", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "v1"
    assert payload["command"] == "verify"
    assert payload["status"] == "ok"
    assert payload["checks"] and all(c["pass"] for c in payload["checks"])
    names = [c["identity"] for c in payload["checks"]]
    assert any("gauge transform" in n for n in names)
    assert any("intertwiner" in n for n in names)


def test_verify_ybe_rational_model(tmp_path, capsys):
    # the xxx model runs the rational checks only
    cfg = write_cfg(tmp_path, {"suite": "ybe", "model": "xxx", "pairs": 4})
    code, out, _ = run(capsys, ["verify", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert [c["identity"] for c in payload["checks"]] == [
        "Yang-Baxter: xxx rational R", "regularity R(0) = c P: xxx rational R"]


def test_verify_perturbation_fails(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"suite": "ybe", "mu": 0.3, "pairs": 4, "perturb": 1e-4})
    code, out, _ = run(capsys, ["verify", "--config", cfg])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert any(not c["pass"] for c in payload["checks"])


def test_verify_re_and_braid_and_frt_and_symmetry(tmp_path, capsys):
    for suite, extra in (
        ("re", {"pairs": 4}),
        ("braid", {}),
        ("frt", {"pairs": 3}),
        ("symmetry", {}),
    ):
        cfg = write_cfg(tmp_path, {"suite": suite, "mu": 0.3, **extra}, f"{suite}.json")
        code, out, _ = run(capsys, ["verify", "--config", cfg])
        payload = json.loads(out)
        assert code == 0, f"{suite}: {[c for c in payload['checks'] if not c['pass']]}"
        assert payload["status"] == "ok"


# Per-draw references: each draw's identity as one 2-D computation, the way
# the suites checked it before the residuals took whole draw lists.

def _three_sites(m, sites):
    n = round(np.shape(m)[0] ** 0.5)
    return linalg.embed(m, sites, (n, n, n))


def _ybe_reference(fam, l1, l2):
    r12, r13, r23 = _three_sites(fam(l1 - l2), (1, 2)), _three_sites(fam(l1), (1, 3)), \
        _three_sites(fam(l2), (2, 3))
    return linalg.rel_norm(r12 @ r13 @ r23, r23 @ r13 @ r12)


def _braided_reference(fam, l1, l2):
    lhs = _three_sites(fam(l1 - l2), (1, 2)) @ _three_sites(fam(l1), (2, 3)) \
        @ _three_sites(fam(l2), (1, 2))
    rhs = _three_sites(fam(l2), (2, 3)) @ _three_sites(fam(l1), (1, 2)) \
        @ _three_sites(fam(l1 - l2), (2, 3))
    return linalg.rel_norm(lhs, rhs)


def _intertwiner_reference(fam, rep, lam):
    m = linalg.mat(fam(lam))
    p = linalg.permutation(rep.gen("Jz").shape[0])
    cop = algebra.coproduct_uq(rep, rep)
    worst = 0.0
    for label in ("qJz", "Jp", "Jm"):
        d = cop.gen(label)
        worst = max(worst, linalg.rel_norm((p @ d @ p) @ m, m @ d))
        worst = max(worst, linalg.comm_norm(p @ m, d))
    return worst


def _gauge_reference(mu, eps, lam):
    conj = linalg.embed(rmatrix.gauge_v(-lam), 1, (2, 2)) @ rmatrix.r_xxz(lam, mu, "homogeneous") \
        @ linalg.embed(rmatrix.gauge_v(lam), 1, (2, 2))
    if eps:
        conj[0, 1] += eps
    return linalg.rel_norm(rmatrix.r_xxz(lam, mu, "principal"), conj)


def _rll_reference(rfam, lx, l1, l2):
    r = rfam(l1 - l2)
    na = round(np.shape(r)[0] ** 0.5)
    a, b = linalg.mat(lx(l1)), linalg.mat(lx(l2))
    dims = (na, na, a.shape[0] // na)
    r12 = linalg.embed(r, (1, 2), dims)
    a, b = linalg.embed(a, (1, 3), dims), linalg.embed(b, (2, 3), dims)
    return linalg.rel_norm(r12 @ a @ b, b @ a @ r12)


def _re_reference(rfam, kfam, l1, l2):
    rd, rs = linalg.mat(rfam(l1 - l2)), linalg.mat(rfam(l1 + l2))
    k1, k2 = linalg.mat(kfam(l1)), linalg.mat(kfam(l2))
    n = round(rd.shape[0] ** 0.5)
    dims = (n, n, k1.shape[0] // n)
    k1, k2 = linalg.embed(k1, (1, 3), dims), linalg.embed(k2, (2, 3), dims)
    rd21, rs21 = linalg.embed(rd, (2, 1), dims), linalg.embed(rs, (2, 1), dims)
    rd, rs = linalg.embed(rd, (1, 2), dims), linalg.embed(rs, (1, 2), dims)
    return linalg.rel_norm(rd @ k1 @ rs21 @ k2, k2 @ rs @ k1 @ rd21)


def _looped(reference, draw_args: int):
    def residuals(*args):
        fixed, lams = args[:-draw_args], args[-draw_args:]
        return np.array([reference(*fixed, *draw) for draw in zip(*lams)])

    return residuals


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("perturb", [0.0, 1e-4])
@pytest.mark.parametrize("suite", ["ybe", "re", "frt"])
def test_batched_suites_match_a_per_draw_reference(suite, perturb, seed, monkeypatch):
    runner = cli._SUITES[suite][0]
    cfg = {"suite": suite, "mu": 0.3, "perturb": perturb}
    batched = runner(cfg, seed)
    for module, name, reference, draw_args in (
        (rmatrix, "ybe_residual", _ybe_reference, 2),
        (rmatrix, "braided_ybe_residual", _braided_reference, 2),
        (rmatrix, "intertwiner_residual", _intertwiner_reference, 1),
        (cli, "_gauge_gaps", _gauge_reference, 1),
        (lax, "rll_residual", _rll_reference, 2),
        (boundary, "re_residual", _re_reference, 2),
    ):
        monkeypatch.setattr(module, name, _looped(reference, draw_args))
    assert runner(cfg, seed) == batched
    assert any(not c["pass"] for c in batched) == bool(perturb)


@pytest.mark.parametrize("suite, module, name", [
    ("ybe", rmatrix, "ybe_residual"),
    ("re", boundary, "re_residual"),
    ("frt", lax, "rll_residual"),
], ids=["ybe", "re", "frt"])
def test_a_later_nan_residual_fails_its_check(suite, module, name, tmp_path, capsys, monkeypatch):
    # builtin max([1e-16, nan]) is 1e-16; the suites' worst residual is NaN
    monkeypatch.setattr(module, name, lambda *args: np.array([1e-16, np.nan]))
    cfg = write_cfg(tmp_path, {"suite": suite, "mu": 0.3, "pairs": 2})
    code, out, _ = run(capsys, ["verify", "--config", cfg])
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert failed and all(math.isnan(c["residual"]) for c in failed)


def test_verify_braid_rejects_perturb(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"suite": "braid", "perturb": 1e-4})
    code, _, err = run(capsys, ["verify", "--config", cfg])
    assert code == 2
    assert "config error" in err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "command, obj",
    [
        pytest.param("verify", {"suite": "ybe", "mu": 0.3, "delta": 0.5}, id="verify-mu-and-delta"),
        pytest.param("verify", {"suite": "ybe", "bogus": 1}, id="verify-unknown-key"),
        pytest.param("verify", {"suite": "nope"}, id="verify-unknown-suite"),
        pytest.param("verify", {}, id="verify-missing-suite"),
        pytest.param("spectrum", {"N": "abc"}, id="spectrum-N-text"),
        pytest.param("spectrum", {"N": NAN}, id="spectrum-N-nan"),
        pytest.param("spectrum", {"N": None}, id="spectrum-N-null"),
        pytest.param("spectrum", {"N": 10**18}, id="spectrum-N-huge"),
        pytest.param("phase-scan", {"N": 10**18, "deltas": [0.5]}, id="phase-scan-N-huge"),
        pytest.param("phase-scan", {"N": 4, "deltas": [0.5, "x"]}, id="phase-scan-deltas-text"),
        pytest.param("phase-scan", {"N": 4, "delta_start": 0, "delta_stop": 1,
                                    "delta_steps": "many"}, id="phase-scan-steps-text"),
        pytest.param("bethe", {"N": 4, "s": "half", "M": 1, "validate": False},
                     id="bethe-s-text"),
        pytest.param("bethe", {"N": 2, "s": NAN, "M": 1, "validate": False}, id="bethe-s-nan"),
        pytest.param("bethe", {"N": "four"}, id="bethe-N-text"),
        pytest.param("bethe", {"N": 2, "M": [1]}, id="bethe-M-list"),
        pytest.param("bethe", {"N": 2, "rtol": "tight"}, id="bethe-rtol-text"),
        pytest.param("bethe", {"N": 2, "restarts": INF}, id="bethe-restarts-inf"),
        pytest.param("bethe", {"N": 10**18, "M": 1, "validate": False}, id="bethe-N-huge"),
        pytest.param("bethe", {"N": 8, "s": 1.0, "M": 1, "validate": False},
                     id="bethe-dimension-6561"),
        pytest.param("verify", {"suite": "ybe", "pairs": "many"}, id="verify-pairs-text"),
        pytest.param("verify", {"suite": "frt", "p": "five"}, id="verify-p-text"),
        pytest.param("verify", {"suite": "braid", "seed": "x"}, id="verify-seed-text"),
        pytest.param("verify", {"suite": "ybe", "threads": None}, id="verify-threads-null"),
        pytest.param("casimir", {"spins": ["half"]}, id="casimir-spin-text"),
        pytest.param("casimir", {"spins": [INF]}, id="casimir-spin-inf"),
        pytest.param("verify", {"suite": "ybe", "seed": -1, "pairs": 2},
                     id="verify-seed-negative"),
        pytest.param("verify --seed -1", {"suite": "ybe", "pairs": 2},
                     id="verify-seed-flag-negative"),
        pytest.param("verify", {"suite": "ybe", "pairs": -3}, id="verify-pairs-negative"),
        pytest.param("verify", {"suite": "re", "pairs": 0}, id="verify-pairs-zero"),
        pytest.param("verify", {"suite": "ybe", "pairs": 10001}, id="verify-pairs-above-bound"),
        pytest.param("verify", {"suite": "frt", "p": 0}, id="verify-frt-p-zero"),
        pytest.param("verify", {"suite": "frt", "p": 65}, id="verify-frt-p-above-bound"),
        pytest.param("verify", {"suite": "symmetry", "delta": 1}, id="verify-degenerate-q"),
        pytest.param("verify", {"suite": "braid", "mu": [0, -1000]}, id="verify-mu-overflow"),
        pytest.param("verify", {"suite": ["ybe"]}, id="verify-suite-list"),
        pytest.param("casimir", {"spins": [1e308]}, id="casimir-spin-huge"),
        pytest.param("casimir", {"spins": [200]}, id="casimir-spin-above-bound"),
        pytest.param("casimir", {"mu": [0, -1000]}, id="casimir-mu-overflow"),
        pytest.param("verify", {"suite": "frt", "k": 0}, id="verify-frt-k-zero"),
        pytest.param("verify", {"suite": "frt", "k": 5, "p": 5}, id="verify-frt-k-equals-p"),
        pytest.param("bethe", {"N": 4.7, "M": 1, "validate": False}, id="bethe-N-fraction"),
        pytest.param("spectrum", {"N": 2.9}, id="spectrum-N-fraction"),
        pytest.param("verify", {"suite": "ybe", "pairs": 2.5}, id="verify-pairs-fraction"),
        pytest.param("bethe", {"N": True, "M": 1, "validate": False}, id="bethe-N-bool"),
        pytest.param("bethe", {"N": 4, "s": 0.3}, id="bethe-s-not-half-integer"),
        pytest.param("casimir", {"spins": [0.7]}, id="casimir-spin-not-half-integer"),
        pytest.param("bethe", {"N": 2, "validate": "false"}, id="bethe-validate-text"),
        pytest.param("bethe", {"N": 2, "s": "1", "M": 1, "validate": False},
                     id="bethe-s-numeric-text"),
        pytest.param("verify", {"suite": "ybe", "mu": True}, id="verify-mu-bool"),
        pytest.param("casimir", {"spins": [True]}, id="casimir-spin-bool"),
        pytest.param("bethe", {"N": 2, "rtol": -1}, id="bethe-rtol-negative"),
        pytest.param("bethe", {"N": 2, "rtol": 5}, id="bethe-rtol-above-one"),
        pytest.param("verify", {"suite": "ybe", "model": "xyz"}, id="verify-ybe-unknown-model"),
        pytest.param("spectrum", {"N": 2, "delta": 0.5, "mu": 0.3}, id="spectrum-mu-and-delta"),
        pytest.param("verify", {"suite": "braid", "perturb": False},
                     id="verify-braid-perturb-false"),
        pytest.param("verify", {"suite": "symmetry", "perturb": 0},
                     id="verify-symmetry-perturb-zero"),
        pytest.param("bethe", {"N": 2, "restarts": -5}, id="bethe-restarts-negative"),
        pytest.param("bethe", {"N": 2, "M": 1, "validate": False, "restarts": 10001},
                     id="bethe-restarts-above-bound"),
        pytest.param("bethe", {"N": 2, "s": 1, "mu": 3.141592653589793},
                     id="bethe-q-root-of-unity"),
        pytest.param("phase-scan", {"N": 2, "delta_start": 0, "delta_stop": 1},
                     id="phase-scan-partial-range"),
        pytest.param("bethe", {"N": 1, "s": 128}, id="bethe-spin-above-bound"),
        pytest.param("bethe", {"N": 1, "s": 511.5, "M": 1, "validate": False},
                     id="bethe-unvalidated-spin-above-bound"),
    ],
)
def test_config_validation_errors(tmp_path, capsys, command, obj):
    cfg = write_cfg(tmp_path, obj)
    code, out, err = run(capsys, [*command.split(), "--config", cfg])
    assert code == 2
    assert "config error" in err and out == ""


def test_bethe_dimension_cap_before_solving(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("solve_bae ran above the dimension cap")

    monkeypatch.setattr(bethe, "solve_bae", never)
    cfg = write_cfg(tmp_path, {"N": 13, "M": 1, "validate": False})
    code, _, err = run(capsys, ["bethe", "--config", cfg])
    assert code == 2 and "config error" in err


@pytest.mark.parametrize("N, s", [(11, 0.5), (12, 0.5), (7, 1.0), (6, 1.5)])
def test_validated_bethe_dimension_bound(tmp_path, capsys, monkeypatch, N, s):
    def never(*args, **kwargs):
        raise AssertionError("validate_against_ed ran above the validation bound")

    monkeypatch.setattr(bethe, "validate_against_ed", never)
    cfg = write_cfg(tmp_path, {"N": N, "s": s})
    code, out, err = run(capsys, ["bethe", "--config", cfg])
    assert code == 2 and out == "" and "config error" in err and "1024" in err
    # without validation the 4096 cap still holds
    monkeypatch.setattr(bethe, "solve_bae", lambda *args, **kwargs: [])
    cfg = write_cfg(tmp_path, {"N": N, "s": s, "M": 1, "validate": False}, "free.json")
    code, out, _ = run(capsys, ["bethe", "--config", cfg])
    assert code == 0 and json.loads(out)["solutions"] == []


def test_unreadable_and_malformed_configs(tmp_path, capsys):
    code, _, err = run(capsys, ["verify", "--config", str(tmp_path / "missing.json")])
    assert code == 2 and "config error" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, ["verify", "--config", str(broken)])
    assert code == 2 and "config error" in err
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    code, _, err = run(capsys, ["verify", "--config", str(listy)])
    assert code == 2 and "config error" in err


def test_spectrum_json_two_sites(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"N": 2, "delta": 0.5})
    code, out, _ = run(capsys, ["spectrum", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == 0.5  # echoed literally, no acos/cos round trip
    energies = sorted(rec["energy"] for rec in payload["levels"])
    assert np.abs(np.asarray(energies) - [-1.5, -0.5, -0.5, 2.5]).max() < 1e-12
    assert all({"energy", "sz", "momentum"} <= set(rec) for rec in payload["levels"])


def test_integral_float_is_an_integer(tmp_path, capsys):
    outs = []
    for N in (2, 2.0):
        cfg = write_cfg(tmp_path, {"N": N, "delta": 0.5})
        code, out, _ = run(capsys, ["spectrum", "--config", cfg])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_spectrum_csv_format(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"N": 2, "delta": 0.5})
    code, out, _ = run(capsys, ["spectrum", "--config", cfg, "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "energy,sz,momentum"
    assert len(lines) == 5
    assert lines[1].startswith("-1.5,")


def test_spectrum_open_and_single_site(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"N": 2, "delta": 0.5, "boundary": "open"})
    code, out, _ = run(capsys, ["spectrum", "--config", cfg])
    assert code == 0
    assert all("momentum" not in rec for rec in json.loads(out)["levels"])
    cfg1 = write_cfg(tmp_path, {"N": 1}, "one.json")
    code, out, _ = run(capsys, ["spectrum", "--config", cfg1])
    assert code == 0
    payload = json.loads(out)
    assert [rec["energy"] for rec in payload["levels"]] == [0.0, 0.0]


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_single_site_momentum_label(tmp_path, capsys, boundary):
    # the shift of one site is the identity, so both periodic levels have k = 0;
    # the open chain has no momentum column
    cfg = write_cfg(tmp_path, {"N": 1, "boundary": boundary})
    code, out, _ = run(capsys, ["spectrum", "--config", cfg])
    assert code == 0
    levels = json.loads(out)["levels"]
    assert [rec["sz"] for rec in levels] == [-0.5, 0.5]
    if boundary == "periodic":
        assert [rec["momentum"] for rec in levels] == [0, 0]
    else:
        assert all("momentum" not in rec for rec in levels)
    code, out, _ = run(capsys, ["spectrum", "--config", cfg, "--format", "csv"])
    momenta = [line.split(",")[2] for line in out.splitlines()[1:]]
    assert momenta == (["0", "0"] if boundary == "periodic" else ["", ""])


def test_spectrum_dimension_gate(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"N": 13, "delta": 0.5})
    code, _, err = run(capsys, ["spectrum", "--config", cfg])
    assert code == 2 and "config error" in err


@pytest.mark.parametrize(
    "obj",
    [{"N": 4, "delta": [0.5, 0.3]}, {"N": 4, "mu": [0.5, 0.3]}, {"N": 1, "delta": [0.5, 1e-13]}],
)
def test_spectrum_rejects_non_real_delta(tmp_path, capsys, obj):
    # eigh reads one triangle, so a non-Hermitian H once gave the delta = 0.5 levels
    cfg = write_cfg(tmp_path, obj)
    code, out, err = run(capsys, ["spectrum", "--config", cfg])
    assert code == 2 and out == "" and "real delta" in err


def test_spectrum_real_delta_threshold(tmp_path, capsys):
    # |Im delta| <= 1e-14 counts as real: the real part is used and echoed
    texts = []
    for i, delta in enumerate(([0.5, 1e-14], 0.5)):
        cfg = write_cfg(tmp_path, {"N": 4, "delta": delta}, f"d{i}.json")
        code, out, _ = run(capsys, ["spectrum", "--config", cfg])
        assert code == 0
        texts.append(out)
    assert texts[0] == texts[1]


def test_bethe_validated_sector(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"N": 2, "s": 0.5, "mu": 0.3, "M": 1, "restarts": 40})
    code, out, _ = run(capsys, ["bethe", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    report = payload["report"]
    assert report["mismatched_solutions"] == 0
    assert report["coverage"] == [2, 4]
    sector = report["sectors"][0]
    assert sector["M"] == 1 and len(sector["solutions"]) == 2
    assert all(rec["matched"] is not None for rec in sector["solutions"])


def test_bethe_mismatch_is_a_failure(tmp_path, capsys, monkeypatch):
    # negative control: the ED oracle is off by a relative 1e-6, so no
    # Lambda agrees with it to rtol 1e-7, every solution is mismatched and
    # the run fails; only the blocks at the ED probes are scaled, so the
    # census is untouched
    blocks, probes = bethe._sector_blocks, {complex(p) for p in bethe._PROBES}

    def skewed(chain, lam, sectors):
        out = blocks(chain, lam, sectors)
        return {M: (1 + 1e-6) * b for M, b in out.items()} if lam in probes else out

    monkeypatch.setattr(bethe, "_sector_blocks", skewed)
    cfg = write_cfg(tmp_path, {"N": 2, "mu": 0.3, "rtol": 1e-7})
    code, out, _ = run(capsys, ["bethe", "--config", cfg])
    assert code == 1
    payload = json.loads(out)
    report = payload["report"]
    assert payload["status"] == "fail"
    assert report["mismatched_solutions"] == report["total_solutions"] == 4
    assert report["coverage"] == [0, 4]
    assert all(rec["matched"] is None for sec in report["sectors"] for rec in sec["solutions"])


def test_bethe_unvalidated_needs_m(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"N": 2, "validate": False})
    code, _, err = run(capsys, ["bethe", "--config", cfg])
    assert code == 2 and "config error" in err
    cfg = write_cfg(tmp_path, {"N": 2, "M": 1, "validate": False, "restarts": 40}, "b2.json")
    code, out, _ = run(capsys, ["bethe", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["solutions"]) == 2
    assert payload["solutions"][0]["sz"] == 0.0


def test_bethe_restarts_does_not_change_the_result(tmp_path, capsys):
    # the roots come from the TQ census of the sector, with no start stream;
    # restarts is still accepted and echoed, since the benchmark reads it
    texts = set()
    for restarts in (0, 120, 10000):
        cfg = write_cfg(tmp_path, {"N": 6, "M": 3, "validate": False, "restarts": restarts})
        code, out, _ = run(capsys, ["bethe", "--config", cfg])
        payload = json.loads(out)
        assert code == 0 and payload["restarts"] == restarts and "seed" not in payload
        texts.add("".join(line for line in out.splitlines(keepends=True)
                          if not line.startswith('  "restarts": ')))
    assert len(texts) == 1


@pytest.mark.parametrize("command, obj", [
    *(("verify", {"suite": suite, "threads": 1}) for suite in sorted(cli._SUITES)),
    ("bethe", {"N": 2, "threads": 1}),
    ("phase-scan", {"N": 2, "deltas": [0.5], "threads": 1}),
    ("bethe", {"N": 2, "seed": 0}),
], ids=[*(f"verify-{suite}-threads" for suite in sorted(cli._SUITES)), "bethe-threads",
        "phase-scan-threads", "bethe-seed"])
def test_no_command_takes_a_threads_key_nor_bethe_a_seed_key(tmp_path, capsys, command, obj):
    cfg = write_cfg(tmp_path, obj)
    code, out, err = run(capsys, [command, "--config", cfg])
    key = "threads" if "threads" in obj else "seed"
    assert (code, out, err) == (2, "", f"config error: unknown config keys: {key}\n")


@pytest.mark.parametrize("command, obj", [
    ("verify", {"suite": "braid", "mu": 0.3}),
    ("bethe", {"N": 4, "s": 0.5, "mu": 0.3}),
    ("spectrum", {"N": 6, "delta": 0.37}),
    ("phase-scan", {"N": 4, "deltas": [-0.5, 1.0]}),
    ("casimir", {"mu": 0.3}),
])
def test_every_command_takes_the_threads_and_seed_flags(tmp_path, capsys, command, obj):
    # the benchmark passes --threads 1 and --seed on every command; --threads
    # changes nothing, and --seed changes only verify's draws
    cfg = write_cfg(tmp_path, obj)
    texts = {}
    for threads, seed in itertools.product(("-9", "0", "1", "3"), repeat=2):
        if command == "verify" and seed == "-9":
            continue  # verify refuses a negative seed
        code, out, _ = run(capsys, [command, "--config", cfg, "--threads", threads, "--seed", seed])
        assert code == 0
        texts.setdefault(seed if command == "verify" else None, set()).add(out)
    assert all(len(outs) == 1 for outs in texts.values())


def test_bethe_rejects_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"N": 2, "M": 1})
    code, _, err = run(capsys, ["bethe", "--config", cfg, "--format", "csv"])
    assert code == 2 and "config error" in err


def test_output_files_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"N": 2, "s": 0.5, "mu": 0.3, "M": 1, "restarts": 40})
    outs = []
    for name, threads in (("a.json", "1"), ("b.json", "1"), ("c.json", "3")):
        path = tmp_path / name
        code = cli.main(
            ["bethe", "--config", cfg, "--out", str(path), "--threads", threads]
        )
        capsys.readouterr()
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_verify_byte_identical_on_repeat_runs(tmp_path, capsys):
    # --threads is accepted and ignored, so the runs differ only in being repeated
    cfg = write_cfg(tmp_path, {"suite": "ybe", "mu": 0.3, "pairs": 5})
    texts = []
    for threads in ("1", "2"):
        a = tmp_path / f"v{threads}.json"
        code = cli.main(["verify", "--config", cfg, "--out", str(a), "--threads", threads])
        capsys.readouterr()
        assert code == 0
        texts.append(a.read_bytes())
    assert texts[0] == texts[1]


@pytest.mark.parametrize(
    "command, obj",
    [
        ("spectrum", {"N": 9, "delta": 0.37}),
        ("spectrum", {"N": 7, "delta": -1.0, "boundary": "open"}),
        ("phase-scan", {"N": 6, "delta_start": -1.5, "delta_stop": 1.5, "delta_steps": 7}),
    ],
)
def test_spectrum_and_phase_scan_byte_identical_on_repeat_runs(tmp_path, capsys, command, obj):
    # --threads is accepted and ignored, so the runs differ only in being repeated
    cfg = write_cfg(tmp_path, obj)
    texts = []
    for threads in ("1", "2", "1"):
        code, out, _ = run(capsys, [command, "--config", cfg, "--threads", threads])
        assert code == 0
        texts.append(out)
    assert texts[0] == texts[1] == texts[2]


@pytest.mark.parametrize("command, obj, flags", [
    ("bethe", {"N": 6, "s": 0.5, "mu": 0.3}, []),
    ("bethe", {"N": 4, "s": 1.0, "mu": 0.3}, []),
    ("spectrum", {"N": 12, "delta": 0.37}, []),
    ("spectrum", {"N": 10, "delta": -0.6, "boundary": "open"}, []),
    ("verify", {"suite": "re", "mu": 0.3}, ["--seed", "7"]),
    ("phase-scan", {"N": 12, "delta_start": -2.0, "delta_stop": 2.0, "delta_steps": 41}, []),
], ids=["bethe-6-half", "bethe-4-one", "spectrum-12", "spectrum-open-10", "verify-re", "phase-scan-12"])
def test_stdout_byte_identical_across_blas_threads(tmp_path, command, obj, flags):
    # --threads is ignored; the BLAS thread count is set by the environment.
    # Validated (8, 1/2) is left out: the last bits of its roots and
    # residuals differ between one and two OpenBLAS threads (ROADMAP
    # direction 5), on 805 lines of its report, with the same coverage
    cfg = write_cfg(tmp_path, obj)
    src = str(Path(cli.__file__).resolve().parents[1])
    texts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "spinchain.cli", command, "--config", cfg, *flags],
                              capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        texts.append(proc.stdout)
    assert texts[0] == texts[1]


def _scalars_only(make_iterencode):
    """json.encoder._make_iterencode, whose encoders refuse a list or a dict."""
    def make(*args, **kwargs):
        encode = make_iterencode(*args, **kwargs)

        def scalar(obj, level):
            assert not isinstance(obj, (list, tuple, dict)), "a container reached the encoder"
            return encode(obj, level)

        return scalar

    return make


@pytest.mark.parametrize("command, obj", [
    ("spectrum", {"N": 10, "delta": 0.37}),
    ("bethe", {"N": 4, "s": 0.5, "mu": 0.3}),
    ("verify", {"suite": "frt", "mu": 0.3, "pairs": 3}),
], ids=["spectrum", "bethe", "verify"])
def test_json_output_is_the_indented_stdlib_dump(tmp_path, capsys, monkeypatch, command, obj):
    cfg = write_cfg(tmp_path, obj)
    path = tmp_path / "out.json"
    if command == "spectrum":
        # the 2^N levels never reach json.dumps(..., indent=2)'s pure-Python
        # encoder, which only the payload's scalars enter
        monkeypatch.setattr(json.encoder, "_make_iterencode",
                            _scalars_only(json.encoder._make_iterencode))
    code, out, _ = run(capsys, [command, "--config", cfg])
    assert cli.main([command, "--config", cfg, "--out", str(path)]) == code == 0
    monkeypatch.undo()
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert path.read_text(encoding="utf-8") == out


_KEY_TEXT = st.lists(st.sampled_from(["a", "z", "%", "%s", '"', "\x00", "\\", "\n", "é", "€", "𝄞"]),
                    max_size=4).map("".join)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**60), 10**60),
    st.floats(), st.sampled_from([0.0, -0.0, NAN, INF, -INF, 10**40]),
    st.text(max_size=4), _KEY_TEXT,
)


@st.composite
def _tables(draw, children):
    # rows of scalars on one key set; some rows lose or gain a key or hold a
    # nested value, which makes the table ragged
    keys = draw(st.lists(_KEY_TEXT, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({key: _SCALARS for key in keys}), max_size=4))
    for row in rows:
        change = draw(st.sampled_from(["keep", "keep", "drop", "add", "nest"]))
        if change == "drop":
            row.pop(keys[0])
        elif change == "add":
            row[draw(_KEY_TEXT)] = draw(_SCALARS)
        elif change == "nest":
            row[keys[-1]] = draw(children)
    return draw(st.sampled_from([list, tuple]))(rows)


_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEY_TEXT, children, max_size=4),
        _tables(children),
    ),
    max_leaves=30,
)
_SPECTRUM_PAYLOAD = {
    "schema": "v1", "command": "spectrum", "N": 2, "delta": 0.5, "boundary": "periodic",
    "levels": [
        {"energy": -1.25, "sz": 0.0, "momentum": 0},
        {"energy": -0.0, "sz": -1.0, "momentum": 0},
        {"energy": 0.75, "sz": 0.0, "momentum": 1},
    ],
    "status": "ok",
}
_VERIFY_PAYLOAD = {
    "schema": "v1", "command": "verify", "suite": "ybe", "mu": [0.3, 0.0], "seed": 0,
    "checks": [
        {"identity": "Yang-Baxter: xxx rational R", "residual": 1.1e-16, "tolerance": 1e-11,
         "pass": True, "params": {"pairs": 20}},
        {"identity": "regularity R(0) = c P: 100 %", "residual": NAN, "tolerance": 1e-12,
         "pass": False},
    ],
    "status": "fail",
}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(payload=st.dictionaries(_KEY_TEXT, _JSON_VALUES))
@example(payload=_SPECTRUM_PAYLOAD)
@example(payload=_VERIFY_PAYLOAD)
@example(payload={"levels": [{"energy": 1.0, "%s": INF}] * 3, "": {}, "%": [[], {}, ()]})
def test_dumps_equals_the_indented_stdlib_dump(payload):
    assert cli._dumps(payload) == json.dumps(payload, sort_keys=True, indent=2)


def _column_table(columns: dict) -> np.ndarray:
    """The structured array of the columns, {name: values}, in that order."""
    arrays = [np.asarray(values) for values in columns.values()]
    table = np.empty(len(arrays[0]), dtype=[(name, a.dtype) for name, a in zip(columns, arrays)])
    for name, values in zip(columns, arrays):
        table[name] = values
    return table


def _as_records(payload: dict) -> dict:
    """payload with every column table replaced by the list of its rows' records."""
    return {key: [dict(zip(value.dtype.names, row)) for row in value.tolist()]
            if isinstance(value, np.ndarray) else value for key, value in payload.items()}


_COLUMN_CASES = {
    "signed-zeros": {"e": [0.0, -0.0, 0.0, -0.0, 1.5], "k": [0, 3, 3, -2, 0]},
    "repeats": {"energy": [-1.25, -1.25, 0.75, -1.25, 0.1 + 0.2], "%s": [1, 2, 1, 2, 1],
                "a%": [True, False, True, True, False]},
    "one-row": {"z": [-0.0], "a": [7]},
    "empty": {"x": np.zeros(0)},
    "non-finite": {"f": [NAN, INF, -INF, NAN, 1e300], "g": [-0.0] * 5},
}


@pytest.mark.parametrize("columns", _COLUMN_CASES.values(), ids=_COLUMN_CASES)
def test_dumps_writes_a_column_table_as_the_dump_of_its_records(columns):
    table = _column_table(columns)
    payload = {"levels": table, "%": -0.0, "copy": table, "nested": [{"t": [1.5, -0.0]}]}
    assert cli._dumps(payload) == json.dumps(_as_records(payload), sort_keys=True, indent=2)


@st.composite
def _column_tables(draw):
    keys = draw(st.lists(st.lists(st.sampled_from(["a", "z", "%", "%s", '"', "\\", "é", "𝄞"]),
                                  min_size=1, max_size=3).map("".join),
                         min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(0, 6))
    cells = {
        float: st.one_of(st.floats(), st.sampled_from([0.0, -0.0, NAN, INF, 0.1])),
        int: st.integers(-(2**63), 2**63 - 1),
        bool: st.booleans(),
    }
    columns = {}
    for key in keys:
        kind = draw(st.sampled_from([float, int, bool]))
        columns[key] = np.array(draw(st.lists(cells[kind], min_size=rows, max_size=rows)),
                                dtype=kind)
    return _column_table(columns)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table=_column_tables(), scalar=_SCALARS)
def test_dumps_column_tables_equal_the_dump_of_their_records(table, scalar):
    payload = {"t": table, "%s": scalar}
    assert cli._dumps(payload) == json.dumps(_as_records(payload), sort_keys=True, indent=2)


def _spectrum_records(N, delta, boundary_kind):
    """The levels as `spectrum` wrote them from records: spectrum_table's,
    and at N = 1 the two zero-energy states."""
    if N > 1:
        return lax.spectrum_table(N, delta, boundary_kind)
    levels = [{"energy": 0.0, "sz": -0.5}, {"energy": 0.0, "sz": 0.5}]
    if boundary_kind == "periodic":
        for rec in levels:
            rec["momentum"] = 0
    return levels


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("delta", [0.0, -0.0, 0.37, -1.0], ids=["0", "-0", "0.37", "-1"])
@pytest.mark.parametrize("boundary_kind", ["periodic", "open"])
@pytest.mark.parametrize("N", [1, 2, 5, 12])
def test_spectrum_stdout_is_the_dump_of_spectrum_table_records(tmp_path, capsys, N,
                                                               boundary_kind, delta, fmt):
    cfg = write_cfg(tmp_path, {"N": N, "delta": delta, "boundary": boundary_kind})
    code, out, _ = run(capsys, ["spectrum", "--config", cfg, "--format", fmt])
    assert code == 0
    levels = _spectrum_records(N, delta, boundary_kind)
    if fmt == "json":
        payload = {"schema": "v1", "command": "spectrum", "N": N, "delta": delta,
                   "boundary": boundary_kind, "levels": levels, "status": "ok"}
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        rows = ([rec["energy"], rec["sz"], rec.get("momentum", "")] for rec in levels)
        lines = ["energy,sz,momentum"] + [",".join(str(v) for v in row) for row in rows]
        assert out == "\n".join(lines) + "\n"


def _scan_over_records(N, delta, boundary_kind):
    """A phase-scan row as it was read off spectrum_table's records."""
    levels = lax.spectrum_table(N, delta, boundary_kind)
    e0 = levels[0]["energy"]
    ground = [rec for rec in levels if rec["energy"] - e0 < 1e-8]
    return {"delta": delta, "e0": e0, "degeneracy": len(ground),
            "sz_abs": max(abs(rec["sz"]) for rec in ground)}


@pytest.mark.parametrize("boundary_kind", ["periodic", "open"])
@pytest.mark.parametrize("N", [2, 5, 8])
def test_phase_scan_rows_are_the_scan_over_spectrum_table_records(tmp_path, capsys, N,
                                                                 boundary_kind):
    deltas = [-2.0, -1.0, -0.0, 0.0, 0.37, 1.0, 2.5]
    cfg = write_cfg(tmp_path, {"N": N, "deltas": deltas, "boundary": boundary_kind})
    code, out, _ = run(capsys, ["phase-scan", "--config", cfg, "--format", "json"])
    assert code == 0
    want = [_scan_over_records(N, delta, boundary_kind) for delta in deltas]
    # the text tells -0.0 from 0.0 and an int from a float
    assert json.dumps(json.loads(out)["rows"]) == json.dumps(want, sort_keys=True)


def test_spectrum_at_the_cap_peaks_below_the_record_writer(tmp_path):
    # one periodic N = 12 call, its block index already built, peaked at
    # 2.62 MiB of traced allocations while its 4,096 levels went through
    # records; as a column table it needs less
    cfg = write_cfg(tmp_path, {"N": 12, "delta": 0.37})
    argv = ["spectrum", "--config", cfg, "--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * 2**20, peak


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"suite": "ybe", "mu": 0.3, "pairs": 4, "seed": 1})
    code, out, _ = run(capsys, ["verify", "--config", cfg, "--seed", "5"])
    assert code == 0
    assert json.loads(out)["seed"] == 5


@pytest.mark.parametrize("flag", [False, True], ids=["key-alone", "key-and-flag"])
@pytest.mark.parametrize("command, obj, flags", [
    ("verify", {"suite": "braid", "seed": "x"}, ["--seed", "1"]),
    ("verify", {"suite": "braid", "threads": 2.5}, ["--threads", "1"]),
    ("verify", {"suite": "braid", "seed": -1}, ["--seed", "1"]),
    ("bethe", {"N": 2, "seed": "x"}, ["--seed", "1"]),
    ("bethe", {"N": 2, "threads": 2.5}, ["--threads", "1"]),
], ids=["verify-seed", "verify-threads", "verify-seed-negative", "bethe-seed", "bethe-threads"])
def test_bad_key_exits_2_even_where_its_flag_overrides_it(tmp_path, capsys, command, obj,
                                                          flags, flag):
    cfg = write_cfg(tmp_path, obj)
    code, out, err = run(capsys, [command, "--config", cfg, *(flags if flag else [])])
    assert code == 2
    assert "config error" in err and out == ""


def test_phase_scan_csv_default(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"N": 2, "deltas": [0.5, 1.0, 3.0]})
    code, out, _ = run(capsys, ["phase-scan", "--config", cfg])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "delta,e0,degeneracy,sz_abs"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[2]) for r in rows] == [1, 3, 2]
    assert [float(r[3]) for r in rows] == [0.0, 1.0, 1.0]


def test_phase_scan_grid_validation(tmp_path, capsys):
    bads = [
        {"N": 2, "deltas": [0.5], "delta_start": 0.0, "delta_stop": 1.0, "delta_steps": 3},
        {"N": 2},
        {"N": 2, "delta_start": 0.0, "delta_stop": 1.0, "delta_steps": 1},
        {"N": 2, "deltas": []},
    ]
    for i, obj in enumerate(bads):
        cfg = write_cfg(tmp_path, obj, f"ps{i}.json")
        code, _, err = run(capsys, ["phase-scan", "--config", cfg])
        assert code == 2 and "config error" in err
    good = write_cfg(
        tmp_path, {"N": 2, "delta_start": 0.5, "delta_stop": 1.5, "delta_steps": 3}, "ok.json"
    )
    code, out, _ = run(capsys, ["phase-scan", "--config", good, "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["delta"] for r in rows] == [0.5, 1.0, 1.5]
    assert [r["degeneracy"] for r in rows] == [1, 3, 2]


class _Reached(Exception):
    """A config passed validation and reached the numerical work."""


def _reached_spectrum(N, delta, boundary):
    assert 2 <= N <= 12 and boundary in ("periodic", "open")
    assert isinstance(delta, float) and math.isfinite(delta)
    raise _Reached


def _reached_linspace(start, stop, steps):
    assert 2 <= steps <= cli.MAX_DELTA_STEPS and math.isfinite(start) and math.isfinite(stop)
    raise _Reached


def _reached_validation(N, s, mu, M_range=None, rtol=1e-7):
    n = round(2 * s + 1)
    assert n**N <= cli.VALIDATE_DIM and cmath.isfinite(mu) and 0 < rtol < 1
    assert M_range is None or all(0 <= M <= (n - 1) * N for M in M_range)
    raise _Reached


def _reached_solver(N, s, mu, M):
    n = round(2 * s + 1)
    assert 1 <= N and 2 <= n <= cli.MAX_SITE_DIM and n**N <= 4096 and 0 <= M <= (n - 1) * N
    assert cmath.isfinite(mu)
    raise _Reached


class _ReachedRng:
    """Stands in for a verify suite's generator: its first draw is the work."""

    def __init__(self, seed):
        assert isinstance(seed, int) and seed >= 0

    def uniform(self, low, high, size):
        # pairs draw (pairs, 4) values, the braid and symmetry suites 4 and 5
        assert 1 <= np.prod(size) <= 4 * cli.MAX_PAIRS
        raise _Reached


def _reached_casimir(spin, n, q):
    assert 2 <= n <= cli.MAX_SITE_DIM and math.isfinite(spin) and cmath.isfinite(q)
    raise _Reached


def test_delta_steps_bound_before_allocation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.np, "linspace", _reached_linspace)
    cfg = write_cfg(tmp_path, {"N": 2, "delta_start": 0, "delta_stop": 1, "delta_steps": 10**12})
    code, out, err = run(capsys, ["phase-scan", "--config", cfg])
    assert code == 2 and out == "" and "config error" in err and "10000" in err
    cfg = write_cfg(tmp_path, {"N": 2, "delta_start": 0, "delta_stop": 1, "delta_steps": 10000})
    with pytest.raises(_Reached):
        cli.main(["phase-scan", "--config", cfg])


def test_delta_list_bound(tmp_path, capsys, monkeypatch):
    # the list form takes at most MAX_DELTA_STEPS deltas, like the range form
    monkeypatch.setattr(cli, "MAX_DELTA_STEPS", 4)
    cfg = write_cfg(tmp_path, {"N": 2, "deltas": [0.5] * 4})
    code, out, _ = run(capsys, ["phase-scan", "--config", cfg])
    assert code == 0 and len(out.strip().split("\n")) == 5
    cfg = write_cfg(tmp_path, {"N": 2, "deltas": [0.5] * 5})
    code, out, err = run(capsys, ["phase-scan", "--config", cfg])
    assert code == 2 and out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1 and "4" in err


def test_casimir_spins_bound(tmp_path, capsys, monkeypatch):
    # the list is refused before any representation is built
    monkeypatch.setattr(cli, "_casimir_entry", _reached_casimir)
    cfg = write_cfg(tmp_path, {"spins": [0.5] * 10001})
    code, out, err = run(capsys, ["casimir", "--config", cfg])
    assert code == 2 and out == ""
    assert err == "config error: spins must be a list of 1 to 10000 values\n"
    cfg = write_cfg(tmp_path, {"spins": [0.5] * 10000})
    with pytest.raises(_Reached):
        cli.main(["casimir", "--config", cfg])


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, where):
    out_path = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    cfg = write_cfg(tmp_path, {"suite": "braid", "mu": 0.3})
    code, out, err = run(capsys, ["verify", "--config", cfg, "--out", str(out_path)])
    assert code == 2 and out == ""
    assert err.startswith("config error: cannot write output: ") and err.count("\n") == 1


_FLOATS = st.floats(-3, 3)


@st.composite
def _bethe_configs(draw):
    # N, s, M and validate within the dimension and M rules, so that one bad
    # key is what a config gets refused for
    s = draw(st.sampled_from([0.5, 1.0, 1.5]))
    n = round(2 * s + 1)
    validate = draw(st.booleans())
    cap = cli.VALIDATE_DIM if validate else 4096
    N = draw(st.integers(1, max(N for N in range(1, 13) if n**N <= cap)))
    cfg = {"N": N, "s": s, "mu": draw(st.floats(0.1, 1.4))}
    if not validate or draw(st.booleans()):
        cfg["M"] = draw(st.integers(0, (n - 1) * N))
    if not validate or draw(st.booleans()):
        cfg["validate"] = validate
    if draw(st.booleans()):
        cfg["restarts"] = draw(st.integers(0, cli.MAX_RESTARTS))
    return cfg


_VALID = {
    "spectrum": st.fixed_dictionaries(
        {"N": st.integers(1, 12)},
        optional={"delta": _FLOATS, "boundary": st.sampled_from(["periodic", "open"])},
    ),
    "phase-scan": st.one_of(
        st.fixed_dictionaries(
            {"N": st.integers(2, 12), "deltas": st.lists(_FLOATS, min_size=1, max_size=3)}
        ),
        st.fixed_dictionaries({
            "N": st.integers(2, 12), "delta_start": _FLOATS, "delta_stop": _FLOATS,
            "delta_steps": st.integers(2, cli.MAX_DELTA_STEPS),
        }),
    ),
    "bethe": _bethe_configs(),
    "verify": st.fixed_dictionaries(
        {"suite": st.sampled_from(sorted(cli._SUITES)), "mu": st.floats(0.1, 1.4)},
        optional={"seed": st.integers(0, 2**32), "pairs": st.integers(1, cli.MAX_PAIRS)},
    ),
    "casimir": st.fixed_dictionaries(
        {"spins": st.lists(st.sampled_from([0.5, 1.0, 1.5, 127.5]), min_size=1, max_size=3)},
        optional={"mu": st.floats(0.1, 1.4)},
    ),
}
_KEYS = {
    "spectrum": ["N", "delta", "mu", "boundary"],
    "phase-scan": ["N", "deltas", "delta_start", "delta_stop", "delta_steps", "boundary"],
    "bethe": ["N", "s", "mu", "delta", "M", "restarts", "validate", "rtol"],
    "casimir": ["spins", "mu", "delta"],
}
# non-numeric values, NaN, huge values, [re, im] pairs of the wrong length or range
_BAD = st.one_of(
    st.sampled_from([
        None, True, "x", "12", NAN, INF, -INF, 10**400, 10**18, -(10**18), 1e308, -1, 0,
        2048.0, 10001, [], [0.5], [0.5, 0.3], [0.5, 1e-14], [0.5, 2e-14], [1, 2, 3],
        [NAN, 0], [0, -1000], [1e308, 1e308], ["a", 1], {"a": 1},
    ]),
    st.integers(-(10**20), 10**20),
    st.floats(),
)


_INT_KEYS = {"N", "M", "seed", "restarts", "pairs", "p", "k", "delta_steps"}
# keys holding a number, a list of numbers, or a [re, im] pair
_FLOAT_KEYS = {"s", "spins", "mu", "delta", "deltas", "delta_start", "delta_stop", "rtol",
               "perturb", "xi", "kappa", "m", "gamma"}
# values of a JSON type the key takes that still break its rule: booleans and
# fractions for integer keys, booleans and numeric strings for float keys,
# spins that are no half-integer, an rtol outside (0, 1), restarts outside
# [0, MAX_RESTARTS], a validate flag that is no JSON boolean
_NOT_A_NUMBER = st.one_of(st.booleans(), _FLOATS.map(str))
_NOT_AN_INTEGER = st.one_of(st.booleans(), st.floats(-20, 20).filter(lambda x: not x.is_integer()))
_NOT_HALF_INTEGER = st.floats(0.01, 8).filter(lambda x: not (2 * x).is_integer())
_BAD_FOR_KEY = {
    **dict.fromkeys(_INT_KEYS, _NOT_AN_INTEGER),
    **dict.fromkeys(_FLOAT_KEYS, _NOT_A_NUMBER),
    "s": st.one_of(_NOT_HALF_INTEGER, _NOT_A_NUMBER),
    "spins": st.lists(st.one_of(_NOT_HALF_INTEGER, _NOT_A_NUMBER), min_size=1, max_size=3),
    "deltas": st.lists(st.one_of(_FLOATS, _NOT_A_NUMBER), min_size=1, max_size=3),
    "rtol": st.one_of(_NOT_A_NUMBER, st.floats(-2, 0), st.floats(1, 10)),
    "restarts": st.one_of(_NOT_AN_INTEGER, st.integers(-(10**6), -1),
                          st.integers(cli.MAX_RESTARTS + 1, 10**6)),
    "validate": st.sampled_from(["false", "true", 0, 1, None]),
}


@st.composite
def _configs(draw):
    # a valid config with up to two keys replaced by a bad value, and up to one
    # more by a value of the key's own JSON type that breaks its rule
    command = draw(st.sampled_from(sorted(_VALID)))
    cfg = draw(_VALID[command])
    if command == "verify":
        keys = sorted(cli._SUITES[cfg["suite"]][1])  # every key the suite accepts
        if cfg["suite"] in ("braid", "symmetry"):
            cfg.pop("pairs", None)
    else:
        keys = _KEYS[command]
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        cfg[key] = draw(_BAD)
    typed = [key for key in keys if key in _BAD_FOR_KEY]
    for key in draw(st.lists(st.sampled_from(typed), max_size=1)):
        cfg[key] = draw(_BAD_FOR_KEY[key])
    return command, cfg


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _well_typed(command, obj):
    """Integer keys hold integral non-boolean numbers, float keys non-boolean
    numbers (or lists of them), spins are positive half-integers, rtol lies
    in (0, 1), restarts in [0, MAX_RESTARTS], validate is a boolean, and the
    frt suite's q is not 1."""
    if not all(_is_number(v) and v == int(v) for v in (obj[key] for key in _INT_KEYS & set(obj))):
        return False
    floats = [obj[key] for key in _FLOAT_KEYS & set(obj)]
    if not all(_is_number(x) for v in floats for x in (v if isinstance(v, list) else [v])):
        return False
    if command == "bethe" and not (0 < obj.get("rtol", 1e-7) < 1
                                   and 0 <= obj.get("restarts", 120) <= cli.MAX_RESTARTS):
        return False
    spins = {"bethe": [obj.get("s", 0.5)], "casimir": obj.get("spins", [0.5])}.get(command, [])
    if not all(float(x) > 0 and (2 * float(x)).is_integer() for x in spins):
        return False
    if obj.get("suite") == "frt" and obj.get("k", 1) % obj.get("p", 5) == 0:
        return False
    return isinstance(obj.get("validate", True), bool)


@settings(max_examples=850, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_configs())
@example(case=("phase-scan", {"N": 4, "delta_start": 0, "delta_stop": 1, "delta_steps": 10**12}))
@example(case=("spectrum", {"N": 4, "delta": [10**400, 0]}))
@example(case=("spectrum", {"N": 4, "mu": [0, -1000]}))
@example(case=("bethe", {"N": 2, "s": 1e308, "M": 1}))
@example(case=("bethe", {"N": 12, "s": 0.5}))
@example(case=("verify", {"suite": "ybe", "seed": -1, "pairs": 2}))
@example(case=("verify", {"suite": "frt", "pairs": 10**12}))
@example(case=("verify", {"suite": "braid", "mu": [0, -1000]}))
@example(case=("casimir", {"spins": [1e308]}))
@example(case=("bethe", {"N": 2, "M": 1, "rtol": 5}))
@example(case=("verify", {"suite": "braid", "mu": 1.0, "perturb": False}))
def test_config_fuzz_exits_2_or_reaches_bounded_work(tmp_path, capsys, monkeypatch, case):
    # the work itself is replaced, so an oversized value is never allocated
    monkeypatch.setattr(lax, "spectrum_levels", _reached_spectrum)
    monkeypatch.setattr(cli.np, "linspace", _reached_linspace)
    monkeypatch.setattr(bethe, "validate_against_ed", _reached_validation)
    monkeypatch.setattr(bethe, "solve_bae", _reached_solver)
    monkeypatch.setattr(cli.np.random, "default_rng", _ReachedRng)
    monkeypatch.setattr(cli, "_casimir_entry", _reached_casimir)
    command, obj = case
    cfg = write_cfg(tmp_path, obj)
    try:
        code = cli.main([command, "--config", cfg])
    except _Reached:
        capsys.readouterr()
        assert _well_typed(command, obj), obj
        return
    out, err = capsys.readouterr()
    if code == 2:
        assert "config error" in err and out == ""
    else:  # only the one-site spectrum is answered without any solve
        assert (command, code) == ("spectrum", 0) and json.loads(out)["N"] == 1


def test_casimir_coefficients(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"mu": 0.3})
    code, out, _ = run(capsys, ["casimir", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert [r["spin"] for r in payload["representations"]] == [0.5, 1.0]
    for rec in payload["representations"]:
        assert all(c["pass"] for c in rec["checks"])
        plus = complex(*rec["t_plus_coefficient"])
        minus = complex(*rec["t_minus_coefficient"])
        q = np.exp(0.3j)
        assert abs(plus + q) < 1e-9
        assert abs(minus + 1 / q) < 1e-9


def test_installed_entry_point(tmp_path):
    exe = shutil.which("workbench")
    assert exe is not None, "workbench console script is not on PATH"
    cfg = write_cfg(tmp_path, {"N": 2, "delta": 0.5})
    proc = subprocess.run(
        [exe, "spectrum", "--config", cfg], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == "v1"
