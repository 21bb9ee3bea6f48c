"""End-to-end CLI behavior: exit codes, schemas, formats, determinism."""

import cmath
import json
import math
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spinchain import bethe, cli, lax


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


def test_bethe_mismatch_is_a_failure(tmp_path, capsys):
    # negative control: no Lambda agrees with ED to 1e-300, so every
    # solution is mismatched and the run fails
    cfg = write_cfg(tmp_path, {"N": 2, "mu": 0.3, "rtol": 1e-300})
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


def test_verify_byte_identical_across_threads(tmp_path, capsys):
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
def test_spectrum_and_phase_scan_byte_identical_across_threads(tmp_path, capsys, command, obj):
    cfg = write_cfg(tmp_path, obj)
    texts = []
    for threads in ("1", "2", "1"):
        code, out, _ = run(capsys, [command, "--config", cfg, "--threads", threads])
        assert code == 0
        texts.append(out)
    assert texts[0] == texts[1] == texts[2]


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"suite": "ybe", "mu": 0.3, "pairs": 4, "seed": 1})
    code, out, _ = run(capsys, ["verify", "--config", cfg, "--seed", "5"])
    assert code == 0
    assert json.loads(out)["seed"] == 5


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


def _reached_solver(N, s, mu, M, seed=0, restarts=120):
    n = round(2 * s + 1)
    assert 1 <= N and n >= 2 and n**N <= 4096 and 0 <= M <= (n - 1) * N
    assert cmath.isfinite(mu) and 0 <= restarts <= cli.MAX_RESTARTS
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
    assert 2 <= n <= cli.MAX_CASIMIR_DIM and math.isfinite(spin) and cmath.isfinite(q)
    raise _Reached


def test_delta_steps_bound_before_allocation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.np, "linspace", _reached_linspace)
    cfg = write_cfg(tmp_path, {"N": 2, "delta_start": 0, "delta_stop": 1, "delta_steps": 10**12})
    code, out, err = run(capsys, ["phase-scan", "--config", cfg])
    assert code == 2 and out == "" and "config error" in err and "10000" in err
    cfg = write_cfg(tmp_path, {"N": 2, "delta_start": 0, "delta_stop": 1, "delta_steps": 10000})
    with pytest.raises(_Reached):
        cli.main(["phase-scan", "--config", cfg])


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
    "phase-scan": ["N", "deltas", "delta_start", "delta_stop", "delta_steps", "boundary",
                   "threads"],
    "bethe": ["N", "s", "mu", "delta", "M", "seed", "restarts", "validate", "rtol", "threads"],
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


_INT_KEYS = {"N", "M", "seed", "restarts", "threads", "pairs", "p", "k", "delta_steps"}
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
    monkeypatch.setattr(lax, "spectrum_table", _reached_spectrum)
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
