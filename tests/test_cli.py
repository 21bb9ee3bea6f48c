"""End-to-end CLI behavior: exit codes, schemas, formats, determinism."""

import json
import shutil
import subprocess

import numpy as np
import pytest

from spinchain import bethe, cli


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
    ],
)
def test_config_validation_errors(tmp_path, capsys, command, obj):
    cfg = write_cfg(tmp_path, obj)
    code, out, err = run(capsys, [command, "--config", cfg])
    assert code == 2
    assert "config error" in err and out == ""


def test_bethe_dimension_cap_before_solving(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("solve_bae ran above the dimension cap")

    monkeypatch.setattr(bethe, "solve_bae", never)
    cfg = write_cfg(tmp_path, {"N": 13, "M": 1, "validate": False})
    code, _, err = run(capsys, ["bethe", "--config", cfg])
    assert code == 2 and "config error" in err


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
