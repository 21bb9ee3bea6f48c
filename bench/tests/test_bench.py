"""Self-test of the benchmark at toy size: one Bethe chain (2, 1/2), the
N=4 spectrum and one verify seed.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spinchain import lax  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_unit_and_direction(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0.5",
                 "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        row = next(line.split() for line in lines if line.split()[:1] == [metric["name"]])
        assert row[2] == metric["unit"] and row[3] == f"({metric['better']}", row
    if not trace:
        assert result["metrics"]["setup_s"]["value"] > 0
        assert result["metrics"]["wall_s"]["value"] > 0


def test_all_prints_every_end_to_end_metric_per_workload():
    proc = bench("--all", "--seed", "0", "--seconds", "0.5", "--toy")
    assert proc.returncode == 0, proc.stderr
    table = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(table) == set(workloads.WORKLOADS)
    assert "failed_share" in table["verify-sweep"]
    assert table["bethe-census"]["levels_certified"]["value"] == 4


def spectrum_payload(N, delta=0.3):
    return {"levels": lax.spectrum_table(N, delta), "status": "ok"}


def test_spectrum_checks_pass_on_real_output():
    assert workloads.check_spectrum(0, spectrum_payload(4), 4).failed == 0


def test_dropped_spectrum_level_fails():
    payload = spectrum_payload(4)
    payload["levels"].pop(3)
    assert workloads.check_spectrum(0, payload, 4).failed >= 1


def test_shifted_energy_and_bad_momentum_fail():
    payload = spectrum_payload(4)
    up = next(rec for rec in payload["levels"] if rec["sz"] == 1.0)
    up["energy"] += 1e-6
    up["momentum"] = 4
    tally = workloads.check_spectrum(0, payload, 4)
    assert tally.failed == 3  # trace, spin flip, momentum


def test_spectrum_exit_code_fails_all_five_checks():
    tally = workloads.check_spectrum(2, None, 4)
    assert (tally.attempted, tally.failed) == (5, 5)


def test_negative_control_that_passes_fails():
    assert workloads.check_verify(0, {"status": "ok"}, negative=True).failed == 1
    assert workloads.check_verify(1, {"status": "fail"}, negative=True).failed == 0
    assert workloads.check_verify(1, {"status": "fail"}, negative=False).failed == 1


def bethe_payload():
    sectors = [
        {"M": 0, "sz": 1.0, "dimension": 1, "levels_matched": 1},
        {"M": 1, "sz": 0.0, "dimension": 2, "levels_matched": 2},
        {"M": 2, "sz": -1.0, "dimension": 1, "levels_matched": 1},
    ]
    report = {"N": 2, "s": 0.5, "coverage": [4, 4], "total_solutions": 9,
              "mismatched_solutions": 0, "sectors": sectors}
    return {"restarts": 120, "report": report, "status": "ok"}


def test_bethe_checks_count_starts_and_levels():
    tally = workloads.check_bethe(0, bethe_payload())
    assert tally.failed == 0
    assert (tally.levels, tally.solutions, tally.starts) == (4, 9, 2 * 127)


def test_bethe_mismatches_and_bad_sectors_fail():
    payload = bethe_payload()
    payload["report"]["mismatched_solutions"] = 2
    payload["report"]["sectors"][1]["sz"] = 0.5
    payload["report"]["sectors"][2]["levels_matched"] = 2
    assert workloads.check_bethe(0, payload).failed == 4
    assert workloads.check_bethe(1, payload).failed == 1


class CorruptCli:
    """Stands in for spinchain.cli: prints the spectrum with a level dropped."""

    @staticmethod
    def main(argv):
        payload = spectrum_payload(4)
        payload["levels"].pop()
        print(json.dumps(payload))
        return 0


def test_corrupted_output_raises_failed_share():
    rounds = run.run_rounds(CorruptCli, workloads.SpectrumCap(0, toy=True), 0, 1)
    metrics = run.end_to_end(rounds, [0.1])
    assert metrics["failed_share"] > 0


def test_exits_without_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify-sweep", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
