"""spinchain benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload bethe-census --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 0          # every workload, one by one

Each run imports spinchain from the checkout's src/, makes its inputs from
--seed and calls `spinchain.cli.main` in-process, round after round, until
--seconds have passed (whole rounds, at least the workload's minimum).
--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
the rounds untraced for half the time, then the same rounds again with every
public function of every layer wrapped in a span, and reports the
per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the metrics named in
BENCHMARK.json; a result file with every metric, the platform fingerprint
and the checks goes to .bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads
from tracer import BYTES_OF, LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7

# End-to-end metrics reported beside the BENCHMARK.json ones.  They are not
# in BENCHMARK.json because they are zero or absent on some workloads, or
# rest on too few invocations there (see bench/README.md).
EXTRA_METRICS = {
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "levels_certified": ("count", "higher"),
    "duplicate_solutions": ("count", "lower"),
    "failed_share": ("ratio", "lower"),
}


class BenchError(Exception):
    pass


def result_stem(workload: str, seed: int, trace: int, toy: bool) -> str:
    return f"{workload}-seed{seed}-trace{trace}" + ("-toy" if toy else "")


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def setup(workload: str, seed: int, toy: bool):
    """Import spinchain from the checkout and make the first round's inputs.

    Returns (package, workload object, import seconds, setup seconds).
    """
    src = ROOT / "src"
    if not (src / "spinchain" / "__init__.py").is_file():
        raise BenchError(f"no spinchain package under {src}")
    t0 = perf_counter()
    sys.path.insert(0, str(src))
    import spinchain
    import spinchain.cli  # noqa: F401  (the entry point the benchmark drives)

    import_s = perf_counter() - t0
    if Path(spinchain.__file__).resolve().parent != src / "spinchain":
        raise BenchError(f"spinchain imported from {spinchain.__file__}, not {src}")
    wl = workloads.WORKLOADS[workload](seed, toy)
    wl.round(0)
    return spinchain, wl, import_s, perf_counter() - t0


def setup_probes(args, count: int) -> list:
    """Set-up time of fresh processes, each measured like the main one."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        argv.append("--toy")
    times = []
    for _ in range(count):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_op(cli, op, config_path: Path):
    config_path.write_text(json.dumps(op.config), encoding="utf-8")
    buf = io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli.main(op.argv(str(config_path)))
    except Exception as exc:  # a crash is a failed operation, not a dead benchmark
        rc, error = None, repr(exc)
    latency = perf_counter() - t0
    try:
        payload = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        payload = None
    tally = op.check(rc, payload)
    if error:
        tally.problems.append(f"{op.label}: {error}")
    return latency, tally


def run_rounds(cli, wl, seconds: float, min_rounds: int, count: int | None = None) -> list:
    """Whole rounds until `seconds` have passed and `min_rounds` are done,
    or exactly `count` rounds."""
    config_path = OUT / "work" / f"{wl.name}.json"
    config_path.parent.mkdir(parents=True, exist_ok=True)
    rounds = []
    start = perf_counter()
    while True:
        r = len(rounds)
        if count is not None and r == count:
            break
        if count is None and r >= min_rounds and perf_counter() - start >= seconds:
            break
        t0 = perf_counter()
        ops, tally = [], workloads.Tally()
        for op in wl.round(r):
            latency, op_tally = run_op(cli, op, config_path)
            tally.add(op_tally)
            ops.append({"label": op.label, "latency_s": latency, "timed": op.timed,
                        "failed": op_tally.failed})
        rounds.append({"wall_s": perf_counter() - t0, "ops": ops, "tally": tally})
    return rounds


def quantile(values: list, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(rounds: list, setups: list) -> dict:
    latencies = [op["latency_s"] for rnd in rounds for op in rnd["ops"] if op["timed"]]
    first = rounds[0]["tally"]
    attempted = sum(rnd["tally"].attempted for rnd in rounds)
    failed = sum(rnd["tally"].failed for rnd in rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rnd["wall_s"] for rnd in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * quantile(latencies, 0.9),
        "failed_share": failed / attempted,
    }
    if first.solutions:
        metrics["levels_certified"] = first.levels
        metrics["duplicate_solutions"] = first.solutions - first.levels
    return metrics


def per_layer(tracer: Tracer, wrapped: set, untraced: list, traced: list,
              import_s: float) -> tuple:
    """Per-round layer metrics of the traced rounds, and the accounting check."""
    summary = tracer.summary()
    n = len(traced)
    traced_wall = sum(rnd["wall_s"] for rnd in traced)
    untraced_wall = sum(rnd["wall_s"] for rnd in untraced)
    self_total = sum(rec["self_s"] for rec in summary["by_name"].values())
    unattributed = traced_wall - summary["root_s"]
    accounting_gap = abs(self_total + unattributed - traced_wall)
    metrics = {}
    for name in wrapped:
        rec = summary["by_name"].get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.s"] = metrics[f"{name}.self_s"] = rec["self_s"] / n
        metrics[f"{name}.calls"] = rec["calls"] / n
    for name in BYTES_OF:
        metrics[f"{name}.bytes"] = tracer.bytes.get(name, 0) / n
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(
            rec["self_s"] for name, rec in summary["by_name"].items()
            if name.startswith(layer + ".")) / n
    tally = workloads.Tally()
    for rnd in traced:
        tally.add(rnd["tally"])
    metrics.update({
        "import.s": import_s,
        "bethe.starts": tally.starts / n,
        "bethe.solutions": tally.solutions / n,
        "bethe.levels_certified": tally.levels / n,
        "bethe.duplicate_solutions": (tally.solutions - tally.levels) / n,
        "bethe.levels_per_start": tally.levels / tally.starts if tally.starts else 0.0,
        "bethe.levels_per_solution": tally.levels / tally.solutions if tally.solutions else 0.0,
        "trace.traced_wall_s": traced_wall / n,
        "trace.untraced_wall_s": untraced_wall / n,
        "trace.overhead_s": (traced_wall - untraced_wall) / n,
        "trace.unattributed_s": unattributed / n,
        "trace.spans": summary["spans"] / n,
    })
    return metrics, accounting_gap


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    import ctypes

    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def fingerprint(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    meminfo = _read("/proc/meminfo") or ""
    mem_total = next((line.split(":")[1].strip() for line in meminfo.splitlines()
                      if line.startswith("MemTotal")), None)
    l3 = None
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        if (_read(index / "level") or "").strip() == "3":
            l3 = (_read(index / "size") or "").strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spinchain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total": mem_total,
        "l3_cache": l3,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(args) -> int:
    spec = load_spec()
    package, wl, import_s, setup_s = setup(args.workload, args.seed, args.toy)
    stem = result_stem(wl.name, args.seed, args.trace, args.toy)
    setups = [setup_s]
    cli = package.cli
    OUT.mkdir(exist_ok=True)
    if not args.trace:
        # Probes before and after the rounds, so they meet different phases
        # of the host's load.
        setups += setup_probes(args, SETUP_SAMPLES // 2)
        rounds = run_rounds(cli, wl, args.seconds, wl.min_rounds)
        setups += setup_probes(args, SETUP_SAMPLES - len(setups))
        metrics = end_to_end(rounds, setups)
        wanted = spec["end_to_end"]
        rows = wanted + [{"name": k, "unit": u, "better": b} for k, (u, b) in
                         EXTRA_METRICS.items() if k in metrics]
        phases = {"untraced": rounds}
    else:
        untraced = run_rounds(cli, wl, args.seconds / 2, 1)
        tracer = Tracer()
        wrapped = tracer.install(package)
        origin = perf_counter()
        try:
            traced = run_rounds(cli, wl, 0, 0, count=len(untraced))
        finally:
            tracer.uninstall()
        metrics, gap = per_layer(tracer, wrapped, untraced, traced, import_s)
        accounting = workloads.Tally()
        accounting.check(gap <= 1e-6 * max(1.0, metrics["trace.traced_wall_s"]),
                         f"self times plus unattributed miss the traced wall by {gap:.3e} s")
        traced[-1]["tally"].add(accounting)
        tracer.write(OUT / f"{stem}.spans.jsonl", origin)
        wanted = rows = spec["per_layer"]
        phases = {"untraced": untraced, "traced": traced}
    for row in wanted:
        if row["name"] not in metrics:
            raise BenchError(f"metric {row['name']} is not measured by this benchmark")

    all_rounds = [rnd for rounds in phases.values() for rnd in rounds]
    attempted = sum(rnd["tally"].attempted for rnd in all_rounds)
    failed = sum(rnd["tally"].failed for rnd in all_rounds)
    problems = [p for rnd in all_rounds for p in rnd["tally"].problems]
    timed = sum(op["timed"] for rnd in phases["untraced"] for op in rnd["ops"])
    print(f"bench {wl.name} seed={args.seed} trace={args.trace}: "
          f"{len(phases['untraced'])} rounds, {timed} timed invocations, "
          f"{failed} of {attempted} checks failed")
    for p in problems[:20]:
        print(f"  FAILED {p}")
    for row in rows:
        print(f"  {row['name']:<40} {fmt(metrics[row['name']]):>14} {row['unit']:<6}"
              f" ({row['better']} is better)")

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "fingerprint": fingerprint(args.seed),
        "setup_samples_s": setups,
        "metrics": {row["name"]: {"value": metrics[row["name"]], "unit": row["unit"],
                                  "better": row["better"]} for row in rows},
        "all_metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rounds": {phase: [{"wall_s": rnd["wall_s"], "ops": rnd["ops"]} for rnd in rounds]
                   for phase, rounds in phases.items()},
    }
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {row["name"]: {"value": metrics[row["name"]], "unit": row["unit"]}
                    for row in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    status = 0
    table = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.toy:
            argv.append("--toy")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(
            (OUT / f"{result_stem(name, args.seed, args.trace, args.toy)}.json")
            .read_text(encoding="utf-8"))
        table[name] = result["metrics"]
        if result["failed"]:
            status = 1
    print(json.dumps(table))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes for the self-test: one chain, N=4, one verify seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.setup_probe:
            print(setup(args.workload, args.seed, args.toy)[3])
            return 0
        if args.all:
            return run_all(args)
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
