"""Interleaved A/B timing of two trees' workbench, in one process.

    OPENBLAS_NUM_THREADS=1 python tests/ab_time.py A_SRC B_SRC [--pairs N] [--workload NAME ...] [--each]

copies the `spinchain` package of each tree (A_SRC and B_SRC are checkouts'
`src`) under its own name into a temporary directory, imports both, and
times the benchmark's invocations (`bench/workloads.py`, seed 0, first
round) through each side's `cli.main` with `time.process_time`:

  bethe-census  the four validated chains of acceptance criterion 6
  spectrum-cap  the periodic spectrum at N = 12
  verify-sweep  the five clean verify suites and the three negative controls

--workload NAME, repeatable, times only the named workloads (all three
by default).  Each pair runs a workload's invocations once on each side, A
first in even pairs and B first in odd ones, after one untimed round per
side.  It prints per workload and side the median and the quartiles of the
pairs in ms, the median per invocation (the pair median over the number of
invocations in the round) and the number of pairs that side won.  --each
also prints, per invocation label of the workload (`bethe N=6 s=0.5`,
...), each side's median over the pairs and the number of pairs B won
there, so that a change shows which invocations moved.  Both
sides must give every invocation the same exit code.  Separate benchmark
processes drift apart by tens of percent on a busy machine; alternating in
one process cancels most of that drift.  Not a test module: pytest
collects only `test_*.py`.
"""

import argparse
import contextlib
import importlib
import io
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (the benchmark's invocations)


def load_cli(src: str, name: str, tmp: Path):
    """The `cli` module of SRC/spinchain, imported as package `name`."""
    shutil.copytree(Path(src) / "spinchain", tmp / name)
    return importlib.import_module(f"{name}.cli")


def run(main, argvs: list) -> tuple:
    """([process seconds of each], exit codes) of main over the argument lists."""
    codes, seconds = [], []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            start = time.process_time()
            codes.append(main(argv))
            seconds.append(time.process_time() - start)
    return seconds, codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a_src")
    parser.add_argument("b_src")
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS),
                        help="time only this workload; repeatable (default: all)")
    parser.add_argument("--each", action="store_true",
                        help="also print each side's median per invocation label")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        sys.path.insert(0, str(tmp))
        sides = {"A": load_cli(args.a_src, "spinchain_a", tmp).main,
                 "B": load_cli(args.b_src, "spinchain_b", tmp).main}
        print(f"{'workload':<14}{'side':<6}{'median_ms':>10}{'q1_ms':>10}{'q3_ms':>10}"
              f"{'per_op_ms':>10}{'won':>6}")
        for wl_name in args.workload or workloads.WORKLOADS:
            cls = workloads.WORKLOADS[wl_name]
            argvs, labels = [], []
            for k, op in enumerate(cls(0).round(0)):
                path = tmp / f"{wl_name}-{k}.json"
                path.write_text(json.dumps(op.config), encoding="utf-8")
                argvs.append(op.argv(str(path)))
                labels.append(op.label)
            codes = {side: run(cli_main, argvs)[1] for side, cli_main in sides.items()}
            if codes["A"] != codes["B"]:
                print(f"{wl_name}: exit codes differ, A {codes['A']}, B {codes['B']}", file=sys.stderr)
                return 1
            each = {"A": [], "B": []}  # per pair, the seconds of every invocation
            for pair in range(args.pairs):
                for side in ("AB" if pair % 2 == 0 else "BA"):
                    each[side].append(run(sides[side], argvs)[0])
            times = {side: [sum(rnd) for rnd in rounds] for side, rounds in each.items()}
            for side, other in (("A", "B"), ("B", "A")):
                ms = [1e3 * t for t in times[side]]
                q1, med, q3 = statistics.quantiles(ms, n=4)
                won = sum(t < u for t, u in zip(times[side], times[other]))
                print(f"{wl_name if side == 'A' else '':<14}{side:<6}{med:>10.2f}{q1:>10.2f}{q3:>10.2f}"
                      f"{med / len(argvs):>10.2f}{won:>6}")
            if args.each:
                print(f"  {'invocation':<26}{'A_median_ms':>12}{'B_median_ms':>12}{'B_won':>6}")
                for k, label in enumerate(labels):
                    a, b = ([rnd[k] for rnd in each[side]] for side in "AB")
                    print(f"  {label:<26}{1e3 * statistics.median(a):>12.2f}"
                          f"{1e3 * statistics.median(b):>12.2f}{sum(u < t for t, u in zip(a, b)):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
