"""The benchmark's workloads: inputs made from a seed, and output checks.

A workload is a sequence of rounds; a round is a list of `workbench`
invocations run one after another (closed loop, one caller).  Inputs come
only from the workload seed, so the same seed gives the same rounds.  Every
check function turns one invocation's exit code and JSON output into a
Tally of attempted and failed checks; these checks are the benchmark's own
and do not use the acceptance-test floors.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

MU = 0.3
CHAINS = ((2, 0.5), (4, 0.5), (6, 0.5), (2, 1.0))  # acceptance criterion 6
SPECTRUM_N = 12  # D = 4096, the advertised cap
CLEAN_SUITES = ("ybe", "re", "braid", "frt", "symmetry")
NEGATIVE_SUITES = ("ybe", "re", "frt")
PERTURB = 1e-4
# solve_bae adds 7 structured starts to the `restarts` random ones.
STRUCTURED_STARTS = 7
# Clean verify invocations needed so that at least ten lie beyond p90.
MIN_LATENCY_SAMPLES = 100
SPECTRUM_TOL = 1e-8


@dataclass
class Tally:
    """Checks attempted and failed, plus the Bethe census counts."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    levels: int = 0
    solutions: int = 0
    starts: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)
        self.levels += other.levels
        self.solutions += other.solutions
        self.starts += other.starts


@dataclass(frozen=True)
class Op:
    """One `workbench` invocation and the check for its output."""

    label: str
    command: str
    config: dict
    seed: int | None
    check: Callable
    timed: bool = True  # counted in the op latency percentiles

    def argv(self, config_path: str) -> list:
        argv = [self.command, "--config", config_path, "--threads", "1"]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv


def check_bethe(rc, payload) -> Tally:
    """A chain that exits non-zero fails; so does every mismatched solution
    and every sector whose Sz or coverage is impossible."""
    tally = Tally()
    tally.check(rc == 0, f"bethe exit code {rc}")
    report = (payload or {}).get("report")
    if rc != 0 or report is None:
        return tally
    N, s = report["N"], report["s"]
    n = round(2 * s + 1)
    tally.solutions = report["total_solutions"]
    tally.levels = report["coverage"][0]
    mismatched = report["mismatched_solutions"]
    tally.attempted += tally.solutions
    tally.failed += mismatched
    if mismatched:
        tally.problems.append(f"N={N} s={s}: {mismatched} mismatched solutions")
    dims = 0
    for sector in report["sectors"]:
        M, dim = sector["M"], sector["dimension"]
        dims += dim
        tally.check(sector["sz"] == N * s - M, f"N={N} s={s} M={M}: sz {sector['sz']}")
        tally.check(sector["levels_matched"] <= dim,
                    f"N={N} s={s} M={M}: {sector['levels_matched']} levels of {dim}")
        if M >= 1:
            tally.starts += payload["restarts"] + STRUCTURED_STARTS
    tally.check(dims == n**N and tally.levels <= dims,
                f"N={N} s={s}: coverage {report['coverage']} over sectors of {dims}")
    return tally


def check_spectrum(rc, payload, N: int) -> Tally:
    """The five spectrum checks: level count, sector sizes C(N, m),
    sum E = tr H = 0, the spin-flip symmetry E(Sz) = E(-Sz), and integer
    momenta in [0, N)."""
    tally = Tally()
    levels = (payload or {}).get("levels") if rc == 0 else None
    if levels is None:
        for what in ("levels", "sectors", "trace", "spin flip", "momenta"):
            tally.check(False, f"spectrum exit code {rc}: no {what}")
        return tally
    tally.check(len(levels) == 2**N, f"{len(levels)} levels, expected {2**N}")
    by_sz: dict = {}
    for rec in levels:
        by_sz.setdefault(rec["sz"], []).append(rec["energy"])
    sizes = {N / 2 - m: math.comb(N, m) for m in range(N + 1)}
    tally.check({sz: len(e) for sz, e in by_sz.items()} == sizes, "sector sizes differ from C(N, m)")
    total = math.fsum(rec["energy"] for rec in levels)
    tally.check(abs(total) <= SPECTRUM_TOL, f"sum of energies {total:.3e} != tr H = 0")
    flip = max(
        max((abs(a - b) for a, b in zip(sorted(e), sorted(by_sz.get(-sz, [])))), default=0.0)
        if len(e) == len(by_sz.get(-sz, [])) else math.inf
        for sz, e in by_sz.items()
    )
    tally.check(flip <= SPECTRUM_TOL, f"spin-flip gap {flip:.3e}")
    tally.check(all(isinstance(rec.get("momentum"), int) and 0 <= rec["momentum"] < N
                    for rec in levels), f"momentum outside [0, {N})")
    return tally


def check_verify(rc, payload, negative: bool) -> Tally:
    """A clean suite must pass (exit 0); a negative control must fail (exit 1)."""
    tally = Tally()
    expected = (1, "fail") if negative else (0, "ok")
    status = (payload or {}).get("status")
    kind = "negative control" if negative else "clean suite"
    tally.check((rc, status) == expected, f"{kind} exit {rc}, status {status}")
    return tally


class BetheCensus:
    """`workbench bethe` with validation over the criterion 6 chains; every
    round is the same, since the seed feeds the solver's start stream."""

    name = "bethe-census"
    min_rounds = 1

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.chains = CHAINS[:1] if toy else CHAINS

    def round(self, r: int) -> list:
        return [
            Op(f"bethe N={N} s={s}", "bethe", {"N": N, "s": s, "mu": MU}, self.seed, check_bethe)
            for N, s in self.chains
        ]


class SpectrumCap:
    """`workbench spectrum` of the periodic XXZ chain at the 4096 cap; each
    round draws its own delta in (-1, 1) from the seed."""

    name = "spectrum-cap"
    min_rounds = 2  # wall_s is then a median of at least two rounds

    def __init__(self, seed: int, toy: bool = False):
        self.N = 4 if toy else SPECTRUM_N
        self._rng = random.Random(seed)
        self.deltas: list = []

    def round(self, r: int) -> list:
        while len(self.deltas) <= r:
            self.deltas.append(self._rng.uniform(-1.0, 1.0))
        config = {"N": self.N, "delta": self.deltas[r], "boundary": "periodic"}
        return [Op(f"spectrum N={self.N}", "spectrum", config, None,
                   partial(check_spectrum, N=self.N))]


class VerifySweep:
    """The five `workbench verify` suites plus the three negative controls,
    one round per suite seed drawn from the workload seed."""

    name = "verify-sweep"

    def __init__(self, seed: int, toy: bool = False):
        self._rng = random.Random(seed)
        self.seeds: list = []
        self.min_rounds = 1 if toy else -(-MIN_LATENCY_SAMPLES // len(CLEAN_SUITES))

    def round(self, r: int) -> list:
        while len(self.seeds) <= r:
            self.seeds.append(self._rng.randrange(2**31))
        seed = self.seeds[r]
        ops = []
        for suite in CLEAN_SUITES:
            ops.append(Op(f"verify {suite}", "verify", {"suite": suite, "mu": MU}, seed,
                          partial(check_verify, negative=False)))
            if suite in NEGATIVE_SUITES:
                ops.append(Op(f"verify {suite} perturbed", "verify",
                              {"suite": suite, "mu": MU, "perturb": PERTURB}, seed,
                              partial(check_verify, negative=True), timed=False))
        return ops


WORKLOADS = {cls.name: cls for cls in (BetheCensus, SpectrumCap, VerifySweep)}
