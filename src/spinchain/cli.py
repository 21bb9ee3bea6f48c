"""Command-line workbench over the library: verification suites, spectra,
Bethe roots, anisotropy phase scans and Casimir asymptotics.

Every command reads one JSON object from --config, writes JSON (or CSV where
a fixed table is defined) and exits 0 on success, 1 when a verification
check fails, 2 on usage or config errors.  No numerical logic lives here;
identical config and seed produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from . import algebra, bethe, boundary, braid, lax, linalg, rmatrix

SCHEMA = "v1"
# validated bethe diagonalizes dense transfer matrices: (6, 1) at D = 729 takes
# 6 s and (10, 1/2) at D = 1024 takes 14 s and 187 MB on a 2-core box; larger
# chains, which need K = 2Nn + 8 dense matrices of up to 268 MB, are refused
VALIDATE_DIM = 1024
# casimir's one-site open transfer at 2s+1 = 256 takes 2 s and 172 MB on a
# 2-core box, at 1024 already 55 s and 2.3 GB
MAX_CASIMIR_DIM = 256
MAX_DELTA_STEPS = 10_000
MAX_PAIRS = 10_000
# each bethe restart is one Newton solve: 10 000 of them take 5 s at N = 2 on
# a 2-core box
MAX_RESTARTS = 10_000
# the frt suite embeds the cyclic Lax operators in (4p) x (4p) matrices
MAX_CYCLIC_ORDER = 64


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _check_keys(cfg: dict, allowed: set, required: set = frozenset()) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(required - set(cfg))
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")


def _as_int(value, key: str) -> int:
    """An integral number, such as 4 or 4.0; booleans and fractions are refused."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be an integer, not {value!r}") from exc
    if isinstance(value, bool) or n != value:
        raise ConfigError(f"{key} must be an integer, not {value!r}")
    return n


def _as_float(value, key: str) -> float:
    """A finite JSON number; booleans and numeric strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, not {value!r}")
    try:
        x = float(value)
    except OverflowError as exc:
        raise ConfigError(f"{key} must be a number, not {value!r}") from exc
    if not math.isfinite(x):
        raise ConfigError(f"{key} must be finite, not {value!r}")
    return x


def _as_spin(value, key: str, max_dim: int) -> tuple:
    """(s, 2s+1) for a positive half-integer spin s with 2s+1 <= max_dim."""
    s = _as_float(value, key)
    if not (s > 0 and (2 * s).is_integer() and 2 * s + 1 <= max_dim):
        raise ConfigError(f"{key}: spin {value!r} is not a positive half-integer "
                          f"with 2s+1 <= {max_dim}")
    return s, int(2 * s) + 1


def _flag_or_key(flag, cfg: dict, key: str, default: int) -> int:
    """A command-line flag wins over the integer config key of the same name."""
    return flag if flag is not None else _as_int(cfg.get(key, default), key)


def _check_threads(cfg: dict, args) -> None:
    """--threads and the threads key are validated and otherwise ignored:
    the work holds the interpreter lock, so every command runs on one thread."""
    _flag_or_key(args.threads, cfg, "threads", 1)


def _as_complex(value, key: str) -> complex:
    if isinstance(value, (int, float)):
        value = [value, 0.0]
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) for v in value)):
        raise ConfigError(f"{key} must be a number or a [re, im] pair")
    return complex(*(_as_float(v, key) for v in value))


def _resolve_mu(cfg: dict, default: complex = 0.3) -> complex:
    """Anisotropy input: delta or mu, never both; delta = cos(mu)."""
    if "delta" in cfg and "mu" in cfg:
        raise ConfigError("supply either delta or mu, not both")
    if "delta" in cfg:
        delta = _as_complex(cfg["delta"], "delta")
        mu = cmath.acos(delta)
        return mu
    if "mu" in cfg:
        return _as_complex(cfg["mu"], "mu")
    return complex(default)


def _comp(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _emit(payload: dict, rows, args, default_format: str) -> None:
    if (args.format or default_format) == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:  # csv: argparse allows no other --format
        if rows is None:
            raise ConfigError("csv output is not defined for this command")
        header, body = rows
        lines = [",".join(header)]
        lines.extend(",".join(str(v) for v in row) for row in body)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _perturbed(family, eps: complex):
    """Corrupt a matrix family by adding eps to its (0, 1) entry."""
    def ev(lam):
        m = np.array(family(lam), copy=True)
        m[0, 1] += eps
        return m

    return ev


def _random_pairs(rng, count: int):
    box = rng.uniform(-1.4, 1.4, size=(count, 4))
    return [
        (complex(a, b), complex(c, d)) for a, b, c, d in box
    ]


def _pairs(cfg: dict) -> int:
    pairs = _as_int(cfg.get("pairs", 20), "pairs")
    if not 1 <= pairs <= MAX_PAIRS:
        raise ConfigError(f"pairs must lie in [1, {MAX_PAIRS}]")
    return pairs


def _check(name: str, residual: float, tolerance: float, **params) -> dict:
    rec = {
        "identity": name,
        "residual": float(residual),
        "tolerance": tolerance,
        "pass": bool(residual < tolerance),
    }
    if params:
        rec["params"] = params
    return rec


# ---------------------------------------------------------------- verify

def _suite_ybe(cfg, seed) -> list:
    mu = _resolve_mu(cfg)
    model = cfg.get("model", "xxz")
    pairs = _pairs(cfg)
    eps = _as_complex(cfg.get("perturb", 0.0), "perturb")
    rng = np.random.default_rng(seed)
    draws = _random_pairs(rng, pairs)
    families = [("xxx rational R", rmatrix.xxx_family(), False)]
    if model == "xxz":
        hom = rmatrix.xxz_family(mu, "homogeneous")
        pri = rmatrix.xxz_family(mu, "principal")
        families += [
            ("xxz homogeneous R", hom, False),
            ("xxz principal R", pri, False),
            ("xxz homogeneous braided R", rmatrix.braided(hom), True),
        ]
    elif model != "xxx":
        raise ConfigError("model must be xxx or xxz")
    checks = []
    for name, fam, is_braided in families:
        fam = _perturbed(fam, eps) if eps else fam
        res_fn = rmatrix.braided_ybe_residual if is_braided else rmatrix.ybe_residual
        worst = max(res_fn(fam, *p) for p in draws)
        checks.append(_check(f"Yang-Baxter: {name}", worst, 1e-11, pairs=pairs))
        if not is_braided:
            _, reg = rmatrix.regularity_constant(fam)
            checks.append(_check(f"regularity R(0) = c P: {name}", reg, 1e-12))
    if model == "xxz":
        vg = rmatrix.gauge_v

        def gauge_gap(p):
            lam = p[0]
            lhs = rmatrix.r_xxz(lam, mu, "principal")
            conj = linalg.embed(vg(-lam), 1, (2, 2)) @ rmatrix.r_xxz(
                lam, mu, "homogeneous"
            ) @ linalg.embed(vg(lam), 1, (2, 2))
            if eps:
                conj = np.array(conj, copy=True)
                conj[0, 1] += eps
            return linalg.rel_norm(lhs, conj)

        worst = max(map(gauge_gap, draws))
        checks.append(_check("gradation gauge transform", worst, 1e-12, pairs=pairs))
        rep = algebra.uq_sl2_spin_rep(2, cmath.exp(1j * mu))
        fam = _perturbed(hom, eps) if eps else hom
        worst = max(rmatrix.intertwiner_residual(fam, rep, p[0]) for p in draws)
        checks.append(_check("coproduct intertwiner (homogeneous)", worst, 1e-10))
    return checks


def _suite_re(cfg, seed) -> list:
    mu = _resolve_mu(cfg)
    xi = _as_complex(cfg.get("xi", 0.5), "xi")
    kappa = _as_complex(cfg.get("kappa", 0.2), "kappa")
    m = _as_complex(cfg.get("m", 0.7), "m")
    gamma = _as_complex(cfg.get("gamma", 0.4), "gamma")
    pairs = _pairs(cfg)
    eps = _as_complex(cfg.get("perturb", 0.0), "perturb")
    rng = np.random.default_rng(seed)
    draws = _random_pairs(rng, pairs)
    cases = [
        ("identity K, xxz homogeneous", rmatrix.xxz_family(mu, "homogeneous"),
         boundary.k_identity()),
        ("identity K, xxz principal", rmatrix.xxz_family(mu, "principal"),
         boundary.k_identity()),
        ("identity K, xxx", rmatrix.xxx_family(), boundary.k_identity()),
        ("GZ-DVGR K, xxz homogeneous", rmatrix.xxz_family(mu, "homogeneous"),
         boundary.k_gz_dvgr(xi, kappa, "homogeneous")),
        ("GZ-DVGR K, xxz principal", rmatrix.xxz_family(mu, "principal"),
         boundary.k_gz_dvgr(xi, kappa, "principal")),
        ("blob K, xxz homogeneous", rmatrix.xxz_family(mu, "homogeneous"),
         boundary.k_blob(mu, m, gamma)),
    ]
    checks = []
    for name, rfam, kfam in cases:
        kev = _perturbed(kfam, eps) if eps else kfam
        worst = max(boundary.re_residual(rfam, kev, *p) for p in draws)
        checks.append(_check(f"reflection equation: {name}", worst, 1e-10, pairs=pairs))
    kgz = boundary.k_gz_dvgr(xi, kappa, "homogeneous")
    gap = linalg.rel_norm(kgz(0.0), cmath.sinh(1j * xi) * np.eye(2))
    checks.append(_check("GZ-DVGR K(0) = sinh(i xi) I", gap, 1e-12))
    for n, label in ((2, "spin-1/2"), (3, "spin-1")):
        rep = algebra.uq_sl2_spin_rep(n, cmath.exp(1j * mu))
        lfam = lax.lax_xxz(rep, "homogeneous")
        rfam = rmatrix.xxz_family(mu, "homogeneous")

        def dressed_res(p, lfam=lfam, rfam=rfam):
            def kd(lam):
                return boundary.dressed_k(lfam, boundary.k_identity(), lam)

            return boundary.re_residual(rfam, kd, p[0], p[1])

        worst = max(map(dressed_res, draws[: max(4, pairs // 4)]))
        checks.append(_check(f"dressed operatorial RE, {label}", worst, 1e-10))
    return checks


def _suite_braid(cfg, seed) -> list:
    mu = _resolve_mu(cfg)
    m = _as_complex(cfg.get("m", 0.7), "m")
    rng = np.random.default_rng(seed)
    lam1, lam2 = (complex(a, b) for a, b in rng.uniform(-1.0, 1.0, size=(2, 2)))
    q = cmath.exp(1j * mu)
    Q = 1j * cmath.exp(1j * mu * m)
    checks = []
    hecke2 = braid.hecke_rep(2, 4, q)
    hecke3 = braid.hecke_rep(3, 3, q)
    for fam, label in ((hecke2, "Hecke n=2, 4 sites"), (hecke3, "Hecke n=3, 3 sites")):
        for relname, residual in braid.check_braid_hecke(fam).items():
            checks.append(_check(f"{label}: {relname}", residual, 1e-10))
    for relname, residual in braid.check_temperley_lieb(hecke2).items():
        checks.append(_check(f"Temperley-Lieb n=2: {relname}", residual, 1e-10))
    blob_fam = braid.blob_rep(3, q, Q, 1.0)
    for relname, residual in braid.check_temperley_lieb(blob_fam).items():
        checks.append(_check(f"blob: {relname}", residual, 1e-10))
    for relname, residual in braid.check_btype_quotients(blob_fam).items():
        checks.append(_check(f"blob B-type: {relname}", residual, 1e-10))
    bax = lambda lam: rmatrix.baxterize(hecke2, 1, lam)[:4, :4]
    res = rmatrix.braided_ybe_residual(bax, lam1, lam2)
    checks.append(_check("baxterized Hecke satisfies braided YBE", res, 1e-10))
    return checks


def _suite_frt(cfg, seed) -> list:
    mu = _resolve_mu(cfg)
    pairs = _pairs(cfg)
    p = _as_int(cfg.get("p", 5), "p")
    if not 2 <= p <= MAX_CYCLIC_ORDER:
        raise ConfigError(f"p must lie in [2, {MAX_CYCLIC_ORDER}]")
    k = _as_int(cfg.get("k", 1), "k")
    if k % p == 0:
        raise ConfigError("k must not be a multiple of p: q = e^{2 pi i k/p} = 1 "
                          "degenerates the cyclic representation")
    s = _as_complex(cfg.get("s", 0.7), "s")
    eps = _as_complex(cfg.get("perturb", 0.0), "perturb")
    rng = np.random.default_rng(seed)
    draws = _random_pairs(rng, pairs)
    q = cmath.exp(1j * mu)
    cases = [
        ("xxx Lax, spin-1/2", rmatrix.xxx_family(), lax.lax_xxx(algebra.sl2_spin_rep(2))),
        ("xxx Lax, spin-1", rmatrix.xxx_family(), lax.lax_xxx(algebra.sl2_spin_rep(3))),
    ]
    for grad in ("homogeneous", "principal"):
        for n, label in ((2, "spin-1/2"), (3, "spin-1")):
            rep = algebra.uq_sl2_spin_rep(n, q)
            cases.append(
                (f"xxz Lax, {label}, {grad}", rmatrix.xxz_family(mu, grad),
                 lax.lax_xxz(rep, grad))
            )
    mu_c = 2 * cmath.pi * k / p
    rp = rmatrix.xxz_family(mu_c, "principal")
    cases += [
        ("cyclic generic-spin Lax", rp, lax.lax_generic_xxz(p, s, k)),
        ("lattice sine-Gordon Lax", rp, lax.lax_sine_gordon(p, s, k)),
        ("q-oscillator Lax", rp, lax.lax_qoscillator(p, k)),
        ("lattice Liouville Lax", rp, lax.lax_liouville(p, s, k)),
    ]
    checks = []
    for name, rfam, lx in cases:
        rev = _perturbed(rfam, eps) if eps else rfam

        def rll(pair, rev=rev, lx=lx):
            return lax.rll_residual(rev, lx, pair[0], pair[1])

        worst = max(map(rll, draws))
        checks.append(_check(f"RLL relation: {name}", worst, 1e-10, pairs=pairs))
    rep = algebra.uq_sl2_spin_rep(2, q)
    for relname, residual in lax.triangular_residuals(rep).items():
        checks.append(_check(f"triangular FRT: {relname}", residual, 1e-10))
    return checks


def _casimir_entry(spin: float, n: int, q: complex) -> dict:
    """Checks of the quantum Casimir C on the n-dimensional irrep: C commutes
    with the generators, is a scalar there, and the transfer limits t+- are
    multiples of it; with the scalar and the two multiples."""
    rep = algebra.uq_sl2_spin_rep(n, q)
    cas = algebra.casimir_uq(rep)
    worst = max(linalg.comm_norm(cas, rep.gen(g)) for g in ("Jp", "Jm", "qJz"))
    scalar = np.trace(cas) / n
    entry = {"spin": spin, "casimir_scalar": _comp(scalar), "checks": [
        _check("commutes with generators", worst, 1e-10),
        _check("scalar on the irrep", linalg.rel_norm(cas, scalar * np.eye(n)), 1e-10),
    ]}
    for label, tmat in zip(("plus", "minus"), boundary.casimir_from_asymptotics(rep)):
        coef = np.vdot(cas, tmat) / np.vdot(cas, cas)
        entry["checks"].append(_check(f"t_{label} proportional to the Casimir",
                                      linalg.rel_norm(tmat, coef * cas), 1e-9))
        entry[f"t_{label}_coefficient"] = _comp(coef)
    return entry


def _suite_symmetry(cfg, seed) -> list:
    mu = _resolve_mu(cfg)
    q = cmath.exp(1j * mu)
    rng = np.random.default_rng(seed)
    checks = []
    for grad, mmat in (("homogeneous", np.diag([q, 1 / q])), ("principal", np.eye(2))):
        r = rmatrix.r_xxz(0.31, mu, grad)
        gap = linalg.comm_norm(r, np.kron(mmat, mmat))
        checks.append(_check(f"[R, M x M] = 0, {grad}", gap, 1e-12))
    chain = boundary.open_chain("xxz", 3, mu, 2, "homogeneous")
    fam = boundary.open_transfer(chain)
    cop = algebra.ncoproduct(algebra.uq_sl2_spin_rep(2, q), 3)
    tmats = [fam(float(lam)) for lam in rng.uniform(-1.0, 1.0, 5)]
    for label in ("Jp", "Jm", "qJz"):
        worst = max(linalg.comm_norm(t, cop.image(label)) for t in tmats)
        checks.append(_check(f"open transfer commutes with Delta({label})", worst, 1e-10))
    H = boundary.open_hamiltonian(chain)
    model = boundary.uq_invariant_hamiltonian(3, mu)
    _, resid = linalg.fit_affine(H, [model, np.eye(8)])
    checks.append(_check("open H fits the invariant form (affine)", resid, 1e-8))
    names = ("Casimir commutes with generators", "Casimir scalar on the irrep",
             "transfer asymptotics proportional to Casimir")
    for n, label in ((2, "spin-1/2"), (3, "spin-1")):
        entry = _casimir_entry((n - 1) / 2, n, q)
        # the first three Casimir checks (t_plus only), under this suite's names
        checks += [dict(c, identity=f"{name}, {label}") for c, name in zip(entry["checks"], names)]
    return checks


_SUITES = {
    "ybe": (_suite_ybe, {"suite", "model", "mu", "delta", "pairs", "seed",
                         "perturb", "threads"}),
    "re": (_suite_re, {"suite", "mu", "delta", "pairs", "seed", "xi", "kappa",
                       "m", "gamma", "perturb", "threads"}),
    "braid": (_suite_braid, {"suite", "mu", "delta", "m", "seed", "threads"}),
    "frt": (_suite_frt, {"suite", "mu", "delta", "pairs", "seed", "p", "k", "s",
                         "perturb", "threads"}),
    "symmetry": (_suite_symmetry, {"suite", "mu", "delta", "seed", "threads"}),
}


def cmd_verify(cfg: dict, args) -> int:
    if "suite" not in cfg:
        raise ConfigError("verify config needs a suite")
    suite = cfg["suite"]
    if not isinstance(suite, str) or suite not in _SUITES:
        raise ConfigError(f"unknown suite: {suite!r}; pick one of {sorted(_SUITES)}")
    runner, allowed = _SUITES[suite]
    _check_keys(cfg, allowed)
    seed = _flag_or_key(args.seed, cfg, "seed", 0)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, not {seed}")
    _check_threads(cfg, args)
    try:
        checks = runner(cfg, seed)
    except (ValueError, ArithmeticError) as exc:  # e.g. q = e^{i mu} = 1, or out of range
        raise ConfigError(f"{suite} suite: {exc}") from exc
    ok = all(c["pass"] for c in checks)
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "suite": suite,
        "mu": _comp(_resolve_mu(cfg)),
        "seed": seed,
        "checks": checks,
        "status": "ok" if ok else "fail",
    }
    _emit(payload, None, args, "json")
    return 0 if ok else 1


def cmd_spectrum(cfg: dict, args) -> int:
    _check_keys(cfg, {"N", "delta", "mu", "boundary"}, {"N"})
    N = _as_int(cfg["N"], "N")
    boundary_kind = cfg.get("boundary", "periodic")
    if boundary_kind not in ("periodic", "open"):
        raise ConfigError("boundary must be periodic or open")
    if "delta" in cfg and "mu" not in cfg:
        delta = _as_complex(cfg["delta"], "delta")
    else:  # _resolve_mu refuses delta and mu together
        try:
            delta = cmath.cos(_resolve_mu(cfg, default=cmath.acos(0.5)))
        except OverflowError as exc:
            raise ConfigError(f"cos(mu) is out of range: {exc}") from exc
    if abs(delta.imag) > 1e-14:
        raise ConfigError("spectrum needs a real delta (a real mu); H is not Hermitian otherwise")
    delta = delta.real
    if not 1 <= N <= 12:  # 2^N <= 4096
        raise ConfigError("N must keep the Hilbert dimension within [2, 4096]")
    if N == 1:
        levels = [{"energy": 0.0, "sz": -0.5}, {"energy": 0.0, "sz": 0.5}]
    else:
        levels = lax.spectrum_table(N, delta, boundary_kind)
    payload = {
        "schema": SCHEMA,
        "command": "spectrum",
        "N": N,
        "delta": delta,
        "boundary": boundary_kind,
        "levels": levels,
        "status": "ok",
    }
    header = ["energy", "sz", "momentum"]
    body = [
        [rec["energy"], rec["sz"], rec.get("momentum", "")] for rec in levels
    ]
    _emit(payload, (header, body), args, "json")
    return 0


def cmd_bethe(cfg: dict, args) -> int:
    _check_keys(
        cfg,
        {"N", "s", "mu", "delta", "M", "seed", "restarts", "threads",
         "validate", "rtol"},
        {"N"},
    )
    N = _as_int(cfg["N"], "N")
    s, n = _as_spin(cfg.get("s", 0.5), "s", 4096)
    mu = _resolve_mu(cfg)
    seed = _flag_or_key(args.seed, cfg, "seed", 0)
    _check_threads(cfg, args)
    restarts = _as_int(cfg.get("restarts", 120), "restarts")
    if not 0 <= restarts <= MAX_RESTARTS:
        raise ConfigError(f"restarts must lie in [0, {MAX_RESTARTS}]")
    validate = cfg.get("validate", True)
    if not isinstance(validate, bool):
        raise ConfigError(f"validate must be true or false, not {validate!r}")
    rtol = _as_float(cfg.get("rtol", 1e-7), "rtol")
    if not 0 < rtol < 1:
        raise ConfigError(f"rtol must lie in (0, 1), not {rtol!r}")
    M = _as_int(cfg["M"], "M") if "M" in cfg else None
    # N <= 12 first, so that a huge N never becomes a huge n^N
    if not 1 <= N <= 12 or n**N > 4096:
        raise ConfigError("N and s must keep the Hilbert dimension (2s+1)^N within 4096")
    if validate and n**N > VALIDATE_DIM:
        raise ConfigError(
            f"validated bethe needs (2s+1)^N <= {VALIDATE_DIM} (its dense ED takes minutes "
            "there already); validate: false allows 4096"
        )
    if M is not None and not 0 <= M <= (n - 1) * N:
        raise ConfigError(f"M must lie in [0, 2sN] = [0, {(n - 1) * N}]")
    payload = {
        "schema": SCHEMA,
        "command": "bethe",
        "N": N,
        "s": s,
        "mu": _comp(mu),
        "seed": seed,
        "restarts": restarts,
    }
    if not validate and M is None:
        raise ConfigError("bethe without validation needs M")
    try:
        if validate:
            report = bethe.validate_against_ed(
                N, s, mu, M_range=None if M is None else [M], rtol=rtol
            )
            payload["report"] = report
            ok = report["mismatched_solutions"] == 0
        else:
            sols = bethe.solve_bae(N, s, mu, M, seed=seed, restarts=restarts)
            payload["solutions"] = [bethe.solution_record(sol) for sol in sols]
            ok = True
    except (ValueError, OverflowError) as exc:  # OverflowError: q = e^{i mu} out of range
        raise ConfigError(str(exc)) from exc
    payload["status"] = "ok" if ok else "fail"
    _emit(payload, None, args, "json")
    return 0 if ok else 1


def _delta_grid(cfg: dict) -> list:
    listed = "deltas" in cfg
    ranged = any(k in cfg for k in ("delta_start", "delta_stop", "delta_steps"))
    if listed and ranged:
        raise ConfigError("supply either deltas or a delta range, not both")
    if listed:
        if not isinstance(cfg["deltas"], list) or not cfg["deltas"]:
            raise ConfigError("deltas must be a non-empty list")
        return [_as_float(d, "deltas") for d in cfg["deltas"]]
    if ranged:
        try:
            start = _as_float(cfg["delta_start"], "delta_start")
            stop = _as_float(cfg["delta_stop"], "delta_stop")
            steps = _as_int(cfg["delta_steps"], "delta_steps")
        except KeyError as exc:
            raise ConfigError("delta range needs delta_start, delta_stop, delta_steps") from exc
        if not 2 <= steps <= MAX_DELTA_STEPS:
            raise ConfigError(f"delta_steps must lie in [2, {MAX_DELTA_STEPS}]")
        return [float(d) for d in np.linspace(start, stop, steps)]
    raise ConfigError("phase-scan needs deltas or a delta range")


def cmd_phase_scan(cfg: dict, args) -> int:
    _check_keys(
        cfg,
        {"N", "deltas", "delta_start", "delta_stop", "delta_steps", "boundary",
         "threads"},
        {"N"},
    )
    N = _as_int(cfg["N"], "N")
    boundary_kind = cfg.get("boundary", "periodic")
    if boundary_kind not in ("periodic", "open"):
        raise ConfigError("boundary must be periodic or open")
    if not 2 <= N <= 12:  # 2^N <= 4096
        raise ConfigError("N must keep the Hilbert dimension within [4, 4096]")
    _check_threads(cfg, args)
    grid = _delta_grid(cfg)

    def scan(delta: float) -> dict:
        levels = lax.spectrum_table(N, delta, boundary_kind)
        e0 = levels[0]["energy"]
        ground = [rec for rec in levels if rec["energy"] - e0 < 1e-8]
        return {
            "delta": delta,
            "e0": e0,
            "degeneracy": len(ground),
            "sz_abs": max(abs(rec["sz"]) for rec in ground),
        }

    table = [scan(delta) for delta in grid]
    payload = {
        "schema": SCHEMA,
        "command": "phase-scan",
        "N": N,
        "boundary": boundary_kind,
        "rows": table,
        "status": "ok",
    }
    header = ["delta", "e0", "degeneracy", "sz_abs"]
    body = [[r["delta"], r["e0"], r["degeneracy"], r["sz_abs"]] for r in table]
    _emit(payload, (header, body), args, "csv")
    return 0


def cmd_casimir(cfg: dict, args) -> int:
    _check_keys(cfg, {"spins", "mu", "delta"})
    mu = _resolve_mu(cfg)
    spins = cfg.get("spins", [0.5, 1.0])
    if not isinstance(spins, list) or not spins:
        raise ConfigError("spins must be a non-empty list")
    reps = [_as_spin(spin, "spins", MAX_CASIMIR_DIM) for spin in spins]
    try:
        q = cmath.exp(1j * mu)
        results = [_casimir_entry(spin, n, q) for spin, n in reps]
    except (ValueError, ArithmeticError) as exc:  # e.g. q = e^{i mu} = 1, or out of range
        raise ConfigError(f"casimir: {exc}") from exc
    ok = all(c["pass"] for entry in results for c in entry["checks"])
    payload = {
        "schema": SCHEMA,
        "command": "casimir",
        "mu": _comp(mu),
        "representations": results,
        "status": "ok" if ok else "fail",
    }
    _emit(payload, None, args, "json")
    return 0 if ok else 1


_COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "bethe": cmd_bethe,
    "phase-scan": cmd_phase_scan,
    "casimir": cmd_casimir,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="workbench",
        description="Integrable spin-chain workbench (verification, spectra, "
                    "Bethe roots, phase scans, Casimir asymptotics).",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
