"""Command-line workbench over the library: verification suites, spectra,
Bethe roots, anisotropy phase scans and Casimir asymptotics.

Every command has one shape: `cmd_*` reads the JSON object loaded from
--config, checks its keys and values, runs the library and returns
(fields, rows, ok): its own top-level payload values, its CSV table
(header, body) or None where CSV is not defined, and whether every check
passed.  Only verify reads a flag, the --seed value.  `main` does the rest
once: it adds the schema, the command and the status ("ok" or "fail", from
ok), writes JSON or CSV in the command's default format from `_COMMANDS`
unless --format is given, and exits 0 with "ok", 1 with "fail".  Every
error that the library raises on a config's values (a ValueError or an
ArithmeticError) exits 2 with one `config error:` line and nothing on
stdout, mapped in the same place, which also sets the one floating-point
policy: an overflow or invalid operation raises FloatingPointError (an
ArithmeticError) instead of warning.  Identical config and seed produce
byte-identical JSON.  No command takes a threads key: --threads is
accepted, on every command, and ignored, since the BLAS library takes its
thread count from the environment (OPENBLAS_NUM_THREADS for OpenBLAS).

The JSON is json.dumps(payload, sort_keys=True, indent=2), byte for byte,
written by `_dumps` one top-level value at a time; `spectrum` hands it its
levels as a column table, whose rows are filled from the distinct values of
each column rather than encoded record by record.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from functools import partial

import numpy as np

from . import algebra, bethe, boundary, braid, lax, linalg, rmatrix

SCHEMA = "v1"
# the longest spin-1/2 chain within the Hilbert cap linalg.MAX_DIM
MAX_N = linalg.MAX_DIM.bit_length() - 1
# validated bethe checks its census against dense sector ED at three probes,
# whose sector blocks of t come off the Lax kernel in one pass over every
# sector: (6, 1) at D = 729 takes 1.7 to 2.3 s and 55 MB, (10, 1/2) at
# D = 1024 3.3 to 4.0 s and 72 MB on a 2-core box, under 1 or 2 BLAS threads;
# at the 4096 cap that pass's image is D x D, 268 MB, so larger chains are
# refused: the census of (12, 1/2, M = 6) alone takes 12 to 19 s and 193 MB
VALIDATE_DIM = 1024
# the site dimension 2s+1 of casimir and bethe: a casimir spin takes 0.5 s and
# 66 MB at 256 on a 2-core box, 9 s and 414 MB at 1024; bethe builds a
# 2(2s+1)-square Lax matrix per site in each of its M + 4 sector passes (M the
# largest source sector, at most N s; see bethe._TQ_MARGIN) and validation's 3
# probe passes, and one validated site at 2s+1 = 256 takes 3.2 to 5.1 s
MAX_SITE_DIM = 256
MAX_DELTA_STEPS = 10_000
MAX_PAIRS = 10_000
# bethe's restarts changes no result (its roots come from the TQ census of
# the sector); it stays accepted, bounded and echoed only because the
# benchmark (bench/workloads.py) reads it back from the output
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
        return cmath.acos(_as_complex(cfg["delta"], "delta"))
    if "mu" in cfg:
        return _as_complex(cfg["mu"], "mu")
    return complex(default)


def _comp(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _dumps(payload: dict) -> str:
    """json.dumps(payload, sort_keys=True, indent=2), byte for byte, for a
    dict with string keys.  Each value is json.dumps(value, sort_keys=True,
    indent=2) re-indented by two spaces: json.dumps escapes every newline
    inside a string, so each raw newline is indentation.

    A value that is a numpy structured array of numeric columns, at this
    first level only, is a column table, written as json.dumps writes the
    list of its rows' records (`tolist`): each column's distinct values, by
    bit pattern so that -0.0 and 0.0 stay apart, are encoded once by
    json.dumps of their list (no indent, so the C encoder runs, and a
    number's text holds no ", "), and one % fills a row template.  At N = 12
    the 4,096 levels of `spectrum` hold 1,459 distinct energies."""
    parts = []
    for key in sorted(payload):
        value = payload[key]
        parts += [",\n  " if parts else "{\n  ", json.dumps(key), ": "]
        if not isinstance(value, np.ndarray):
            parts.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  "))
        elif not len(value):
            parts.append("[]")
        else:
            names = sorted(value.dtype.names)
            cells = np.empty((len(value), len(names)), dtype=object)
            for j, name in enumerate(names):
                col = value[name]
                bits, where = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
                texts = json.dumps(bits.view(col.dtype).tolist())[1:-1].split(", ")
                cells[:, j] = np.array(texts, dtype=object)[where]
            fields = ",".join(f"\n      {json.dumps(name).replace('%', '%%')}: %s"
                              for name in names)
            rows = ",\n    ".join(["{" + fields + "\n    }"] * len(value))
            parts += ["[\n    ", rows % tuple(cells.ravel().tolist()), "\n  ]"]
    return "".join(parts + ["\n}"]) if parts else "{}"


def _emit(payload: dict, rows, fmt: str, out) -> None:
    if fmt == "json":
        text = _dumps(payload) + "\n"
    else:  # csv: argparse allows no other --format
        if rows is None:
            raise ConfigError("csv output is not defined for this command")
        header, body = rows
        lines = [",".join(header)]
        lines.extend(",".join(str(v) for v in row) for row in body)
        text = "\n".join(lines) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _perturbed(family, eps: complex):
    """Corrupt a matrix family by adding eps to its (0, 1) entry: scalar ->
    matrix, 1-D array -> stack, whatever family takes."""
    @linalg.stacking
    def ev(lam):
        m = np.array(linalg.at_draws(family, lam), copy=True)
        m[..., 0, 1] += eps
        return m

    return ev


def _draws(cfg: dict, seed) -> tuple:
    """(pairs, perturb, lambda1s, lambda2s): the config's pairs and perturb,
    and that many draws (lambda1, lambda2) in a box from the seeded generator."""
    pairs = _as_int(cfg.get("pairs", 20), "pairs")
    if not 1 <= pairs <= MAX_PAIRS:
        raise ConfigError(f"pairs must lie in [1, {MAX_PAIRS}]")
    eps = _as_complex(cfg.get("perturb", 0.0), "perturb")
    box = np.random.default_rng(seed).uniform(-1.4, 1.4, size=(pairs, 4))
    return pairs, eps, [complex(a, b) for a, b, _, _ in box], [complex(c, d) for _, _, c, d in box]


def _check(name: str, residual: float, tolerance: float, **params) -> dict:
    # a NaN residual fails; the suites reduce their draws with np.max, which keeps a NaN
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

def _gauge_gaps(mu: complex, eps: complex, lams: list):
    """rel_norm(R^p(l), V(-l) R^h(l) V(l)) at each l, the gauge map between
    the two gradations; eps corrupts the conjugate like _perturbed."""
    def evaluate(lam):
        return (rmatrix.r_xxz(lam, mu, "principal"), rmatrix.gauge_v(-lam),
                rmatrix.r_xxz(lam, mu, "homogeneous"), rmatrix.gauge_v(lam))

    def combine(dims, principal, v_minus, homogeneous, v_plus):
        conj = linalg.embed(v_minus, 1, dims) @ homogeneous @ linalg.embed(v_plus, 1, dims)
        if eps:
            conj[:, 0, 1] += eps
        return linalg.rel_norm(principal, conj)

    return linalg.over_draws(evaluate, lambda *_: (2, 2), combine, lams)


def _suite_ybe(cfg, seed) -> list:
    mu = _resolve_mu(cfg)
    model = cfg.get("model", "xxz")
    pairs, eps, lam1, lam2 = _draws(cfg, seed)
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
        worst = np.max(res_fn(fam, lam1, lam2))
        checks.append(_check(f"Yang-Baxter: {name}", worst, 1e-11, pairs=pairs))
        if not is_braided:
            _, reg = rmatrix.regularity_constant(fam)
            checks.append(_check(f"regularity R(0) = c P: {name}", reg, 1e-12))
    if model == "xxz":
        worst = np.max(_gauge_gaps(mu, eps, lam1))
        checks.append(_check("gradation gauge transform", worst, 1e-12, pairs=pairs))
        rep = algebra.uq_sl2_spin_rep(2, cmath.exp(1j * mu))
        fam = _perturbed(hom, eps) if eps else hom
        worst = np.max(rmatrix.intertwiner_residual(fam, rep, lam1))
        checks.append(_check("coproduct intertwiner (homogeneous)", worst, 1e-10))
    return checks


def _suite_re(cfg, seed) -> list:
    mu = _resolve_mu(cfg)
    xi = _as_complex(cfg.get("xi", 0.5), "xi")
    kappa = _as_complex(cfg.get("kappa", 0.2), "kappa")
    m = _as_complex(cfg.get("m", 0.7), "m")
    gamma = _as_complex(cfg.get("gamma", 0.4), "gamma")
    pairs, eps, lam1, lam2 = _draws(cfg, seed)
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
        worst = np.max(boundary.re_residual(rfam, kev, lam1, lam2))
        checks.append(_check(f"reflection equation: {name}", worst, 1e-10, pairs=pairs))
    kgz = boundary.k_gz_dvgr(xi, kappa, "homogeneous")
    gap = linalg.rel_norm(kgz(0.0), cmath.sinh(1j * xi) * np.eye(2))
    checks.append(_check("GZ-DVGR K(0) = sinh(i xi) I", gap, 1e-12))
    few = max(4, pairs // 4)
    rfam = rmatrix.xxz_family(mu, "homogeneous")
    for n, label in ((2, "spin-1/2"), (3, "spin-1")):
        rep = algebra.uq_sl2_spin_rep(n, cmath.exp(1j * mu))
        kd = linalg.stacking(partial(boundary.dressed_k, lax.lax_xxz(rep, "homogeneous"),
                                     boundary.k_identity()))
        worst = np.max(boundary.re_residual(rfam, kd, lam1[:few], lam2[:few]))
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
    p = _as_int(cfg.get("p", 5), "p")
    if not 2 <= p <= MAX_CYCLIC_ORDER:
        raise ConfigError(f"p must lie in [2, {MAX_CYCLIC_ORDER}]")
    k = _as_int(cfg.get("k", 1), "k")
    if k % p == 0:
        raise ConfigError("k must not be a multiple of p: q = e^{2 pi i k/p} = 1 "
                          "degenerates the cyclic representation")
    s = _as_complex(cfg.get("s", 0.7), "s")
    # drawn once p, k and s are valid: the draws are the suite's first work
    pairs, eps, lam1, lam2 = _draws(cfg, seed)
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
        worst = np.max(lax.rll_residual(rev, lx, lam1, lam2))
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
    worst = np.max(linalg.comm_norm(cas, np.stack([rep.gen(g) for g in ("Jp", "Jm", "qJz")])))
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
    tmats = np.stack([fam(float(lam)) for lam in rng.uniform(-1.0, 1.0, 5)])
    for label in ("Jp", "Jm", "qJz"):
        worst = np.max(linalg.comm_norm(tmats, cop.gen(label)))
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
    "ybe": (_suite_ybe, {"suite", "model", "mu", "delta", "pairs", "seed", "perturb"}),
    "re": (_suite_re, {"suite", "mu", "delta", "pairs", "seed", "xi", "kappa",
                       "m", "gamma", "perturb"}),
    "braid": (_suite_braid, {"suite", "mu", "delta", "m", "seed"}),
    "frt": (_suite_frt, {"suite", "mu", "delta", "pairs", "seed", "p", "k", "s", "perturb"}),
    "symmetry": (_suite_symmetry, {"suite", "mu", "delta", "seed"}),
}


def cmd_verify(cfg: dict, seed_flag) -> tuple:
    if "suite" not in cfg:
        raise ConfigError("verify config needs a suite")
    suite = cfg["suite"]
    if not isinstance(suite, str) or suite not in _SUITES:
        raise ConfigError(f"unknown suite: {suite!r}; pick one of {sorted(_SUITES)}")
    runner, allowed = _SUITES[suite]
    _check_keys(cfg, allowed)
    # the --seed flag wins over the seed key, which is still checked: a key
    # that is no integer, or is negative, is refused even where the flag is given
    key = _as_int(cfg.get("seed", 0), "seed")
    seed = key if seed_flag is None else seed_flag
    lowest = min(seed, key)
    if lowest < 0:
        raise ConfigError(f"seed must be non-negative, not {lowest}")
    checks = runner(cfg, seed)
    fields = {"suite": suite, "mu": _comp(_resolve_mu(cfg)), "seed": seed, "checks": checks}
    return fields, None, all(c["pass"] for c in checks)


def cmd_spectrum(cfg: dict) -> tuple:
    _check_keys(cfg, {"N", "delta", "mu", "boundary"}, {"N"})
    N = _as_int(cfg["N"], "N")
    boundary_kind = cfg.get("boundary", "periodic")
    if boundary_kind not in ("periodic", "open"):
        raise ConfigError("boundary must be periodic or open")
    if "delta" in cfg and "mu" not in cfg:
        delta = _as_complex(cfg["delta"], "delta")
    else:  # _resolve_mu refuses delta and mu together
        delta = cmath.cos(_resolve_mu(cfg, default=cmath.acos(0.5)))
    if abs(delta.imag) > 1e-14:
        raise ConfigError("spectrum needs a real delta (a real mu); H is not Hermitian otherwise")
    delta = delta.real
    if not 1 <= N <= MAX_N:
        raise ConfigError(f"N must keep the Hilbert dimension within [2, {linalg.MAX_DIM}]")
    if N == 1:
        columns = {"energy": np.zeros(2), "sz": np.array([-0.5, 0.5])}
        if boundary_kind == "periodic":  # the shift of one site is the identity
            columns["momentum"] = np.zeros(2, dtype=np.int64)
    else:
        columns = lax.spectrum_levels(N, delta, boundary_kind)
    # a column table, which _dumps writes as the list of its rows' records
    levels = np.rec.fromarrays(list(columns.values()), names=list(columns))
    fields = {"N": N, "delta": delta, "boundary": boundary_kind, "levels": levels}
    header = ["energy", "sz", "momentum"]
    pad = ("",) * (len(header) - len(columns))  # the open chain has no momentum
    # a generator: the rows are made only when --format csv writes them
    body = (row.item() + pad for row in levels)
    return fields, (header, body), True


def cmd_bethe(cfg: dict) -> tuple:
    _check_keys(
        cfg,
        {"N", "s", "mu", "delta", "M", "restarts", "validate", "rtol"},
        {"N"},
    )
    N = _as_int(cfg["N"], "N")
    s, n = _as_spin(cfg.get("s", 0.5), "s", MAX_SITE_DIM)
    mu = _resolve_mu(cfg)
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
    # N <= MAX_N first, so that a huge N never becomes a huge n^N
    if not 1 <= N <= MAX_N or n**N > linalg.MAX_DIM:
        raise ConfigError(f"N and s must keep the Hilbert dimension (2s+1)^N within {linalg.MAX_DIM}")
    if validate and n**N > VALIDATE_DIM:
        raise ConfigError(
            f"validated bethe needs (2s+1)^N <= {VALIDATE_DIM} (one probe pass's image is "
            f"D x D); validate: false allows {linalg.MAX_DIM}"
        )
    if M is not None and not 0 <= M <= (n - 1) * N:
        raise ConfigError(f"M must lie in [0, 2sN] = [0, {(n - 1) * N}]")
    if not validate and M is None:
        raise ConfigError("bethe without validation needs M")
    fields = {"N": N, "s": s, "mu": _comp(mu), "restarts": restarts}
    if not validate:
        sols = bethe.solve_bae(N, s, mu, M)
        fields["solutions"] = [bethe.solution_record(sol) for sol in sols]
        return fields, None, True
    report = bethe.validate_against_ed(N, s, mu, M_range=None if M is None else [M], rtol=rtol)
    fields["report"] = report
    return fields, None, report["mismatched_solutions"] == 0


def _delta_grid(cfg: dict) -> list:
    listed = "deltas" in cfg
    ranged = any(k in cfg for k in ("delta_start", "delta_stop", "delta_steps"))
    if listed and ranged:
        raise ConfigError("supply either deltas or a delta range, not both")
    if listed:
        if not isinstance(cfg["deltas"], list) or not 1 <= len(cfg["deltas"]) <= MAX_DELTA_STEPS:
            raise ConfigError(f"deltas must be a list of 1 to {MAX_DELTA_STEPS} values")
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
        if not math.isfinite(stop - start):
            raise ConfigError("delta_stop - delta_start must be finite")
        return [float(d) for d in np.linspace(start, stop, steps)]
    raise ConfigError("phase-scan needs deltas or a delta range")


def cmd_phase_scan(cfg: dict) -> tuple:
    """Per delta of the grid, from the level columns of lax.spectrum_levels:
    the ground energy e0, the number of levels within 1e-8 of it, and the
    largest |Sz| among them."""
    _check_keys(
        cfg,
        {"N", "deltas", "delta_start", "delta_stop", "delta_steps", "boundary"},
        {"N"},
    )
    N = _as_int(cfg["N"], "N")
    boundary_kind = cfg.get("boundary", "periodic")
    if boundary_kind not in ("periodic", "open"):
        raise ConfigError("boundary must be periodic or open")
    if not 2 <= N <= MAX_N:
        raise ConfigError(f"N must keep the Hilbert dimension within [4, {linalg.MAX_DIM}]")
    grid = _delta_grid(cfg)

    def scan(delta: float) -> dict:
        columns = lax.spectrum_levels(N, delta, boundary_kind)
        energy = columns["energy"]
        # the energies ascend: a difference that overflows is +inf, not ground
        with np.errstate(over="ignore"):
            ground = energy - energy[0] < 1e-8
        return {
            "delta": delta,
            "e0": float(energy[0]),
            "degeneracy": int(ground.sum()),
            "sz_abs": float(np.abs(columns["sz"][ground]).max()),
        }

    table = [scan(delta) for delta in grid]
    header = ["delta", "e0", "degeneracy", "sz_abs"]
    body = [[r[key] for key in header] for r in table]
    return {"N": N, "boundary": boundary_kind, "rows": table}, (header, body), True


def cmd_casimir(cfg: dict) -> tuple:
    _check_keys(cfg, {"spins", "mu", "delta"})
    mu = _resolve_mu(cfg)
    spins = cfg.get("spins", [0.5, 1.0])
    # phase-scan's bound on its deltas list: every spin builds its own representation
    if not isinstance(spins, list) or not 1 <= len(spins) <= MAX_DELTA_STEPS:
        raise ConfigError(f"spins must be a list of 1 to {MAX_DELTA_STEPS} values")
    reps = [_as_spin(spin, "spins", MAX_SITE_DIM) for spin in spins]
    q = cmath.exp(1j * mu)
    results = [_casimir_entry(spin, n, q) for spin, n in reps]
    ok = all(c["pass"] for entry in results for c in entry["checks"])
    return {"mu": _comp(mu), "representations": results}, None, ok


# each command's function and its default --format
_COMMANDS = {
    "verify": (cmd_verify, "json"),
    "spectrum": (cmd_spectrum, "json"),
    "bethe": (cmd_bethe, "json"),
    "phase-scan": (cmd_phase_scan, "csv"),
    "casimir": (cmd_casimir, "json"),
}


_PARSER = argparse.ArgumentParser(
    prog="workbench",
    description="Integrable spin-chain workbench (verification, spectra, "
                "Bethe roots, phase scans, Casimir asymptotics).",
)
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", required=True, help="path to a JSON config")
_PARSER.add_argument("--out", default=None, help="output path (default stdout)")
_PARSER.add_argument("--format", choices=("json", "csv"), default=None)
_PARSER.add_argument("--seed", type=int, default=None)
_PARSER.add_argument("--threads", type=int, default=None,
                     help="accepted and ignored: BLAS takes its thread count from the "
                          "environment (OPENBLAS_NUM_THREADS)")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    command, default_format = _COMMANDS[args.command]
    # the one mapping of library errors to exit 2 (LinAlgError is a ValueError)
    try:
        cfg = _load_config(args.config)
        with np.errstate(over="raise", invalid="raise"):
            # only verify reads a flag: --seed, which wins over its seed key
            fields, rows, ok = command(cfg, args.seed) if args.command == "verify" else command(cfg)
            payload = {**fields, "schema": SCHEMA, "command": args.command,
                       "status": "ok" if ok else "fail"}
            _emit(payload, rows, args.format or default_format, args.out)
            return 0 if ok else 1
    except (ConfigError, ValueError, ArithmeticError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
