"""Digests of the workbench's stdout over a fixed list of configs.

    python tests/stdout_digest.py SRC [--each]

imports `spinchain` from the directory SRC (a checkout's `src`), runs
`cli.main` in-process on every config below and prints one sha256 per
command, over each config's exit code and stdout (and its stderr, where
there is any), and a total over all of them.  A command named with a
`-csv` or `-json` suffix, such as `spectrum-csv`, is that command run with
--format csv or --format json, and gets its own line.  The list takes every
writer path: the JSON writer, the CSV writer and the CSV refusal, where
`verify-csv` and `casimir-csv` exit 2 with one `config error:` line on
stderr.  With --each it first prints one sha256 per config, over the same
exit code and output, after the config's command, index in the list and
JSON, so that a diff of two trees' lines names the configs that moved.
Two trees print the same lines when their stdout agrees byte for byte on
the whole list; compare them under one BLAS thread count, since the last
bits of validated Bethe reports move with it (set OPENBLAS_NUM_THREADS to
the same value for both runs).  Not a test module: pytest collects only
`test_*.py`.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

MU = 0.3
PERTURB = 1e-4


def configs() -> list:
    """(command, config) pairs, in a fixed order."""
    runs = [("spectrum", {"N": N, "delta": delta, "boundary": boundary})
            for boundary in ("periodic", "open")
            for N in range(1, 13)
            for delta in (0.0, -0.0, 0.37, -0.6, 1.0, -1.0, 2.5)]
    for boundary in ("periodic", "open"):
        runs += [("phase-scan", {"N": 6, "deltas": [-1.5, -1.0, -0.3, 0.0, 0.5, 1.0, 2.0],
                                 "boundary": boundary}),
                 ("phase-scan", {"N": 8, "delta_start": -2.0, "delta_stop": 2.0, "delta_steps": 21,
                                 "boundary": boundary})]
    runs += [("bethe", {"N": N, "s": 0.5, "mu": MU}) for N in range(2, 9)]
    runs += [("bethe", {"N": N, "s": s, "mu": MU}) for N, s in ((2, 1.0), (4, 1.0), (3, 1.5))]
    runs.append(("bethe", {"N": 10, "s": 0.5, "mu": MU, "M": 4, "validate": False}))
    for seed in (0, 7):
        for suite in ("ybe", "re", "braid", "frt", "symmetry"):
            runs.append(("verify", {"suite": suite, "mu": MU, "seed": seed}))
            if suite in ("ybe", "re", "frt"):  # the suites that take a perturbation
                runs.append(("verify", {"suite": suite, "mu": MU, "seed": seed, "perturb": PERTURB}))
    runs.append(("casimir", {"mu": MU, "spins": [0.5, 1.0, 1.5]}))
    runs += [("spectrum-csv", {"N": N, "delta": 0.37, "boundary": boundary})
             for boundary in ("periodic", "open") for N in (1, 4)]
    runs.append(("phase-scan-csv", {"N": 6, "deltas": [-1.5, -1.0, -0.3, 0.0, 0.5, 1.0, 2.0]}))
    # root sets of M >= 8, whose pair tables numpy sums pairwise; last, so
    # that the configs before them keep their indices
    runs.append(("bethe", {"N": 2, "s": 7.5, "mu": MU}))
    runs.append(("bethe", {"N": 2, "s": 15.5, "mu": MU, "M": 20, "validate": False}))
    # the writer paths not taken above, last for the same reason
    runs.append(("phase-scan-json", {"N": 6, "deltas": [-1.5, -1.0, -0.3, 0.0, 0.5, 1.0, 2.0]}))
    runs.append(("verify-csv", {"suite": "ybe", "mu": MU, "pairs": 4}))
    runs.append(("casimir-csv", {"mu": MU, "spins": [0.5]}))
    return runs


def digests(main) -> tuple:
    """({command: sha256 hex} of main's exit codes and output over configs(),
    [sha256 hex of each config's exit code and output] in configs() order)."""
    hashes, each = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        for command, cfg in configs():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            name, _, fmt = command.rpartition("-")
            if fmt not in ("csv", "json"):
                name, fmt = command, None
            flags = ["--format", fmt] if fmt else []
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([name, "--config", path, *flags])
            text = (f"{json.dumps(cfg, sort_keys=True)}\n{code}\n{out.getvalue()}"
                    f"{err.getvalue()}").encode()
            hashes.setdefault(command, hashlib.sha256()).update(text)
            each.append(hashlib.sha256(text).hexdigest())
    return {command: digest.hexdigest() for command, digest in hashes.items()}, each


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[2:] not in ([], ["--each"]):
        sys.exit("usage: python tests/stdout_digest.py SRC [--each]")
    sys.path.insert(0, os.path.abspath(sys.argv[1]))
    from spinchain import cli

    per_command, per_config = digests(cli.main)
    if sys.argv[2:]:
        for index, ((command, cfg), digest) in enumerate(zip(configs(), per_config)):
            print(f"{command:<10} {index:>3} {digest} {json.dumps(cfg, sort_keys=True)}")
    total = hashlib.sha256("".join(per_command.values()).encode()).hexdigest()
    for command, digest in per_command.items():
        print(f"{command:<10} {digest}")
    print(f"{'total':<10} {total}")
