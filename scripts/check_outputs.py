#!/usr/bin/env python3
"""Recompute the outputs that a change must keep byte-identical and compare
their sha256 with the committed manifest, OUTPUTS.sha256.

Usage:
    python scripts/check_outputs.py [--quick] [--write]

Each manifest line reads `<name> <sha256> <command>`. Every command runs in
one fresh directory, after the inputs that the manifest's header lists have
been made there. `tsgbomp` stands for `python -m tsgbomp.cli` with this
repository's src/ on the path, and `scripts/` is this repository's. A name
ending in `.stdout` hashes the command's standard output. A name ending in
`.last` hashes only its last line, because the lines before it carry wall
times. Any other name is a file that the command writes.

`--quick` checks the outputs marked quick, in about ten seconds: the four
curve CSVs at 20 trials, `ric` on the three ric_cold matrices, the README's
`gen-signal`, `recover` and `thm2` examples, `gen-signal` with gaussian
values, `recover` with block OMP, the lemma audit at 10 matrices (--jobs 1)
and the quick scan fingerprint. The full set adds the curves at --jobs 1,
the lemma audit at 10 matrices with --jobs 2 and at 100, and the full scan
fingerprint. It prints one line per output and exits 1 if any output
differs from its manifest line, or if a command differs or fails.

`--write` rewrites the manifest lines of the outputs it computes instead,
keeping the other lines. A change that rewrites a line should say which one
and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tsgbomp import cli
from tsgbomp.sensing import matrix_from_binary, measure
from tsgbomp.signal_model import signal_to_csv, signal_values_from_csv

MANIFEST = ROOT / "OUTPUTS.sha256"

# the README's example instance, and the benchmark's ric_cold matrices
GEN_SIGNAL = ("tsgbomp gen-signal --n 200 --b 4 --p 2 --L 8 --K 4 --seed 2 --out x.csv "
              "--support-out support.txt")
INPUTS = (
    "tsgbomp gen-matrix --m 160 --n 200 --seed 1 --out phi.bin",
    GEN_SIGNAL,
    *(f"tsgbomp gen-matrix --m 120 --n 160 --seed {s} --out ric{s}.bin" for s in (1, 2, 3)),
)
MEASURE = "y.csv: y = phi x from phi.bin and x.csv, as the README computes it"

CURVES = [
    f"curve_n200_m{m}_b4_p{p}_L8.csv" for m in (120, 160) for p in (1, 2)
]
RIC = "tsgbomp ric --matrix ric{s}.bin --b 4 --p 2 --l 0 --lsep 20 --K 3 --R 0"
AUDIT = "python scripts/run_lemma_audit.py --matrices {n} --jobs {jobs}"

# (quick, command, names of its outputs)
OUTPUTS = (
    (True, "python scripts/run_phase_transition.py --trials 20 --jobs 2 --out-dir curves",
     [f"curves/{c}" for c in CURVES]),
    *((True, RIC.format(s=s), [f"ric_seed{s}.stdout"]) for s in (1, 2, 3)),
    (True, GEN_SIGNAL, ["x.csv", "support.txt"]),
    (True, "tsgbomp gen-signal --n 200 --b 4 --p 2 --L 8 --K 4 --seed 2 --scheme gaussian "
     "--out x_gaussian.csv", ["x_gaussian.csv"]),
    (True, "tsgbomp recover --alg tsgbomp --matrix phi.bin --y y.csv --iterations 4 --L 8 "
     "--B 8 --eps 1e-8 --trace-csv trace.csv", ["recover.stdout", "trace.csv"]),
    (True, "tsgbomp recover --alg bomp --matrix phi.bin --y y.csv --iterations 4 --B 8 "
     "--eps 1e-8 --trace-csv trace_bomp.csv", ["recover_bomp.stdout", "trace_bomp.csv"]),
    (True, "tsgbomp thm2 --b 1 --p 1 --L 2 --K 4 --m 2000 --n 200 --eps0 0.05 --eps 0.05 "
     "--csv thm2.csv", ["thm2.stdout", "thm2.csv"]),
    (False, "python scripts/run_phase_transition.py --trials 20 --jobs 1 --out-dir curves-jobs1",
     [f"curves-jobs1/{c}" for c in CURVES]),
    (True, AUDIT.format(n=10, jobs=1), ["lemma_audit_10.last"]),
    (False, AUDIT.format(n=10, jobs=2), ["lemma_audit_10_jobs2.last"]),
    (False, AUDIT.format(n=100, jobs=1), ["lemma_audit_100.last"]),
    (True, "python scripts/scan_fingerprint.py --quick", ["scan_fingerprint_quick.stdout"]),
    (False, "python scripts/scan_fingerprint.py", ["scan_fingerprint.stdout"]),
)


def _make_inputs(work: Path) -> None:
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for command in INPUTS:
            if cli.main(shlex.split(command)[1:]) != 0:
                raise SystemExit(f"input command failed: {command}")
        Phi = matrix_from_binary(Path("phi.bin").read_bytes())
        x = signal_values_from_csv(Path("x.csv").read_text(), Phi.n)
        Path("y.csv").write_text(signal_to_csv(measure(Phi, x)))
    finally:
        os.chdir(cwd)


def _argv(command: str) -> list[str]:
    argv = shlex.split(command)
    if argv[0] == "tsgbomp":
        return [sys.executable, "-m", "tsgbomp.cli", *argv[1:]]
    return [sys.executable, str(ROOT / argv[1]), *argv[2:]]


def _run(command: str, names: list[str], work: Path) -> dict[str, str]:
    """sha256 of each named output of one command run in `work`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(_argv(command), cwd=work, env=env, capture_output=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"command failed (exit {proc.returncode}): {command}\n"
                         + proc.stderr.decode(errors="replace"))
    hashes = {}
    for name in names:
        if name.endswith(".stdout"):
            data = proc.stdout
        elif name.endswith(".last"):
            data = proc.stdout.splitlines(keepends=True)[-1]
        else:
            data = (work / name).read_bytes()
        hashes[name] = hashlib.sha256(data).hexdigest()
    return hashes


def _read_manifest() -> dict[str, tuple[str, str]]:
    """name -> (sha256, command) of every manifest line."""
    if not MANIFEST.exists():
        return {}
    entries = {}
    for line in MANIFEST.read_text().splitlines():
        if line and not line.startswith("#"):
            name, digest, command = line.split(" ", 2)
            entries[name] = (digest, command)
    return entries


def _write_manifest(entries: dict[str, tuple[str, str]]) -> None:
    lines = [
        "# name sha256 command; written by scripts/check_outputs.py --write",
        "# inputs, made first in the directory where every command runs:",
        *(f"#   {command}" for command in INPUTS),
        f"#   {MEASURE}",
    ]
    for _, command, names in OUTPUTS:
        for name in names:
            if name in entries:
                lines.append(f"{name} {entries[name][0]} {entries[name][1]}")
    MANIFEST.write_text("\n".join(lines) + "\n", newline="\n")


def main() -> int:
    ap = argparse.ArgumentParser(allow_abbrev=False)
    ap.add_argument("--quick", action="store_true", help="the outputs marked quick only")
    ap.add_argument("--write", action="store_true", help="rewrite the manifest lines")
    args = ap.parse_args()

    manifest = _read_manifest()
    computed = {}
    with tempfile.TemporaryDirectory(prefix="check-outputs-") as tmp:
        work = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            _make_inputs(work)
        for quick, command, names in OUTPUTS:
            if quick or not args.quick:
                for name, digest in _run(command, names, work).items():
                    computed[name] = (digest, command)

    if args.write:
        _write_manifest({**manifest, **computed})
        print(f"wrote {len(computed)} lines of {MANIFEST.name}")
        return 0
    changed = 0
    for name, (digest, command) in computed.items():
        if name not in manifest:
            status = "NEW"
        elif manifest[name][1] != command:
            status = "COMMAND CHANGED"
        elif manifest[name][0] != digest:
            status = f"CHANGED (was {manifest[name][0][:16]}, now {digest[:16]})"
        else:
            status = "ok"
        changed += status != "ok"
        print(f"{name}: {status}")
    print(f"{len(computed) - changed} of {len(computed)} outputs match {MANIFEST.name}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
