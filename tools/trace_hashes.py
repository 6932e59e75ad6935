"""sha256 of every file a CLI run writes, for byte-identity checks.

    PYTHONPATH=src python3 tools/trace_hashes.py [--h 0.01]

Runs the CLI in-process three times, into a temporary directory: cases
a-e at step h with the default settings, then the benchmark's `learn`
config (case b, h = 0.001) and its `wide_window` config (case e, h =
0.01, gp_window = 200). At the default h, `learn` is the one run whose
CSV writer falls behind, so that the run formats the last blocks of its
CSV itself. At h = 0.001 the cases run already writes the `learn`
config's `case_b.csv`, so the separate `learn` run is skipped. Prints
one line per written file: the run, the file name and its sha256.
report.txt is hashed without its `config` lines, so neither the output
path nor a deleted config key counts. Two checkouts that print the same
lines write the same traces and metrics.

The lines do not depend on the BLAS thread variables the shell sets. The
GP's gradient sums with numpy's own sums, not BLAS dot products, and
scipy's LAPACK, which the GP factorizes with, always loads with one
thread; `tests/test_import_boundary.py` checks the `wide_window` CSV with
the variables unset, at 1 and at 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from adaptive_fbl.cli import main as cli_main

LEARN_H = 0.001
LEARN = f"cases = b\nh = {LEARN_H!r}\n"
WIDE_WINDOW = "cases = e\nh = 0.01\ngp_window = 200\n"


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "report.txt":
        data = b"".join(line for line in data.splitlines(keepends=True) if not line.startswith(b"config "))
    return hashlib.sha256(data).hexdigest()


def run(name: str, config: str, out: Path) -> None:
    cfg = out.with_suffix(".cfg")
    cfg.write_text(config)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["--config", str(cfg), "--out", str(out)])
    if code != 0:
        sys.exit(f"{name}: the CLI exited {code}")
    for path in sorted(out.glob("*.csv")) + [out / "report.txt"]:
        print(f"{name} {path.name} {digest(path)}", flush=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--h", type=float, default=0.01, help="step (s) of the cases a-e run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        run(f"h={args.h:g}", f"h = {args.h!r}\n", Path(tmp) / "cases")
        if args.h != LEARN_H:
            run("learn", LEARN, Path(tmp) / "learn")
        run("wide_window", WIDE_WINDOW, Path(tmp) / "wide_window")


if __name__ == "__main__":
    main()
