"""Benchmark of the adaptive-fbl CLI, run from the root of a checkout:

    python3 bench/run.py --workload learn --seed 0 --seconds 20 --trace 0

One operation is one in-process `adaptive_fbl.cli.main` call on a config
generated for the workload; it writes a CSV trace and report.txt into a
scratch directory under `.bench_out/`, and `checks.py` then checks that
output without the program's help. Rounds of operations repeat, one
after another, while one more, as long as the median round so far, would
end within `--seconds`. The seed reaches the program only as the `seed`
config key.

--trace 0 runs rounds of one operation and one fresh-interpreter import
of the program, at least two, so that every run can compare their outputs
byte for byte, and prints the end-to-end metrics. --trace 1 runs rounds of
an untraced and a traced operation, prints the per-layer metrics of the
traced ones and the tracing overhead, and writes the span table to
`.bench_out/`.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, set before numpy loads. On 2 cores the default two
# OpenBLAS threads make 200-point GP fits about 3x slower and their timing
# ragged, and one thread keeps the load within the machine's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (loads numpy)
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
MIN_OPS = 2


@dataclass(frozen=True)
class Workload:
    case: str
    h: float
    extra: str = ""

    def config(self, seed: int, out: Path) -> str:
        return f"cases = {self.case}\nh = {self.h!r}\nseed = {seed}\nout = {out}\n{self.extra}"


# Why each workload, and which layers it loads, is in README.md.
WORKLOADS = {
    "learn": Workload("b", 0.001),
    "wide_window": Workload("e", 0.01, "gp_window = 200\n"),
}


@dataclass
class Operation:
    out: Path
    seconds: float
    error: str | None  # why the program did not complete, or None


def load_program():
    """Import adaptive_fbl from this checkout's src/, never from elsewhere."""
    if not (SRC / "adaptive_fbl" / "cli.py").is_file():
        raise SystemExit(f"bench: no program at {SRC / 'adaptive_fbl'}")
    sys.path.insert(0, str(SRC))
    import adaptive_fbl.cli  # the package's __init__ does not import cli

    if not Path(adaptive_fbl.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: adaptive_fbl imported from {adaptive_fbl.__file__}, not {SRC}")
    return adaptive_fbl


def run_op(program, wl: Workload, seed: int, work: Path, index: int, clock) -> Operation:
    """Run one operation. Every operation writes to the same `out` path, so
    that equal runs give byte-identical reports (report.txt embeds the
    config); the output is then moved to `op<index>` to be checked later."""
    out = work / "out"
    cfg = work / "bench.cfg"
    cfg.write_text(wl.config(seed, out))
    err = io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = program.cli.main(["--config", str(cfg)])
        error = None if rc == 0 else f"exit code {rc}: {err.getvalue().strip()}"
    except Exception as exc:  # noqa: BLE001 - a crash is a failed operation, not a dead benchmark
        error = f"raised {exc!r}"
    seconds = clock() - t0
    kept = work / f"op{index}"
    if out.exists():
        out.rename(kept)
    return Operation(kept, seconds, error)


def room_for_another(start: float, seconds: float, times: list[float]) -> bool:
    """Whether one more round of operations, as long as the median of
    `times`, would end within `seconds` of `start`. This keeps a run within
    its time, so a long operation never stretches it by a whole round."""
    return time.perf_counter() - start + statistics.median(times) <= seconds


def import_seconds() -> float:
    """Seconds for a fresh interpreter to import adaptive_fbl.cli."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import adaptive_fbl.cli"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True, timeout=60,
    )
    return time.perf_counter() - t0


def judge(ops: list[Operation], wl: Workload) -> tuple[int, bool, dict[str, float] | None]:
    """(failed, correct, report figures of the first good operation).

    An operation fails when the program did not complete, when its output
    breaks a check, or when its output differs from the first operation's.
    `correct` is False only for the latter two: outputs that are wrong.
    The checks read nothing but the CSV and report.txt, so byte-identical
    outputs are checked once.
    """
    failed, correct, figures, first_digest = 0, True, None, None
    verdicts: dict[str, list[str]] = {}  # output digest -> problems found in it
    for i, op in enumerate(ops):
        if op.error:
            problems = [op.error]
        else:
            try:
                files = (op.out / f"case_{wl.case}.csv").read_bytes() + (op.out / "report.txt").read_bytes()
            except OSError as exc:
                files, problems = None, [f"unreadable output: {exc}"]
            if files is not None:
                digest = hashlib.sha256(files).hexdigest()
                if digest not in verdicts:
                    verdicts[digest] = checks.check_run(op.out, wl.case, wl.h)
                problems = list(verdicts[digest])
                first_digest = first_digest or digest
                if digest != first_digest:
                    problems.append("output differs from the first operation's (not deterministic)")
            if problems:
                correct = False
            elif figures is None:
                figures = checks.load_report(op.out / "report.txt", wl.case)
        if problems:
            failed += 1
            print(f"operation {i} failed: {'; '.join(problems)}", file=sys.stderr)
    return failed, correct, figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    wl = WORKLOADS[args.workload]
    program = load_program()

    SCRATCH.mkdir(exist_ok=True)
    metrics: dict[str, tuple[float, str]] = {}
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        work = Path(tmp)
        ops: list[Operation] = []
        if not args.trace:
            import_seconds()  # the first import also writes the bytecode cache
            # One import follows each operation, so that set-up time is sampled
            # across the whole run, as the operations are, not in one burst.
            imports, rounds = [], []
            start = time.perf_counter()
            while len(ops) < MIN_OPS or room_for_another(start, args.seconds, rounds):
                t0 = time.perf_counter()
                ops.append(run_op(program, wl, args.seed, work, len(ops), time.perf_counter))
                imports.append(import_seconds())
                rounds.append(time.perf_counter() - t0)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["wall_s"] = (statistics.median(op.seconds for op in ops), "s")
            metrics["setup_s"] = (statistics.median(imports), "s")
            metrics["peak_rss_mb"] = (peak_mb, "MB")
        else:
            plain, traced, layers, spans = [], [], [], []
            pairs: list[float] = []  # seconds of each untraced and traced pair
            start = time.perf_counter()
            while not pairs or room_for_another(start, args.seconds, pairs):
                t0 = time.perf_counter()
                plain.append(run_op(program, wl, args.seed, work, len(ops), time.perf_counter))
                ops.append(plain[-1])
                tracer = tracing.Tracer()
                with tracing.instrument(tracer, program):
                    traced.append(run_op(program, wl, args.seed, work, len(ops), tracer.clock))
                ops.append(traced[-1])
                layers.append(tracing.layer_metrics(tracer))
                spans.append(tracer.table())
                pairs.append(time.perf_counter() - t0)
            for name, (_, unit) in layers[0].items():
                metrics[name] = (statistics.median(m[name][0] for m in layers), unit)
            overhead = statistics.median(op.seconds for op in traced) - statistics.median(
                op.seconds for op in plain
            )
            metrics["trace.overhead_s"] = (overhead, "s")
            span_file = SCRATCH / f"spans-{args.workload}-seed{args.seed}.json"
            span_file.write_text(json.dumps(spans, indent=1) + "\n")
        failed, correct, figures = judge(ops, wl)

    if figures is None:
        print("bench: no operation produced a correct output", file=sys.stderr)
        return 1
    if not args.trace:
        metrics["err_pct"] = (figures["3"], "%")
        metrics["w_err"] = (figures["w_err"], "1")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {len(ops)} failed = {failed}")
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
