"""Benchmark for torikit: seeded fan documents through the CLI, in-process.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in a closed loop: each ``torikit.cli.main([<command>, <file>,
"--json"])`` call starts when the previous one has returned, in one
process and one thread, with stdout captured.  A run sets up (imports
torikit from ``src/`` and generates the documents), writes the documents
to a temporary directory in the checkout, makes one warm-up pass whose every report is checked against answers known from
how the document was built, then repeats whole passes until ``--seconds``
have gone by; every later output must equal the warm-up output byte for
byte.

Times are taken at reference machine speed (``calibrate.py``): every
call is preceded by a fixed calibration kernel, and a call's time is
measured in kernel times, then converted back to seconds.  An operation's
latency is the median of its timed repetitions.  ``latency_p50_ms`` and
``latency_p90_ms`` are taken over the workload's operations (more than
100, so p90 has at least ten beyond it), ``ops_per_s`` is the number of
operations over the sum of their latencies, and ``setup_s`` is the median
of several set-ups, each scaled the same way.  Writing the documents is
left out of ``setup_s``: torikit cannot change it, and on a shared disk it
varies tenfold.  The unscaled figures are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` times
untraced passes for half the time, then installs the out-of-program
tracer (``tracer.py``) and reports per-layer metrics from the first
traced pass, plus the tracing overhead; the spans are written to
``.bench_out/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it give the sample count,
the output digest and each metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import checks
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 15

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms_per_op") or name.endswith(".ms_per_op"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count/op"


def import_torikit():
    """Import torikit afresh from the checkout's ``src/`` and return its CLI module."""
    for name in [n for n in sys.modules if n == "torikit" or n.startswith("torikit.")]:
        del sys.modules[name]
    import torikit.cli

    if Path(torikit.cli.__file__).resolve().parents[1] != SRC:
        raise ImportError(f"torikit was imported from {torikit.cli.__file__}, not from {SRC}")
    return torikit.cli


def set_up(workload: str, seed: int):
    """Import torikit and generate the documents; return the elapsed time,
    the CLI module and the ops."""
    start = time.perf_counter()
    cli = import_torikit()
    ops = workloads.generate(workload, seed)
    return time.perf_counter() - start, cli, ops


def call(cli, argv: list[str]) -> tuple[float, float, int, str]:
    """One timed CLI call after one calibration kernel:
    (call seconds, kernel seconds, exit code, stdout)."""
    kernel = calibrate.kernel_seconds()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, kernel, code, out.getvalue()


class Loop:
    """The closed loop over one workload's ops, with the correctness record."""

    def __init__(self, cli, ops, argvs) -> None:
        self.cli, self.ops, self.argvs = cli, ops, argvs
        self.reference: list[str] = []
        self.bad_ops: set[int] = set()
        self.ratios: list[list[float]] = [[] for _ in ops]
        self.raw: list[list[float]] = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.digest = ""

    def warm_up(self) -> list[str]:
        """Run and check every op once; return the problems found."""
        problems = []
        for i, (op, argv) in enumerate(zip(self.ops, self.argvs)):
            _, _, code, stdout = call(self.cli, argv)
            try:
                report = json.loads(stdout) if code == 0 else None
            except json.JSONDecodeError:
                report = None
            found = checks.check(op, code, report)
            if found:
                self.bad_ops.add(i)
                problems += [f"op {i} ({op.command} {op.doc.name}): {p}" for p in found]
            self.reference.append(stdout)
        self.digest = hashlib.sha256("".join(self.reference).encode()).hexdigest()
        return problems

    def one_pass(self, on_op=None) -> None:
        for i, argv in enumerate(self.argvs):
            if on_op is not None:
                on_op(i)
            elapsed, kernel, code, stdout = call(self.cli, argv)
            self.ratios[i].append(elapsed / kernel)
            self.raw[i].append(elapsed)
            self.attempted += 1
            if code != 0 or stdout != self.reference[i] or i in self.bad_ops:
                self.failed += 1

    def run_for(self, seconds: float, on_op=None) -> None:
        """Whole passes until ``seconds`` have gone by."""
        start = time.perf_counter()
        while True:
            self.one_pass(on_op)
            if time.perf_counter() - start >= seconds:
                return


def end_to_end(workload: str, seed: int, seconds: float, tmp: Path) -> tuple[Loop, dict, list[str]]:
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        kernel = statistics.median(calibrate.kernel_seconds() for _ in range(3))
        elapsed, cli, ops = set_up(workload, seed)
        setups.append(elapsed / kernel * calibrate.REFERENCE_SECONDS)
        raw_setups.append(elapsed)
    loop = Loop(cli, ops, workloads.write_documents(ops, tmp))
    problems = loop.warm_up()
    loop.run_for(seconds)
    scale = calibrate.REFERENCE_SECONDS * 1000
    latency_ms = [statistics.median(r) * scale for r in loop.ratios]
    raw_ms = [statistics.median(r) * 1000 for r in loop.raw]
    print(f"unscaled: latency p50 {statistics.median(raw_ms):.4f} ms, "
          f"p90 {statistics.quantiles(raw_ms, n=10)[-1]:.4f} ms, "
          f"setup {statistics.median(raw_setups):.4f} s; machine at "
          f"{statistics.median(latency_ms) / statistics.median(raw_ms):.3f}x reference speed")
    metrics = {
        "ops_per_s": len(latency_ms) * 1000 / sum(latency_ms),
        "latency_p50_ms": statistics.median(latency_ms),
        "latency_p90_ms": statistics.quantiles(latency_ms, n=10)[-1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - loop.failed / loop.attempted,
    }
    return loop, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, problems


def traced(workload: str, seed: int, seconds: float, tmp: Path) -> tuple[Loop, dict, list[str]]:
    _, cli, ops = set_up(workload, seed)
    loop = Loop(cli, ops, workloads.write_documents(ops, tmp))
    problems = loop.warm_up()
    loop.run_for(seconds / 2)
    untraced = sum(statistics.median(r) for r in loop.ratios)
    loop.ratios = [[] for _ in ops]

    originals = [t[3] for t in tracing.targets()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        def mark(i):
            tracer.op = i

        start = time.perf_counter()
        loop.one_pass(mark)
        metrics = tracing.layer_metrics(tracer.spans, len(ops))
        tracer.spans.write(OUT / f"spans-{workload}-seed{seed}.tsv.gz")
        tracer.spans.clear()
        loop.run_for(seconds / 2 - (time.perf_counter() - start), mark)
    finally:
        tracer.uninstall()
    if [t[3] for t in tracing.targets()] != originals:
        problems.append("tracer left wrappers behind")
    traced_total = sum(statistics.median(r) for r in loop.ratios)
    metrics["trace.overhead_pct"] = (traced_total / untraced - 1) * 100
    print(f"traced run peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    return loop, {k: (v, per_layer_unit(k)) for k, v in metrics.items()}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "torikit" / "__init__.py").is_file():
        print(f"error: no torikit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = traced if args.trace else end_to_end
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        loop, metrics, problems = run(args.workload, args.seed, args.seconds, Path(tmp))

    for p in problems[:20]:
        print(f"problem: {p}")
    print(f"workload {args.workload} seed {args.seed}: {loop.attempted} ops timed "
          f"in {loop.attempted // len(loop.ops)} passes, {loop.failed} failed; latencies of "
          f"{len(loop.ops)} ops ({len(loop.ops) // 10} beyond p90)")
    print(f"output sha256 {loop.digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    result = {
        "correct": loop.failed == 0 and not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
