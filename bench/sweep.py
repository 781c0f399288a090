"""Run the benchmark over several seeds and summarise it per workload.

Usage, from the root of a source checkout:

    python3 bench/sweep.py [--seeds 1-10] [--seconds 10] [--workloads a,b]
                           [--trace] [--out FILE]

Each run is a fresh ``bench/run.py`` process, so ``peak_rss_mb`` is
measured per workload.  For each workload the sweep prints every
end-to-end metric by name and unit with its median, quartiles and
spread (quartile distance over the median) against the bound in
``BENCHMARK.json``; it then runs the first seed again and checks that
the output digest is unchanged.  ``--trace`` adds two traced runs of the
first seed per workload, checks that their counts agree exactly, and
checks the split between workloads that the workloads were built for.
``--out`` writes every result to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT = 180


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["sha256"] = next(l.split()[-1] for l in lines if l.startswith("output sha256 "))
    return result


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    record: dict = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}

    traced: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        runs = [run(workload, s, args.seconds, 0) for s in seeds]
        again = run(workload, seeds[0], args.seconds, 0)
        entry = record["workloads"][workload] = {"runs": runs, "summary": {}}
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, {attempted} ops, {failed} failed, "
              f"correct={all(r['correct'] for r in runs)}")
        same = again["sha256"] == runs[0]["sha256"]
        print(f"  digest of seed {seeds[0]} repeats: {same} ({runs[0]['sha256'][:16]})")
        ok &= same and failed == 0 and all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med, q1, q3, rel = spread(values)
            steady = name == "setup_s" or rel <= bound / 3
            ok &= steady
            entry["summary"][name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": rel}
            print(f"  {name:16s} {med:12.4f} {unit:6s} q1 {q1:12.4f} q3 {q3:12.4f} "
                  f"spread {rel:7.2%} bound {bound:.0%} {'ok' if steady else 'WIDE'}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in values))
        if args.trace:
            first, second = (run(workload, seeds[0], args.seconds, 1) for _ in range(2))
            counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")
                      or k in ("fan.pair_checks", "semigroup.generators_out")}
            repeat = all(second["metrics"][k]["value"] == v for k, v in counts.items())
            ok &= repeat and first["correct"] and second["correct"]
            traced[workload] = {k: v["value"] for k, v in first["metrics"].items()}
            entry["traced"] = first
            print(f"  traced counts repeat exactly: {repeat}")
            for k, v in first["metrics"].items():
                print(f"    {k:34s} {v['value']:14.4f} {v['unit']}")

    if args.trace and len(traced) == 3:
        c, h, q = traced["complete_fans"], traced["hilbert_bases"], traced["quasi_affine_actions"]
        split = {
            "is_root is 0 off quasi_affine_actions":
                c["derivations.is_root.calls"] == 0 == h["derivations.is_root.calls"],
            "solve_rational per op on hilbert_bases >= 10x quasi_affine_actions":
                h["lattice.solve_rational.calls"] >= 10 * q["lattice.solve_rational.calls"],
            "pair checks per op highest on complete_fans":
                c["fan.pair_checks"] > max(h["fan.pair_checks"], q["fan.pair_checks"]),
        }
        print()
        for what, holds in split.items():
            print(f"  {what}: {holds}")
            ok &= holds
        record["split"] = split

    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"\nsweep {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
