#!/usr/bin/env python3
"""Benchmark of the sytmaj library: four workloads, end to end and per layer.

    python3 bench/run.py --workload hook-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; sytmaj is imported from `src/`.
Each run repeats whole rounds of the workload's operations until --seconds
have passed, clearing sytmaj's function caches before every round so that
each round starts as cold as a fresh CLI call.  With --trace 0 it prints
the end-to-end metrics; with --trace 1 it runs untraced rounds for half the
time and traced rounds for the other half, writes the spans under
`.bench_trace/` and prints the per-layer metrics.  The last line of standard
output is the JSON result.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
WORKLOADS = ("hook-large", "group-table", "oracle-enum", "poset-build")


def use_source_tree() -> None:
    """Import sytmaj from this checkout's src/ and nowhere else."""
    if not (SRC / "sytmaj" / "__init__.py").is_file():
        sys.exit(f"bench: no sytmaj sources under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]


def setup_probe(workload: str, seed: int) -> float:
    """Time the import of sytmaj.cli plus input generation (fresh interpreter)."""
    t0 = time.perf_counter()
    import sytmaj.cli  # noqa: F401
    import workloads
    workloads.make_inputs(workload, seed)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def sytmaj_caches() -> list:
    """Every functools cache in the loaded sytmaj modules."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "sytmaj" or name.startswith("sytmaj."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    seen[id(obj)] = obj
    return list(seen.values())


class Rounds:
    """Whole rounds of the same operations, with per-op and per-round times."""

    def __init__(self, ops, caches):
        self.ops = ops
        self.caches = caches
        self.walls: list[float] = []
        self.op_times: list[list[float]] = [[] for _ in ops]  # successful runs of op i
        self.attempted = 0
        self.failed = 0
        self.reference: list | None = None
        self.unstable: list[str] = []
        self.errors: dict[str, str] = {}

    def run(self, seconds: float, tracer=None) -> list[float]:
        """Run rounds until `seconds` have passed; return their wall times.

        A tracer is installed only while the operations run, so that the
        comparison of outputs between rounds is not traced.
        """
        walls = []
        start = time.perf_counter()
        while True:
            for c in self.caches:
                c.cache_clear()
            outs = []
            if tracer:
                tracer.install()
            r0 = time.perf_counter()
            for op, times in zip(self.ops, self.op_times):
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # counted as a failed operation
                    self.failed += 1
                    self.errors.setdefault(op.label, f"{type(exc).__name__}: {exc}")
                    out = None
                else:
                    times.append(time.perf_counter() - t0)
                outs.append(out)
            walls.append(time.perf_counter() - r0)
            if tracer:
                tracer.uninstall()
            self.attempted += len(self.ops)
            if self.reference is None:
                self.reference = outs
            else:
                self.unstable += [op.label for op, a, b in zip(self.ops, self.reference, outs) if a != b]
            if time.perf_counter() - start >= seconds:
                break
        self.walls += walls
        return walls


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    use_source_tree()
    if args.setup_probe:
        print(f"{setup_probe(args.workload, args.seed):.9f}")
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    import sytmaj.cli  # noqa: F401  the same modules a CLI call loads
    import workloads
    items = workloads.make_inputs(args.workload, args.seed)
    ops = workloads.make_ops(items)
    rounds = Rounds(ops, sytmaj_caches())

    if args.trace:
        from tracer import Tracer
        untraced = rounds.run(args.seconds / 2)
        tracer = Tracer()
        traced = rounds.run(args.seconds / 2, tracer)
        tracer.write_spans(ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.spans")
        metrics = tracer.metrics(len(traced))
        wall, base = statistics.median(traced), statistics.median(untraced)
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.untraced_wall_s"] = (base, "s")
        metrics["trace.overhead_s"] = (wall - base, "s")
        metrics["trace.self_sum_s"] = (sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s")), "s")
    else:
        rounds.run(args.seconds)
        # An operation's latency is the median of its repeats, which keeps a
        # burst of host noise in one round out of the percentiles.
        times = sorted(statistics.median(ts) for ts in rounds.op_times if ts)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(rounds.walls), "s"),
            "op_p50_ms": (1e3 * statistics.median(times), "ms"),
            "op_p99_ms": (1e3 * nearest_rank(times, 0.99), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    problems = workloads.check_outputs(items, rounds.reference)
    problems += [f"{lab}: output changed between rounds" for lab in sorted(set(rounds.unstable))]
    for lab, err in rounds.errors.items():
        print(f"failed: {lab}: {err}", file=sys.stderr)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)

    width = max(len(k) for k in metrics)
    print(f"{args.workload} seed={args.seed} rounds={len(rounds.walls)} ops/round={len(ops)} "
          f"attempted={rounds.attempted} failed={rounds.failed} checks={'pass' if not problems else 'FAIL'}")
    print("  round walls (s): " + " ".join(f"{w:.3f}" for w in rounds.walls))
    for k, (v, unit) in metrics.items():
        print(f"  {k:<{width}}  {v:>16.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
