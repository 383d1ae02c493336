#!/usr/bin/env python3
"""cfgbal benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload lp-routing --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one child each

Run from any directory; instance files and traces go under `.perfbench/`
at the root of the checkout. One process, no worker threads: BLAS and
OpenMP pools are pinned to one thread before numpy loads. Set-up (imports,
instance generation, writing instance files, one warm-up op) is timed apart
from the measured rounds. Each round runs the workload's fixed ops in a
closed loop; every op's output is checked outside the timed region.

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1, after the same
untraced rounds, one traced set-up and round give the per-layer metrics.
Exit code 0 on a completed run (failed ops are counted, not fatal), 2 when
the program or the benchmark cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")


def import_program():
    """Import cfgbal from this checkout's src/ and nowhere else."""
    if not (SRC / "cfgbal" / "__init__.py").is_file():
        die(f"no cfgbal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import cfgbal
    except ImportError as exc:
        die(f"cannot import cfgbal: {exc}")
    if not Path(cfgbal.__file__).resolve().is_relative_to(SRC):
        die(f"cfgbal imported from {cfgbal.__file__}, not from {SRC}")


def run_all(args, spec):
    """Each workload in its own child process, one after another."""
    results = {}
    for name in [w["name"] for w in spec["workloads"]]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            die(f"workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(lines[-1])
    metrics = {
        f"{name}.{key}": value for name, res in results.items() for key, value in res["metrics"].items()
    }
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv=None):
    args = parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        die(f"unknown workload {args.workload!r}; expected one of {names} or 'all'")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    import_program()
    import harness
    import workloads

    if sorted(workloads.WORKLOADS) != sorted(names):
        die("BENCHMARK.json workloads disagree with perfbench/workloads.py")
    import_s = time.perf_counter() - T_START
    if args.workload == "all":
        result = run_all(args, spec)
    else:
        result = harness.run_workload(ROOT, args.workload, args.seed, args.seconds, args.trace, spec, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
