#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics)::

    python3 perfbench/run.py --workload olap_amax --seed 1 --seconds 20 --trace 0

Every workload, untraced and then traced, each in its own process::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --out report.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it name
every metric with its unit, report ``error_ratio`` and list failed checks,
and give the run's fingerprint.  Run it from the repository root; it builds
nothing and imports the engine from ``src/``.  Temporary stores live under
``.perfbench_tmp/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_tmp"
WORKLOADS = ("olap_amax", "olap_open", "mixed_amax", "sharded_2")
#: String hashing is salted per process unless PYTHONHASHSEED is set, and
#: the salt alone moves query times by several percent (it reorders the
#: engine's dicts and sets); runs use this one unless the caller sets another.
HASH_SEED = "0"

#: End-to-end metrics (untraced run) and their units.
E2E_UNITS = {
    "setup_s": "s",
    "suite_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "lookup_p50_ms": "ms",
    "ingest_docs_per_s": "1/s",
    "write_p50_ms": "ms",
    "space_amp": "ratio",
    "write_amp": "ratio",
    "rss_mb": "MB",
}


def _git(*args: str) -> str:
    result = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def fingerprint(seed: int, config: dict) -> dict:
    """What the numbers depend on besides the code under test."""
    from repro.query import kernels
    from repro.store import Datastore

    commit, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        try:
            commit = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_DISABLE_NUMPY": os.environ.get(kernels.DISABLE_ENV),
        "numpy_kernels_active": bool(
            kernels.numpy_available() and not os.environ.get(kernels.DISABLE_ENV)
        ),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "store_config": config,
        "default_executor": inspect.signature(Datastore.query)
        .parameters["executor"].default,
    }


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import runner
    import workloads

    workload = workloads.make(name, seed, str(WORKDIR))
    # The generated inputs live for the whole run; keep the collector from
    # rescanning them while the engine allocates.
    gc.collect()
    gc.freeze()
    if traced:
        result = runner.trace(workload)
        units = runner.LAYER_METRICS
    else:
        result = runner.measure(workload, seconds)
        units = E2E_UNITS
    metrics = {
        metric: {"value": result["metrics"][metric], "unit": unit}
        for metric, unit in units.items()
    }
    for metric, entry in metrics.items():
        print(f"{name} {metric} = {entry['value']!r} {entry['unit']}")
    for metric, (value, unit, samples) in result.get("extra", {}).items():
        note = "" if samples is None else f" ({samples} samples)"
        print(f"{name} {metric} = {value!r} {unit}{note}")
    if traced:
        print(f"{name} trace: untraced {result['untraced_s']:.4f} s, "
              f"traced {result['traced_s']:.4f} s")
    failures = result["failures"]
    attempted = result["attempted"]
    print(f"{name} error_ratio = {len(failures) / attempted!r} ratio "
          f"({len(failures)} of {attempted} checks failed; floats compared to "
          f"relative tolerance 1e-9, everything else exactly)")
    for failure in sorted(set(failures)):
        print(f"{name} FAILED {failure} x{failures.count(failure)}")
    print("fingerprint " + json.dumps(fingerprint(seed, result["config"]), sort_keys=True))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, out: str) -> int:
    """Every workload untraced and traced, each in a fresh process."""
    report = {}
    status = 0
    for name in WORKLOADS:
        for traced in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(traced)]
            completed = subprocess.run(command, capture_output=True, text=True)
            sys.stderr.write(completed.stderr)
            lines = completed.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if completed.returncode != 0 or not lines:
                print(f"{name} trace={traced} exited with {completed.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                status = 1
            report[f"{name}/{'trace' if traced else 'measure'}"] = result
    summary = {
        "correct": status == 0 and len(report) == 2 * len(WORKLOADS),
        "attempted": sum(result["attempted"] for result in report.values()),
        "failed": sum(result["failed"] for result in report.values()),
    }
    if out:
        Path(out).write_text(json.dumps(dict(summary, runs=report), indent=2) + "\n")
    print(json.dumps(summary))
    return status


def main() -> int:
    if "PYTHONHASHSEED" not in os.environ:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="", help="also write the result as JSON here")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the engine's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)
    try:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        try:
            WORKDIR.rmdir()  # only when empty: every workload removes its own
        except OSError:
            pass
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
