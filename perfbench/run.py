"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fit_inmem --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` is the separate traced run: it prints the per-layer
metrics (see README.md) and writes every span to
``.perfbench_out/trace-<workload>-seed<seed>.npz``. Either way the last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``, the line before it holds the environment record and the
correctness checks, and the same record is kept in
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``. The program
is imported from ``src/`` next to this directory; without it the run
fails before printing a result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402


def source_hash() -> str:
    """Digest of the program's sources: plan digests are compared per code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _openblas_threads() -> "int | None":
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs / "libscipy_openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "source_hash": source_hash(),
        "seed": seed,
    }


def _write_json(path: Path, payload) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    os.replace(tmp, path)


def digest_matches_earlier_runs(key: str, digest: str) -> bool:
    """Ψ must be identical across every run of one workload, seed and code."""
    path = OUT / "digests.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    first = seen.setdefault(key, digest)
    _write_json(path, seen)
    return first == digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    key = f"{env['source_hash']}:{args.workload}:{args.seed}"
    result.checks["plan_digest_matches_earlier_runs"] = digest_matches_earlier_runs(
        key, result.digest
    )

    tag = f"{args.workload}-seed{args.seed}"
    if result.recorder is not None:
        result.recorder.save(OUT / f"trace-{tag}.npz")
    if args.trace:
        values, units = result.layer_metrics, layers.per_layer_units()
    else:
        values, units = result.metrics, workloads.END_TO_END_UNITS
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    record = {
        "workload": args.workload,
        "environment": env,
        "checks": result.checks,
        "digest": result.digest,
        "notes": result.notes,
        "metrics": metrics,
    }
    _write_json(OUT / f"{tag}-trace{args.trace}.json", record)
    print(json.dumps({k: record[k] for k in ("environment", "checks", "notes")}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
