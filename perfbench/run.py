"""Run one benchmark workload and print its metrics as the last line.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload paper-quick --seed 1 --seconds 20 --trace 0

Workloads: ``paper-quick``, ``query-warm``, ``paper-scale`` (see
``perfbench/README.md``). ``--trace 0`` measures the end-to-end metrics
with nothing traced; ``--trace 1`` runs the traced variant and reports
the per-layer metrics, the exact counts and the tracing overhead.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 421, "failed": 0,
     "metrics": {"cells_per_s": {"value": 6.4, "unit": "cells/s"}, ...}}

Lines before it are annotations: failed checks, the run's notes (result
digest, raw walls, host calibrations) and the host record. The run exits non-zero,
printing no result, when the program crashes or is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, WORK, median, program_present, python, run_child  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not program_present():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    from workloads import END_TO_END, WORKLOADS, WorkloadError, per_layer_units

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    from host import host_record

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        # Byte-compile once, untimed, so every timed import reads .pyc files.
        compiled = run_child(python("-m", "compileall", "-q", str(SRC)), "compileall")
        if not compiled.ok:
            raise WorkloadError(f"compileall failed:\n{compiled.stderr}")
        report = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - a harness bug must not print a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END
    host = host_record()
    host["calibration_median_s"] = median(report.notes["calibration_s"])
    print("host: " + json.dumps(host, sort_keys=True))
    for reason in report.checks.reasons:
        print(f"check: {reason}")
    print("notes: " + json.dumps(report.notes, sort_keys=True))
    print(json.dumps({
        "correct": report.checks.failed == 0,
        "attempted": report.checks.attempted,
        "failed": min(report.checks.failed, report.checks.attempted),
        "metrics": {
            name: {"value": report.metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
