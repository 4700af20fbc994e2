#!/usr/bin/env python3
"""Pipeline benchmark: notes -> FHIR twin bundles, end to end and per layer.

    python3 perfbench/run.py --workload short_notes --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. With ``--trace 0`` the run reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run. Human
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The run's environment and metrics are also stored under
``.bench_out/``. The exit code is 0 only when every operation produced a
correct output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fhirtwin"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("short_notes", "long_notes", "large_dictionary")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import harness

    OUT_DIR.mkdir(exist_ok=True)
    report, attempted, failed = harness.run(args, OUT_DIR)
    env = report["environment"]
    print(
        f"# workload={env['workload']} seed={env['seed']} python={env['python']} "
        f"nproc={env['nproc']} match_backend={env['match_backend']}"
    )
    metrics = report.get("metrics", {})
    for name, (value, unit) in {**metrics, **report.get("extra", {})}.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:44s} {shown:>14s} {unit}")
    if report.get("absent_targets"):
        print(f"# targets not found: {', '.join(report['absent_targets'])}")
    report["attempted"], report["failed"] = attempted, failed
    suffix = "trace" if args.trace else "e2e"
    result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-{suffix}.json"
    result_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    correct = failed == 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if value is not None
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
