"""Run the repository benchmark.

    python3 perfbench/run.py --workload bo-loop --seed 0 --trace 0
    python3 perfbench/run.py --workload stack-pool --seed 0 --trace 1
    python3 perfbench/run.py --workload all

``--trace 0`` runs one workload untraced and reports the end-to-end
metrics.  ``--trace 1`` does the same, then runs the workload again,
serial and in-process, with the timing wrappers of ``probes.py``
installed, checks that both runs produced the same outputs, and reports
the per-layer metrics.  ``--workload all`` runs every workload with
``--trace 1``, each in a process of its own.

Every line but the last is a readable table: metric, value, unit and
sample count.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output check passed, and 2 without a
printed result when the repository sources are missing.  A run does a
fixed amount of work (cells, requests) so that its wall time compares
across commits; ``--seconds`` is accepted and does not change it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: run outputs (span records, scratch directories); ignored by git
OUT = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted; the work of a run is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_table(title: str, report) -> None:
    print(f"# {title}")
    for name, value, unit, n in report.rows:
        print(f"{name:<44} {value:>14.6g} {unit:<7} n={n}")


def _check_names(report, declared: list, problems: list) -> None:
    """The emitted metrics must be exactly the declared ones, units too."""
    emitted = {name: unit for name, _, unit, _ in report.rows}
    expected = {m["name"]: m["unit"] for m in declared}
    if emitted != expected:
        problems.append(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(emitted.items()) ^ set(expected.items()))}")


def run_one(args, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    from repro.utils.timer import WallClock

    import harness

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = harness.measure(args.workload, args.seed, bool(args.trace),
                                 WallClock(), scratch, OUT)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = list(result.problems)
    _print_table(f"{args.workload} seed {args.seed}: end to end (untraced)",
                 result.end_to_end)
    report, declared = result.end_to_end, spec["end_to_end"]
    if result.per_layer is not None:
        _print_table(f"{args.workload} seed {args.seed}: per layer (traced)",
                     result.per_layer)
        report, declared = result.per_layer, spec["per_layer"]
    _check_names(report, declared, problems)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": max(result.attempted, 1),
        "failed": result.failed + (len(problems) - len(result.problems)),
        "metrics": report.metrics(),
    }))
    return 0 if not problems else 1


def run_all(args, names: list) -> int:
    """Every workload traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed), "--trace", "1"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        combined["correct"] &= bool(result["correct"]) \
            and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: {SRC / 'repro'} or {SPEC} is missing; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose one "
              f"of {names} or 'all'", file=sys.stderr)
        return 2
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
