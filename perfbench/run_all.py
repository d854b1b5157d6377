"""Run every workload and print every metric by name, with its unit.

    python3 perfbench/run_all.py [--seeds 1,2] [--seconds 15] [--out perfbench/results/BENCH_1.json]

Each workload runs untraced once per seed (end-to-end metrics) and traced
once on the first seed (per-layer metrics), each in its own ``run.py``
process.  The table pools every timed command and set-up of a workload
across seeds: median, maximum and sample count.  ``--out`` writes every
run's full record, spans included, as one JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import E2E_UNITS, WORK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    report = WORK / "reports" / f"{workload}-{seed}-{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--report", str(report)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    record = json.loads(report.read_text(encoding="utf-8"))
    report.unlink()
    for directory in (report.parent, WORK):
        with contextlib.suppress(OSError):
            directory.rmdir()
    return record


def pooled(records: list[dict]) -> dict:
    values = {name: [] for name in E2E_UNITS}
    for rec in records:
        for sample in rec["samples"]:
            for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                values[name].append(sample[name])
        values["setup_s"] += rec["setup_times_s"]
    return {name: {"median": statistics.median(v), "max": max(v), "n": len(v), "unit": E2E_UNITS[name]}
            for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2", help="comma-separated workload seeds")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    results = {}
    all_correct = True
    for name in WORKLOADS:
        timed = [run_one(name, seed, args.seconds, 0) for seed in seeds]
        traced = run_one(name, seeds[0], args.seconds, 1)
        correct = all(not r["failures"] for r in [*timed, traced])
        all_correct &= correct
        e2e = pooled(timed)
        print(f"\n== {name}: {WORKLOADS[name].shape}")
        print(f"   why: {WORKLOADS[name].why}")
        print(f"   correct: {correct}; failed {sum(r['failed'] for r in [*timed, traced])} "
              f"of {sum(r['attempted'] for r in [*timed, traced])} commands")
        for metric, s in e2e.items():
            print(f"   {metric:42s} {s['median']:12.6g} {s['unit']:10s} median of {s['n']}, max {s['max']:.6g}")
        for rec in timed:
            for metric, value in rec.get("chain", {}).items():
                unit = "draws" if metric == "min_ess" else "draws/s"
                print(f"   {metric:42s} {value:12.6g} {unit:10s} seed {rec['seed']}, recorded, not gated")
            for sid, q in rec.get("chain_quality", {}).items():
                print(f"   chain {sid} seed {rec['seed']}: extended={q['extended']} "
                      f"min_ess={q['min_ess']:.1f} below_target={q['below_target']}")
        for metric, value in traced["metrics"].items():
            print(f"   {metric:42s} {value:12.6g} {traced['units'][metric]:10s} traced, seed {traced['seed']}")
        for layer, share in traced["layer_shares"].items():
            print(f"   layer share {layer:30s} {share:12.3f}")
        results[name] = {"end_to_end": e2e, "timed_runs": timed, "traced_run": traced}

    if args.out is not None:
        doc = {"seeds": seeds, "seconds": args.seconds, "correct": all_correct, "workloads": results}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
