"""Benchmark of the mortdecomp command line, one workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload run_default_5k --seed 1 --seconds 15 --trace 0

The workload's inputs are generated from ``--seed`` three times (timed as
``setup_s``; the three sets must be byte-identical).  With ``--trace 0``
the real ``mortdecomp`` CLI then runs in a child process, one command at a
time (a closed loop with one client), at least twice and for as long as the
next command still fits in ``--seconds``.  Wall time is taken around the
child, CPU time and peak RSS from its ``os.wait4`` rusage.  Every command's
outputs are checked (see ``workloads.check``) and must hash the same as the
first command's.  The child inherits this process's environment unchanged,
thread settings included; only the checkout's ``src`` is put first on
``PYTHONPATH``.

With ``--trace 1`` the pipeline instead runs in-process twice through
``mortdecomp.cli.main``: once untraced, once with every layer entry point
wrapped (see ``tracing.py``), followed by a latent-draw microbenchmark on
each fitted survey's own design.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts pipeline commands and ``failed`` those whose checks failed;
``correct`` is false when any check failed, set-up determinism included.
The lines above it give the environment, every metric's summary and, for
runs, the chains' quality.  ``--report PATH`` also writes the full record
as JSON.  The held-out seed for checking a claimed gain is 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
SETUPS = 3
MIN_COMMANDS = 2

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def environment() -> dict:
    """Where the numbers come from: cores, library versions and BLAS threads."""
    import ctypes

    import numpy as np
    import scipy
    import scipy.special  # noqa: F401  (loads scipy's own BLAS, if it has one)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    maps = Path("/proc/self/maps")
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines() if "openblas" in line}) if maps.exists() else []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads[Path(lib).name] = getattr(handle, symbol)()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "blas_threads": threads,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k or "BLAS" in k},
    }


def cpu_steal_s() -> float | None:
    """CPU time the host took from this machine's vCPUs so far, in seconds."""
    stat = Path("/proc/stat")
    if not stat.exists():
        return None
    fields = stat.read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def timed_command(argv: list[str], cwd: Path, env: dict) -> dict:
    """Run ``mortdecomp <argv>`` in a child process; wall, CPU and peak RSS."""
    with open(cwd / "stdout.log", "ab") as out, open(cwd / "stderr.log", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mortdecomp.cli", *argv], cwd=cwd, env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        "exit_code": proc.returncode,
    }


def setup_inputs(workload, work: Path, seed: int):
    """Generate the inputs ``SETUPS`` times; keep the first set, time all."""
    from workloads import sha256

    times, failures, prepared = [], [], None
    for k in range(SETUPS):
        target = work / f"set{k}"
        target.mkdir(parents=True)
        start = time.perf_counter()
        prep = workload.setup(target, seed, ROOT)
        times.append(time.perf_counter() - start)
        if k == 0:
            prepared = prep
            continue
        for name in prep.inputs:
            if sha256(target / name) != sha256(work / "set0" / name):
                failures.append(f"setup {k} wrote a different {name} for the same seed")
        shutil.rmtree(target)
    return prepared, work / "set0", times, failures


def sha256_of(hashes: dict | None) -> str | None:
    """One digest over every output hash, comparable across commits."""
    if not hashes:
        return None
    return hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def run_timed(workload, seed: int, seconds: float, work: Path) -> dict:
    from workloads import chain_quality, check, child_env

    prepared, cwd, setup_times, failures = setup_inputs(workload, work, seed)
    env = child_env(ROOT)
    samples, failed, first_hashes, quality = [], 0, None, None
    steal_start = cpu_steal_s()
    start = time.perf_counter()
    while len(samples) < MIN_COMMANDS or time.perf_counter() - start + samples[-1]["wall_s"] <= seconds:
        out = f"out{len(samples)}"
        sample = timed_command([*prepared.argv, "--out", out], cwd, env)
        problems, hashes = check(workload, prepared, cwd / out, sample["exit_code"])
        if first_hashes is None:
            first_hashes = hashes
        elif hashes and hashes != first_hashes:
            problems.append("outputs differ from the first command's at the same seed")
        if not problems and workload.command == "run" and quality is None:
            quality = chain_quality(cwd / out)
        failed += bool(problems)
        failures += [f"command {len(samples)}: {p}" for p in problems]
        samples.append(sample)
        shutil.rmtree(cwd / out, ignore_errors=True)

    elapsed = time.perf_counter() - start
    steal_end = cpu_steal_s()
    stats = {name: summary([s[name] for s in samples]) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    stats["setup_s"] = summary(setup_times)
    record = {
        "attempted": len(samples),
        "failed": failed,
        "failures": failures,
        "samples": samples,
        "setup_times_s": setup_times,
        "stats": stats,
        "metrics": {name: stats[name]["median"] for name in E2E_UNITS},
        "units": dict(E2E_UNITS),
        "outputs_sha256": sha256_of(first_hashes),
        # share of the loop's CPU capacity taken by the host (0 on bare metal)
        "host_steal_share": None if steal_start is None else (steal_end - steal_start) / (elapsed * os.cpu_count()),
    }
    if quality is not None:
        min_ess = min(q["min_ess"] for q in quality.values())
        record["chain_quality"] = quality
        record["chain"] = {"min_ess": min_ess, "min_ess_per_s": min_ess / stats["wall_s"]["median"]}
    return record


def run_traced(workload, seed: int, work: Path) -> dict:
    import numpy as np

    import tracing
    import workloads
    from mortdecomp import cli
    from workloads import check

    tracer = tracing.Tracer()
    # set-up synthesizes the CSV workloads' samples; the synthetic workload
    # synthesizes inside the traced run instead
    tracer.wrap(workloads, "synthesize", "simulate.synthesize", tracing.synthesized_rows)
    try:
        (work / "set0").mkdir(parents=True)
        prepared = workload.setup(work / "set0", seed, ROOT)
    finally:
        tracer.restore()
    cwd = work / "set0"

    def in_process(out: str) -> tuple[float, float, list[str], dict]:
        previous = os.getcwd()
        os.chdir(cwd)
        crash = None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                try:
                    code = cli.main([*prepared.argv, "--out", out])
                except Exception:  # a crash is a failed operation, not a failed benchmark
                    code, crash = 1, traceback.format_exc()
                end = time.perf_counter()
        finally:
            os.chdir(previous)
        problems, hashes = check(workload, prepared, cwd / out, code)
        if crash is not None:
            problems.append(f"{out} run raised:\n{crash}")
        return start, end, problems, hashes

    start, end, failures, plain_hashes = in_process("plain")
    untraced_wall = end - start
    tracing.instrument(tracer)
    try:
        window_start, window_end, problems, hashes = in_process("traced")
    finally:
        tracer.restore()
    if hashes and plain_hashes and hashes != plain_hashes:
        problems.append("traced outputs differ from untraced outputs")
    failed = bool(failures) + bool(problems)
    failures += problems

    min_ess = 0.0
    if workload.command == "run" and not problems:
        diag = json.loads((cwd / "traced" / "diagnostics.json").read_text(encoding="utf-8"))
        min_ess = min(diag[sid]["min_ess"] for sid in ("s1", "s2"))

    # latent-draw microbenchmark on each fitted survey's own design
    designs = {s.result.survey_id: s.result for s in tracer.named("dataset.build_design")}
    final_draws = {s.attrs["survey"]: s.result for s in tracer.named("sampler.fit")}
    tn = [tracing.tn_draw_us_per_sweep(designs[sid], draws.beta.mean(axis=0), seed)
          for sid, draws in sorted(final_draws.items())]
    tn_us = float(np.mean(tn)) if tn else 0.0

    metrics = tracing.layer_metrics(tracer, (window_start, window_end), untraced_wall, min_ess, tn_us)
    return {
        "attempted": 2,
        "failed": failed,
        "failures": failures,
        "outputs_sha256": sha256_of(plain_hashes),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": window_end - window_start,
        "layer_shares": tracing.layer_shares(tracer, (window_start, window_end)),
        "metrics": metrics,
        "units": dict(tracing.PER_LAYER_UNITS),
        "spans": [s.to_dict(window_start) for s in sorted(tracer.spans, key=lambda s: s.start)],
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, default=None, help="also write the full record as JSON here")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            record = run_traced(workload, args.seed, work)
        else:
            record = run_timed(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    record = {
        "workload": workload.name, "shape": workload.shape, "why": workload.why,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), **record,
    }
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.shape}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, value in record["metrics"].items():
        unit = record["units"][name]
        stats = record.get("stats", {}).get(name)
        spread = f"  (median of {stats['n']}, max {stats['max']:.6g})" if stats else ""
        print(f"{name:45s} {value:14.6g} {unit}{spread}")
    for name, value in record.get("chain", {}).items():
        print(f"{name:45s} {value:14.6g} {'draws' if name == 'min_ess' else 'draws/s'}  (recorded, not gated)")
    for sid, q in record.get("chain_quality", {}).items():
        print(f"chain {sid}: extended={q['extended']} min_ess={q['min_ess']:.1f} below_target={q['below_target']}")
    for share in record.get("layer_shares", {}).items():
        print(f"layer share {share[0]:12s} {share[1]:.3f} of traced wall")
    print(f"outputs sha256 {record['outputs_sha256']}")
    for problem in record["failures"]:
        print(f"FAILED {problem}")
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    result = {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": record["units"][name]} for name, value in record["metrics"].items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "mortdecomp" / "cli.py").is_file():
        print(f"error: no mortdecomp sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
