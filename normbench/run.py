#!/usr/bin/env python3
"""Run one normrig benchmark workload and print its metrics.

From the repository root:

    python3 normbench/run.py --workload sweeps --seed 1729 --seconds 25 --trace 0
    python3 normbench/run.py --workload all      # every workload, one table

normrig is imported from ``src/`` next to this directory, never from an
installed copy.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run report (environment, input digest, item counts,
layer shares).  ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer ones.  README.md in this directory defines every metric.
"""

from __future__ import annotations

import os

# One client, no extra threads: BLAS runs on the calling thread.  Set
# before numpy is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 9
PROBES_PER_SPAWN = 4
BASELINE_BACKEND = "python"

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


@dataclass
class UnitStats:
    """Every repetition of one unit within a run."""

    samples: list[tuple[float, float]] = field(default_factory=list)  # (start, seconds)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    unresolved: int = 0
    fingerprint: object = None
    errors: list[str] = field(default_factory=list)


def run_unit(unit, st: UnitStats, clock: Clock | None = None) -> None:
    from normbench.workloads import CheckError

    if clock is not None:
        clock.tick()
    t0 = time.perf_counter()
    try:
        result = unit.run()
    except Exception as exc:  # no verdict: counted, reported, not timed
        st.errors.append(f"{unit.name}: {type(exc).__name__}: {exc}")
        n = max(st.items, 1)
        st.attempted += n
        st.failed += n
        return
    if clock is not None:
        st.samples.append((t0, time.perf_counter() - t0))
    items, unresolved, fingerprint = unit.check(result)
    if st.attempted and fingerprint != st.fingerprint:
        raise CheckError(f"{unit.name}: verdicts differ between repetitions")
    st.items, st.fingerprint = items, fingerprint
    st.attempted += items
    st.unresolved += unresolved


def run_pass(units, stats, clock: Clock | None = None) -> float:
    """One call of every unit; with a clock, the calls are timed samples."""
    t0 = time.perf_counter()
    for unit, st in zip(units, stats):
        run_unit(unit, st, clock)
    return time.perf_counter() - t0


def run_untimed(units) -> tuple[int, int]:
    """Untimed calls normrig may refuse: (refused, answered).  An answer
    is checked like any other; a wrong one fails the run."""
    refused = answered = 0
    for unit in units:
        try:
            result = unit.run()
        except Exception:
            refused += 1
            continue
        unit.check(result)
        answered += 1
    return refused, answered


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(stats: list[UnitStats], setup: list, clock: Clock) -> tuple[dict, dict]:
    """Each unit's cost is the mean of its samples, each scaled to the
    reference speed by the probes run around it (speed.py)."""
    timed = [st for st in stats if st.samples]
    cost = [statistics.fmean(clock.scale(t, d) for t, d in st.samples) for st in timed]
    raw = [statistics.fmean(d for _, d in st.samples) for st in timed]
    pass_s = sum(cost)
    items = sum(st.items for st in timed)
    if all(st.items <= 1 for st in timed):
        # Every call completed in the run is one latency sample.
        latencies = sorted(
            1000.0 * clock.scale(t, d) for st in timed if st.items for t, d in st.samples
        )
    else:
        # One call completes many items, so no item has a latency of its
        # own: every item gets the pass's mean cost per item.
        latencies = [1000.0 * pass_s / items] * items
    values = {
        "setup_s": statistics.median(clock.scale(t, d) for t, d in setup),
        "items_per_s": items / pass_s,
        "item_p50_ms": percentile(latencies, 0.50),
        "item_p90_ms": percentile(latencies, 0.90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    reps = [len(st.samples) for st in timed]
    detail = {
        "items_per_pass": items,
        "latency_samples": len(latencies),
        "pass_s": pass_s,
        "raw_pass_s": sum(raw),
        "raw_setup_s": statistics.median(d for _, d in setup),
        "probe_median_s": clock.median_probe_s,
        "probe_samples": len(clock.probes),
        "repetitions": [min(reps), max(reps)],
        "setup_samples": len(setup),
    }
    return values, detail


def measure_setup(n: int, clock: Clock) -> list[tuple[float, float]]:
    """Fresh interpreters importing normrig.cli and building its parser:
    (start, wall seconds) of each, with probes between them."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import normrig.cli as c; c.build_parser()"
    samples = []
    for _ in range(n):
        for _ in range(PROBES_PER_SPAWN):
            clock.tick(force=True)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL,
        )
        samples.append((t0, time.perf_counter() - t0))
    for _ in range(PROBES_PER_SPAWN):
        clock.tick(force=True)
    return samples


def environment(seed: int, nproc: int, cpu: int) -> dict:
    import numpy as np

    import normrig

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # layout differs between numpy versions
        blas_name = "unknown"
    backend = getattr(normrig, "backend_name", None)
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "backend": backend() if backend else None,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "seed": seed,
    }


def run_workload(args) -> int:
    from normbench import layers, workloads
    from normbench.speed import Clock
    from normbench.trace import Tracer

    nproc = len(os.sched_getaffinity(0))
    # One CPU for this process and the interpreters it starts, so the
    # probes measure the CPU that every timed call and set-up runs on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    clock = Clock()
    setup = measure_setup(SETUP_SPAWNS, clock)
    env = environment(args.seed, nproc, cpu)
    report: dict = {"workload": args.workload, "env": env}
    if env["backend"] not in (None, BASELINE_BACKEND):
        report["warning"] = f"backend {env['backend']} is not the baseline's; do not compare"
        print(f"warning: {report['warning']}", file=sys.stderr)

    make = workloads.WORKLOADS[args.workload]
    kwargs = {"workdir": ROOT} if args.workload == "cli-queries" else {}
    stats: list[UnitStats] = []
    wl, correct, metrics = None, True, {}
    try:
        wl = make(seed=args.seed, **kwargs)  # set-up checks expectations too
        report["inputs_sha256"] = wl.inputs_digest
        stats = [UnitStats() for _ in wl.units]
        # Warm-up: the first pass fills normrig's lazy caches, and only
        # that pass would pay for them.  It is checked, not timed.
        run_pass(wl.units, stats)
        refused, answered = run_untimed(wl.untimed)
        report["untimed"] = {"refused": refused, "answered": answered}
        if args.trace:
            untraced = run_pass(wl.units, stats)
            tracer = Tracer()
            tracer.install(layers.HOOKS)
            try:
                traced = run_pass(wl.units, stats)
            finally:
                tracer.uninstall()
            values = layers.layer_metrics(tracer, traced, untraced, refused)
            units = dict(layers.PER_LAYER)
            report["missing_hooks"] = tracer.missing
            report["shares"] = {k: values[k] for k in layers.SHARES}
        else:
            # Whole passes, as many as fit in --seconds (at least one).
            deadline = time.perf_counter() + args.seconds
            while time.perf_counter() + run_pass(wl.units, stats, clock) < deadline:
                pass
            clock.tick(force=True)
            values, detail = end_to_end(stats, setup, clock)
            units = dict(END_TO_END)
            report.update(detail)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    except workloads.CheckError as exc:
        correct = False
        report["check_failed"] = str(exc)
        traceback.print_exc()
    finally:
        if wl is not None:
            wl.cleanup()

    attempted = sum(st.attempted for st in stats)
    failed = sum(st.failed for st in stats)
    report["failed_frac"] = failed / attempted if attempted else None
    report["unresolved"] = sum(st.unresolved for st in stats)
    report["errors"] = sorted({e for st in stats for e in st.errors})[:20]
    for name, m in metrics.items():
        print(f"{args.workload:>14} {name:<48} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; a summary table on stdout."""
    from normbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.seed_given:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"] and proc.returncode == 0
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
            print(f"{name:>14} {metric:<48} {m['value']:.6g} {m['unit']}")
        print(f"{name:>14} {'failed_frac':<48} {last['failed'] / last['attempted']:.6g} ratio")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default 1729; 7 for construct)")
    p.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: one untraced and one traced pass, per-layer metrics")
    args = p.parse_args(argv)

    if not (SRC / "normrig" / "__init__.py").is_file():
        print(f"error: no normrig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from normbench.workloads import CONSTRUCT_SEED, DEFAULT_SEED, WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    args.seed_given = args.seed is not None
    if args.seed is None:
        args.seed = CONSTRUCT_SEED if args.workload == "construct" else DEFAULT_SEED
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
