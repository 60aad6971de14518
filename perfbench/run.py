#!/usr/bin/env python3
"""semifourier benchmark: seeded closed-loop workloads, one process, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload selfcheck --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

An operation is an in-process `semifourier.cli.main(argv)` call with stdout
captured, or the README library example.  Operations run in rounds until
`--seconds` of operation time have been measured and the workload's minimum
round count is reached; every output is checked against a numpy reference
outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds and reports per-layer metrics derived from spans recorded
around the package's public functions (see tracing.py); the spans are saved
to .bench_out/spans-<workload>.npz.  `--workload all` runs every workload
both ways in child processes and prints a table.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's details
(provenance, tail percentile and sample count, fail_frac, diagnostics).
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools before numpy loads: the load is one closed-loop
# client, so a threaded kernel must not measure the host's scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SETUP_CHILDREN = 5
CHILD_TIMEOUT_S = 60
LOOP_CAP_S = 100  # stop after this much loop time even below min_rounds
TAIL_BEYOND = 10

END_TO_END = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("spectral.basis_eval.calls", "calls/op"),
    ("spectral.basis_eval.points", "points/op"),
    ("spectral.basis_eval.self_s", "s/op"),
    ("spectral.basis_eval.calls_per_integral", "calls/integral"),
    ("spectral.eigenvalue.calls", "calls/op"),
    ("spectral.eigenvalue.self_s", "s/op"),
    ("spectral.trigpoly_evaluate.self_s", "s/op"),
    ("quadrature.integrate.calls", "calls/op"),
    ("quadrature.integrate.nodes_evaluated", "nodes/op"),
    ("quadrature.integrate.self_s", "s/op"),
    ("quadrature.integrate.errors", "errors/op"),
    ("quadrature.config_reuse_share", "ratio"),
    ("quadrature.cross_op_reuse_share", "ratio"),
    ("ladder.leftdef_inner.calls", "calls/op"),
    ("ladder.leftdef_inner.self_s", "s/op"),
    ("ladder.operator_matrix.self_s", "s/op"),
    ("ladder.spectral_inner_r.self_s", "s/op"),
    ("ladder.membership_classify.self_s", "s/op"),
    ("expansion.classical_coeffs.calls", "calls/op"),
    ("expansion.classical_coeffs.self_s", "s/op"),
    ("expansion.leftdef_coeffs.self_s", "s/op"),
    ("expansion.expansion_error.self_s", "s/op"),
    ("catalog.coeff_vector.self_s", "s/op"),
    ("report.render.self_s", "s/op"),
    ("report.render.bytes_out", "bytes/op"),
    ("verify.run_suites.self_s", "s/op"),
    ("cli.main.self_s", "s/op"),
] + [(f"{layer}.self_s", "s/op") for layer in LAYERS] + [
    ("trace.overhead_frac", "ratio"),
]


class BenchmarkError(Exception):
    """The benchmark cannot run here (no sources, a set-up child failed)."""


# ------------------------------------------------------------------ set-up

def import_package():
    if not (SRC / "semifourier" / "__init__.py").is_file():
        raise BenchmarkError(f"no package sources at {SRC / 'semifourier'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import semifourier
    import semifourier.catalog
    import semifourier.cli

    if Path(semifourier.__file__).resolve().parent != (SRC / "semifourier").resolve():
        raise BenchmarkError(f"semifourier imported from {semifourier.__file__}, not {SRC}")
    return semifourier


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(op) -> list[float]:
    """Cold path in fresh interpreters: import semifourier.cli and run `op`."""
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), json.dumps(op.argv)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if out["rc"] != 0:
            raise BenchmarkError(f"set-up operation {op.argv} exited {out['rc']}")
        times.append(out["setup_s"])
    return times


# --------------------------------------------------------------- operations

def execute(sf, op):
    """Run one operation; returns (exit code, captured stdout or README results)."""
    if op.kind == "readme":
        cfg = sf.SpectralConfig(*op.cfg)
        coeffs = sf.catalog.coeff_vector("sawtooth", op.params["N"], cfg)
        series = sf.spectral_inner_r(coeffs, coeffs, 1.0)
        report = sf.membership_classify(coeffs, n_max=3)
        return 0, (coeffs, series, report)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = sf.cli.main(op.argv)
    return rc, out.getvalue()


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / n


# ------------------------------------------------------------------ metrics

def per_layer_metrics(tracer: Tracer, traced_ops: int, overhead: float) -> dict:
    name_col = tracer.column("name")
    calls_col = tracer.column("count")
    units_col = tracer.column("units")
    op_col = tracer.column("op")
    self_col = tracer.self_times()
    totals = {}
    for i, name in enumerate(tracer.names):
        mask = name_col == i
        totals[name] = (float(calls_col[mask].sum()), float(self_col[mask].sum()),
                        float(units_col[mask].sum()))

    def get(name):
        return totals.get(name, (0.0, 0.0, 0.0))

    ops = max(traced_ops, 1)
    seen: dict[tuple, int] = {}
    reused = cross = 0
    for index, key in sorted(tracer.keys.items()):
        op = int(op_col[index])
        if key in seen:
            reused += 1
            cross += seen[key] < op
        else:
            seen[key] = op
    integrals = len(tracer.keys)
    integrate_name = tracer.names.index("quadrature.integrate")
    errors = sum(1 for index in tracer.errors if name_col[index] == integrate_name)

    values = {
        "spectral.basis_eval.points": get("spectral.basis_eval")[2] / ops,
        "spectral.basis_eval.calls_per_integral":
            get("spectral.basis_eval")[0] / integrals if integrals else 0.0,
        "quadrature.integrate.nodes_evaluated": get("quadrature.integrate")[2] / ops,
        "quadrature.integrate.errors": errors / ops,
        "quadrature.config_reuse_share": reused / integrals if integrals else 0.0,
        "quadrature.cross_op_reuse_share": cross / integrals if integrals else 0.0,
        "report.render.bytes_out": get("report.render")[2] / ops,
        "trace.overhead_frac": overhead,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            t[1] for name, t in totals.items() if name.startswith(f"{layer}.")) / ops
    metrics = {}
    for name, unit in PER_LAYER:
        if name not in values:
            function, field = name.rsplit(".", 1)
            values[name] = get(function)[0 if field == "calls" else 1] / ops
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "semifourier").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_pins": {var: os.environ[var] for var in THREAD_VARS},
    }


# --------------------------------------------------------------------- run

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_rounds: int | None = None, corrupt=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details).

    `corrupt`, used by the self-tests, maps an operation's output to a
    damaged copy before it is checked.
    """
    workload = workloads.WORKLOADS[name]
    min_rounds = workload.min_rounds if min_rounds is None else min_rounds
    sf = import_package()
    rounds = workload.rounds(seed)
    first_round = next(rounds)
    setup_op = first_round[0]
    setup_times = measure_setup(setup_op)

    tracer = Tracer() if trace else None
    failures: list[str] = []
    truth_devs: list[float] = []
    ops_run = []

    def judge(op, rc, result):
        if corrupt is not None:
            result = corrupt(op, result)
        ok, reason, diag = checks.check_op(op, rc, result)
        ops_run.append(op)
        if "truth_dev" in diag:
            truth_devs.append(diag["truth_dev"])
        if not ok:
            failures.append(f"{' '.join(op.argv or [op.kind])}: {reason}")

    judge(setup_op, *execute(sf, setup_op))  # warm-up, untimed
    gc.collect()

    plain: list[float] = []
    traced_lat: list[float] = []
    timed = check_time = 0.0
    round_no = 0
    loop_start = time.perf_counter()
    pending = first_round[1:]
    while True:
        traced = trace and round_no % 2 == 1
        if traced:
            tracer.install()
        for op in pending:
            if traced:
                tracer.op = len(ops_run)
            t0 = time.perf_counter()
            rc, result = execute(sf, op)
            elapsed = time.perf_counter() - t0
            timed += elapsed
            (traced_lat if traced else plain).append(elapsed)
            c0 = time.perf_counter()
            judge(op, rc, result)
            del result
            check_time += time.perf_counter() - c0
        if traced:
            tracer.uninstall()
        round_no += 1
        loop_wall = time.perf_counter() - loop_start
        balanced = not trace or round_no % 2 == 0  # as many traced rounds as untraced
        if balanced and (loop_wall > LOOP_CAP_S or (timed >= seconds and round_no >= min_rounds)):
            break
        pending = next(rounds)
    loop_wall -= check_time

    attempted = len(ops_run)
    failed = len(failures)
    tail_value, tail_pct = tail(plain)
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "why": workload.why,
        "provenance": provenance(),
        "rounds": round_no,
        "samples": len(plain),
        "traced_samples": len(traced_lat),
        "latency_tail_pct": tail_pct,
        "fail_frac": {"value": failed / attempted, "unit": "ratio"},
        "setup_runs_s": setup_times,
        "setup_op": setup_op.argv,
        "timed_s": timed,
        "check_s": check_time,
        "mix": dict(Counter(op.label for op in ops_run)),
        "input_config_reuse_share": workloads.input_config_reuse_share(ops_run),
        "check.truth_dev_max": max(truth_devs) if truth_devs else None,
        "failures": failures[:10],
    }
    if trace:
        overhead = statistics.median(traced_lat) / statistics.median(plain) - 1.0
        metrics = per_layer_metrics(tracer, len(traced_lat), overhead)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{name}.npz")
        details["spans"] = len(tracer.cols["id"])
        details["quadrature.config_reuse_share"] = metrics["quadrature.config_reuse_share"]["value"]
    else:
        values = {
            "latency_p50_ms": statistics.median(plain) * 1e3,
            "latency_tail_ms": tail_value * 1e3,
            "throughput_ops_s": len(plain) / loop_wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a child process."""
    summary = {}
    for name in workloads.WORKLOADS:
        summary[name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            details = json.loads(lines[-2])["details"]
            result = json.loads(lines[-1])
            part = summary[name]
            part["correct"] = part.get("correct", True) and result["correct"]
            part["attempted"] = part.get("attempted", 0) + result["attempted"]
            part["failed"] = part.get("failed", 0) + result["failed"]
            part["per_layer" if trace else "end_to_end"] = result["metrics"]
            if not trace:
                part["end_to_end"]["fail_frac"] = details["fail_frac"]
                part["latency_tail_pct"] = details["latency_tail_pct"]
                part["samples"] = details["samples"]
                part["check.truth_dev_max"] = details["check.truth_dev_max"]
    names = list(summary)
    print(f"{'metric':45s} {'unit':>14s} " + " ".join(f"{n:>14s}" for n in names))
    for section, specs in (("end_to_end", END_TO_END + [("fail_frac", "ratio")]),
                           ("per_layer", PER_LAYER)):
        for metric, unit in specs:
            cells = " ".join(f"{summary[n][section][metric]['value']:14.6g}" for n in names)
            print(f"{metric:45s} {unit:>14s} {cells}")
    for n in names:
        print(f"{n}: tail = p{summary[n]['latency_tail_pct']:.1f} of {summary[n]['samples']} samples; "
              f"truth_dev_max = {summary[n]['check.truth_dev_max']}")
    print(json.dumps(summary))
    return 0 if all(part["correct"] for part in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
