"""Benchmark of the hietan learners and their cross-validation protocol.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Each run generates its inputs from the seed,
writes them as files, and measures them in a fresh ``measure.py`` process.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). A results file with
the sizes, the source revision, every sample and every check goes to
``perfbench/results/``. ``--selftest`` runs every workload at a smoke size in
both modes and checks the result lines against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, SRC, WORKLOADS, workload, write_inputs
from replay import PER_LAYER

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = BENCH_DIR / "work"
RESULTS_DIR = BENCH_DIR / "results"
MEASURE_TIMEOUT_S = 160

# End-to-end metrics, in the order BENCHMARK.json lists them. The error rate
# is reported as its complement, success_rate, because a gated metric must
# never read 0; ``failed``/``attempted`` carry it in the result line.
END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("predictions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def _git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree of
    its own (an enclosing repository's HEAD would describe other code)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _source_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hietan").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def _measure(name: str, size: str, seed: int, seconds: float, trace: int) -> dict:
    w = workload(name, size)
    workdir = WORK_ROOT / f"{name}-{size}-s{seed}-t{trace}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        write_inputs(w, seed, workdir)
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "measure.py"), "--workload", name,
             "--size", size, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--workdir", str(workdir)],
            stdout=subprocess.PIPE, text=True, timeout=MEASURE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"measuring {name} took over {exc.timeout} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"measuring {name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(name: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """Measure one workload and return the result line as a dict."""
    w = workload(name, size)
    report = _measure(name, size, seed, seconds, trace)
    if trace:
        metrics = {k: {"value": report["layers"][k], "unit": u} for k, u in PER_LAYER}
    else:
        if not report["job_s"]:
            raise BenchError(f"every job of {name} failed: {report['problems']}")
        job_s = statistics.median(report["job_s"])
        values = {
            "setup_s": statistics.median(report["setup_s"]),
            "job_s": job_s,
            "predictions_per_s": w.predictions_per_job() / job_s,
            "peak_rss_mb": report["peak_rss_mb"],
            "success_rate": 1.0 - report["failed"] / report["attempted"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }

    job_q = _quartiles(report["job_s"])
    error_rate = report["failed"] / report["attempted"]
    print(f"workload {name} ({size}) seed {seed} trace {trace}: {json.dumps(w.size())}")
    print(f"  job_s median {job_q[1]:.4f} (q1 {job_q[0]:.4f}, q3 {job_q[2]:.4f}, "
          f"n={len(report['job_s'])}); error_rate {error_rate:.4f}")
    print(f"  mean GMean {json.dumps(report['mean_gmean'])}; digest {report['digest']}")
    for problem in report["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")
    if len(report["problems"]) > 20:
        print(f"  ... {len(report['problems']) - 20} more failed checks in the results file")

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}_{size}_seed{seed}_trace{trace}.json"
    record = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha(),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "workload": name,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": {n: workload(n, size).size() for n in WORKLOADS},
        "why": {n: WORKLOADS[n].why for n in WORKLOADS},
        "job_s_quartiles": job_q,
        "error_rate": error_rate,
        "report": report,
        "result": result,
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"  results written to {path.relative_to(ROOT)}")
    return result


def selftest() -> int:
    """Every workload at smoke size, timed and traced: every check must pass
    and every result line must carry exactly the metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = []
    if [x["name"] for x in spec["workloads"]] != list(WORKLOADS):
        bad.append("BENCHMARK.json workloads")
    if expected[0] != dict(END_TO_END) or expected[1] != dict(PER_LAYER):
        bad.append("BENCHMARK.json metrics")
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run(name, seed=1, seconds=1, trace=trace, size="smoke")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or units != expected[trace]:
                bad.append(f"{name} trace {trace}")
    print("selftest: " + (f"FAILED: {', '.join(bad)}" if bad else "all runs passed"))
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
