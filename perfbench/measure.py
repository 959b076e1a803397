"""Measuring process of the hietan benchmark; ``run.py`` starts it fresh for
every run on inputs it has already written, and reads one JSON line back.

    python3 perfbench/measure.py --workload NAME --size full|smoke \
        --seed N --seconds S --trace 0|1 --workdir DIR

``--trace 0`` (timed run): load the inputs several times, run one job and
read the process's peak resident memory, run further jobs until ``--seconds``
of jobs have run, then check the outputs in an untimed pass. Every time is
scaled to a reference host speed (``hostspeed.py``). ``--trace 1`` (traced
run): an untraced job, the traced replay, the untimed decision-counter pass,
another untraced job, and one job with the lazy learner's worker pool.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import warnings
from pathlib import Path
from time import perf_counter

from workloads import (
    CONSTRAINED,
    JOBS,
    POOL_JOBS,
    digest,
    gmean_problems,
    load_inputs,
    mean_gmeans,
    opposing_edges,
    output_doc,
    predict,
    run_job,
    workload,
)
from hostspeed import HostClock, kernel, scale_factor
from replay import Spans, count_decisions, layer_metrics, replay_cv, replay_score

# Set-up is repeated at least this often, and more while it stays cheap.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 400
SETUP_BUDGET_S = 2.0
# A timed run always measures at least this many jobs.
MIN_JOBS = 2


def _output_problems(w, inputs, trees, ref_raw) -> list[str]:
    """Checks on one output that every job of the run shares: constrained
    trees never oppose the hierarchy, and a reloaded model predicts exactly
    like the in-memory one."""
    problems = []
    for (method, fold, row), tree in trees.items():
        if method in CONSTRAINED:
            for p, c in opposing_edges(tree, inputs.dag):
                problems.append(
                    f"{method} fold {fold} row {row}: edge {p}->{c} opposes the hierarchy"
                )
    if w.kind == "score":
        in_memory = [predict(ref_raw.fitted, row) for row in inputs.score.values]
        if in_memory != ref_raw.predictions:
            problems.append("predictions after save_model/load_model differ from in-memory")
    return problems


def _replay_problems(rep, job_doc) -> list[str]:
    if rep.doc == job_doc:
        return []
    return [f"replay output {digest(rep.doc)} differs from the job's {digest(job_doc)}"]


def timed_run(w, workdir: Path, seed: int, seconds: float) -> dict:
    # Every time reported is scaled to the reference host's speed by the
    # calibration kernel runs inside it (hostspeed.py); the unscaled times
    # go into the report beside the scaled ones.
    job_raw, job_s, problems = [], [], []
    attempted = failed = 0
    ref_doc = ref_raw = None
    peak_rss_mb = None
    with HostClock() as clock:
        # Set-up first, in the fresh process, so that the first load is cold.
        # A load is often shorter than the timer's period, so each one is
        # also scaled by a kernel run right before it.
        setup_raw, setup_s = [], []
        while len(setup_raw) < SETUP_MIN_REPS or (
            len(setup_raw) < SETUP_MAX_REPS and sum(setup_raw) < SETUP_BUDGET_S
        ):
            _, before, _ = clock.time(kernel)
            inputs, elapsed, inside = clock.time(load_inputs, w, workdir)
            setup_raw.append(elapsed)
            setup_s.append(elapsed * scale_factor([before] + inside))

        # At least MIN_JOBS jobs, then more while the next one (as long as
        # the median so far) still ends within ``seconds`` of jobs.
        spent = 0.0
        while attempted < MIN_JOBS or spent + statistics.median(job_raw or [0.0]) <= seconds:
            attempted += 1
            start = perf_counter()
            try:
                raw, elapsed, inside = clock.time(run_job, w, inputs, seed, workdir)
            except Exception as exc:  # a raising job is a failed job; keep measuring
                problems.append(f"job {attempted} raised {exc!r}")
                failed += 1
                spent += perf_counter() - start
                continue
            spent += elapsed
            job_raw.append(elapsed)
            job_s.append(elapsed * scale_factor(inside or clock.kernel_s))
            if peak_rss_mb is None:
                # A fresh process that has loaded the inputs and run one job.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            doc = output_doc(w, raw, inputs)
            job_problems = gmean_problems(doc)
            if ref_doc is None:
                ref_doc, ref_raw = doc, raw
            elif doc != ref_doc:
                job_problems.append(f"job {attempted} output {digest(doc)} differs from job 1")
            problems += job_problems
            failed += bool(job_problems)

    if ref_doc is not None:
        if w.kind == "cv":
            # run_cv_experiment keeps its trees; a replay of its calls shows them.
            rep = replay_cv(w, inputs, seed, Spans())
            trees, shared = rep.trees, _replay_problems(rep, ref_doc)
        else:
            trees, shared = {("hie_tan", 0, None): ref_raw.tree}, []
        shared += _output_problems(w, inputs, trees, ref_raw)
        if shared:
            # Every job repeated job 1's output, so every job shares the fault.
            problems += shared
            failed = attempted
    return {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "job_s": job_s,
        "job_raw_s": job_raw,
        "kernel_runs": len(clock.kernel_s),
        "kernel_mean_s": statistics.fmean(clock.kernel_s),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": ref_doc and digest(ref_doc),
        "mean_gmean": ref_doc and mean_gmeans(ref_doc),
    }


def traced_run(w, workdir: Path, seed: int) -> dict:
    spans = Spans()
    inputs = load_inputs(w, workdir, spans)

    def untraced_job(jobs=JOBS):
        start = perf_counter()
        raw = run_job(w, inputs, seed, workdir, jobs)
        return perf_counter() - start, raw

    # Untraced jobs before and after the replay, so that a steady drift in
    # host speed cancels out of evaluate.self_s and trace_overhead_s.
    before_s, raw = untraced_job()
    if w.kind == "cv":
        rep = replay_cv(w, inputs, seed, spans)
    else:
        rep = replay_score(inputs, seed, spans, workdir)
    counters, mismatches = count_decisions(w, inputs, seed, rep)
    # Release the ranked edge lists so that both untraced jobs run with the
    # same live heap.
    rep.folds.clear()
    after_s, raw_after = untraced_job()
    job_wall_s = (before_s + after_s) / 2
    job_doc = output_doc(w, raw, inputs)

    problems = gmean_problems(job_doc) + mismatches + _replay_problems(rep, job_doc)
    if output_doc(w, raw_after, inputs) != job_doc:
        problems.append("the two untraced jobs disagree")
    problems += _output_problems(w, inputs, rep.trees, raw)
    metrics = layer_metrics(spans, rep, inputs, job_wall_s)
    metrics.update(counters)
    # The worker pool only serves the lazy learner; elsewhere jobs=2 is jobs=1.
    metrics["evaluate.pool_job_s"] = 0.0
    if "hie_tan_lite" in w.methods:
        pool_s, pooled = untraced_job(POOL_JOBS)
        metrics["evaluate.pool_job_s"] = pool_s
        if output_doc(w, pooled, inputs) != job_doc:
            problems.append(f"jobs={POOL_JOBS} output differs from jobs=1")
    attempted = 3 if "hie_tan_lite" in w.methods else 2
    return {
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "problems": problems,
        "job_s": [before_s, after_s],
        "layers": metrics,
        "digest": digest(job_doc),
        "mean_gmean": mean_gmeans(job_doc),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", default="full", choices=("full", "smoke"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()
    w = workload(args.workload, args.size)
    # The residual-orientation drop warnings would flood stderr; the traced
    # run counts them with its own filter.
    warnings.simplefilter("ignore", RuntimeWarning)
    if args.trace:
        out = traced_run(w, args.workdir, args.seed)
    else:
        out = timed_run(w, args.workdir, args.seed, args.seconds)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
