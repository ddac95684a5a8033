"""End-to-end and per-layer benchmark of the placto verifier.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload axioms-wide --seed 1 --seconds 24 --trace 0

Each job runs `placto.cli.main` in fresh interpreters (see workloads.py).
A run makes a fixed number of jobs, set by the workload and `--seconds`
alone.  `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
untraced and traced jobs and reports the per-layer metrics of the traced
ones.  Every output is checked
outside the timed regions.  The last stdout line is the JSON result; the
line before it records provenance.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

SETUP_PROBES = 12  # extra interpreters per run that only import placto.cli
PROCESS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def spawn(argvs: list, trace: bool = False) -> dict:
    """Run one worker interpreter.

    Adds its set-up time as measured ("setup_raw_s") and at reference speed
    ("setup_s"), scaled by the reference loops run just before the spawn
    and just after the import.  Turns each call into [exit code, seconds at
    reference speed, stdout, measured seconds, measured seconds with the
    sampler's ticks].
    """
    before = speed.burst(speed.NEAREST)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # An installed placto runs from cached bytecode; the run's first,
    # unmeasured interpreter writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spec = json.dumps({"argv": argvs, "trace": trace})
    start = speed.clock()
    proc = subprocess.run(
        [sys.executable, str(WORKER)],
        input=spec,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    *calls, last = proc.stdout.splitlines()
    result = json.loads(last)
    starts, durations = result.pop("samples")
    result["calls"] = []
    for line in calls:
        code, elapsed, out, begin, end = json.loads(line)
        scaled = elapsed * speed.local_speed(starts, durations, begin, end)
        result["calls"].append([code, scaled, out, elapsed, end - begin])
    result["reference_s"] = statistics.median(durations)
    if not Path(result["placto_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"placto imported from {result['placto_file']}, not {SRC}")
    if result.get("missing_targets"):
        print(f"perfbench: targets not found: {result['missing_targets']}", file=sys.stderr)
    result["setup_raw_s"] = result["ready"] - start
    result["setup_s"] = result["setup_raw_s"] * speed.mean_speed(before + durations[: speed.NEAREST])
    return result


def run_job(processes: list, trace: bool) -> dict:
    """Spawn each process of a job and merge what they report."""
    results = [spawn(argvs, trace) for argvs in processes]
    calls = [call for r in results for call in r["calls"]]
    return {
        "results": results,
        "argv": [argv for argvs in processes for argv in argvs],
        "calls": calls,
        "wall_s": sum(call[1] for call in calls),
        "raw_wall_s": sum(call[3] for call in calls),
        "gross_wall_s": sum(call[4] for call in calls),
        "rss_mb": max(r["maxrss_kb"] for r in results) / 1024,
        "setups": [r["setup_s"] for r in results],
        "raw_setups": [r["setup_raw_s"] for r in results],
        "reference_s": [r["reference_s"] for r in results],
    }


def check_job(workload: str, job: dict, reference: dict | None) -> list[bool]:
    """Per-invocation verdicts.  The first job of a run is checked in full
    and becomes the reference; later jobs, traced ones included, must repeat
    its exit codes and output byte for byte."""
    if reference is not None:
        return [
            ok and call[0] == ref[0] and call[2] == ref[2]
            for ok, call, ref in zip(reference["verdicts"], job["calls"], reference["calls"])
        ]
    if workload != "queries":
        return [
            workloads.check_fixed(argv, code, out)
            for argv, (code, _, out, *_) in zip(job["argv"], job["calls"])
        ]
    verdicts = []
    for i in range(0, len(job["calls"]), len(workloads.QUERY_KINDS)):
        argv = job["argv"][i]
        group = [(call[0], call[2]) for call in job["calls"][i : i + len(workloads.QUERY_KINDS)]]
        verdicts.extend(workloads.check_word(int(argv[-2]), argv[-1], group))
    return verdicts


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def end_to_end(jobs: list[dict], setups: list[float], per_call: bool, at: int = 1) -> dict:
    """Medians over the run's jobs.  The latency percentiles pool every
    invocation of every job if `per_call`, else take each job as one query.
    Times are at reference speed; with `at=3` and the measured set-up
    times, as measured."""
    wall = "wall_s" if at == 1 else "raw_wall_s"
    if per_call:
        latencies_ms = [call[at] * 1000 for job in jobs for call in job["calls"]]
    else:
        latencies_ms = [job[wall] * 1000 for job in jobs]
    return {
        "wall_s": (statistics.median(j[wall] for j in jobs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(j["rss_mb"] for j in jobs), "MB"),
        "query_ms.p50": (statistics.median(latencies_ms), "ms"),
        "query_ms.p99": (percentile(latencies_ms, 99), "ms"),
    }


def work_counts(job: dict) -> dict:
    """Exact counts read from the verify reports of one job."""
    checked = reports = failed = 0
    for argv, (_, _, out, *_) in zip(job["argv"], job["calls"]):
        if argv[0] != "verify":
            continue
        for line in out.splitlines():
            report = json.loads(line)
            if report.get("check") == "summary":
                failed += report["failed"]
            else:
                reports += 1
                checked += report.get("instances_checked", 0)
    return {
        "verify.instances_checked": checked,
        "verify.reports": reports,
        "verify.reports_failed": failed,
    }


def layer_metrics(job: dict) -> dict:
    """Per-layer metrics of one traced job, from its spans summed over processes."""
    rows: dict[tuple[str, str], list] = {}
    for result in job["results"]:
        for name, parent, calls, total, self_s, items, max_items in result["spans"]:
            row = rows.setdefault((name, parent), [0, 0.0, 0.0, 0, 0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
            row[3] += items
            row[4] = max(row[4], max_items)

    def field(name: str, index: int, parent: str | None = None):
        values = [r[index] for (n, p), r in rows.items() if n == name and parent in (None, p)]
        if index == 4:
            return max(values, default=0)
        return sum(values)

    def calls(name, parent=None):
        return field(name, 0, parent)

    def total(name):
        return field(name, 1)

    def self_s(name):
        return field(name, 2)

    canonical_calls = calls("rewrite.canonical_bytes")
    misses = calls("kernels.closure", "rewrite.canonical_bytes")
    closure_s = total("kernels.closure")
    words_out = field("kernels.closure", 3)
    spans_self = sum(r[2] for (n, _), r in rows.items() if n != "cli.main")
    metrics = {
        "kernels.closure.calls": (calls("kernels.closure"), "count"),
        "kernels.closure.s": (closure_s, "s"),
        "kernels.closure.words_out": (words_out, "count"),
        "kernels.closure.words_per_s": (words_out / closure_s if closure_s else 0.0, "1/s"),
        "kernels.closure.max_class": (field("kernels.closure", 4), "count"),
        "rewrite.canonical_bytes.calls": (canonical_calls, "count"),
        "rewrite.canonical_bytes.self_s": (self_s("rewrite.canonical_bytes"), "s"),
        "rewrite.canonical_memo.hit_ratio": (
            1 - misses / canonical_calls if canonical_calls else 0.0,
            "ratio",
        ),
        "rewrite.canonical_memo.entries": (sum(r["memo_entries"] for r in job["results"]), "count"),
        "rewrite.closure_bytes.calls": (calls("rewrite.closure_bytes"), "count"),
        "rewrite.closure_bytes.self_s": (self_s("rewrite.closure_bytes"), "s"),
        "rewrite.canonical_word.calls": (calls("rewrite.canonical_word"), "count"),
        "verify.verify_axioms.self_s": (self_s("verify.verify_axioms"), "s"),
        "verify.section5.self_s": (self_s("verify.section5"), "s"),
        "verify.cases_tables.self_s": (self_s("verify.cases_tables"), "s"),
        "words.OrderedMorphism.mapping.calls": (calls("words.OrderedMorphism.mapping"), "count"),
        "words.OrderedMorphism.mapping.s": (total("words.OrderedMorphism.mapping"), "s"),
        "words.content.calls": (calls("words.content"), "count"),
        "words.content.s": (total("words.content"), "s"),
        "algebra.NcPoly.monomials_of_content.calls": (
            calls("algebra.NcPoly.monomials_of_content"),
            "count",
        ),
        "algebra.NcPoly.monomials_of_content.self_s": (
            self_s("algebra.NcPoly.monomials_of_content"),
            "s",
        ),
        "algebra.nc_mul.calls": (calls("algebra.nc_mul"), "count"),
        "algebra.nc_mul.s": (total("algebra.nc_mul"), "s"),
        "algebra.nc_mul.terms_out": (field("algebra.nc_mul", 3), "count"),
        "algebra.project_quotient.self_s": (self_s("algebra.project_quotient"), "s"),
        "algebra.lr_expand.self_s": (self_s("algebra.lr_expand"), "s"),
        "tableaux.enumerate.s": (total("tableaux.enumerate"), "s"),
        "tableaux.insert.calls": (calls("tableaux.insert"), "count"),
        "tableaux.insert.s": (total("tableaux.insert"), "s"),
        "tableaux.hook_factorization_check.calls": (
            calls("tableaux.hook_factorization_check"),
            "count",
        ),
        "tableaux.hook_factorization_check.s": (total("tableaux.hook_factorization_check"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.coverage": (
            spans_self / job["gross_wall_s"] if job["gross_wall_s"] else 0.0,
            "ratio",
        ),
    }
    metrics.update({name: (value, "count") for name, value in work_counts(job).items()})
    return metrics


def per_layer(untraced: list[dict], traced: list[dict], failed_frac: float) -> dict:
    per_job = [layer_metrics(job) for job in traced]
    metrics = {}
    for name, (_, unit) in per_job[0].items():
        average = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = (average(m[name][0] for m in per_job), unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(j["wall_s"] for j in traced)
        / statistics.median(j["wall_s"] for j in untraced),
        "ratio",
    )
    metrics["failed_frac"] = (failed_frac, "ratio")
    return metrics


def git_revision() -> dict:
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return {
            "revision": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.CalledProcessError):
        return {"revision": None, "dirty": None}


def provenance(workload: str, seed: int, backend: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seed_used": workload == "queries",
        "kernel_backend": backend,
        "kernel_note": (
            "compiled kernel not built; numbers are for the pure-Python backend"
            if backend == "pure"
            else f"kernel backend {backend}"
        ),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **git_revision(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one benchmark run; returns the result plus the jobs it measured."""
    processes = workloads.job(workload, seed, tiny)
    rounds = max(1, int(seconds // workloads.JOB_SECONDS[workload]))
    modes = (False, True) if trace else (False,)
    if trace:
        rounds = max(1, rounds // 2)  # a traced job takes longer
    warm = spawn([])  # writes bytecode caches; not measured
    setups, raw_setups = [], []
    jobs: dict[bool, list[dict]] = {mode: [] for mode in modes}
    reference = None
    attempted = failed = 0
    for i in range(rounds):
        # set-up probes are spread over the run, so that they see its whole span
        probes = SETUP_PROBES * (i + 1) // rounds - SETUP_PROBES * i // rounds
        for _ in range(probes):
            probe = spawn([])
            setups.append(probe["setup_s"])
            raw_setups.append(probe["setup_raw_s"])
        for mode in modes:
            job = run_job(processes, mode)
            job["verdicts"] = check_job(workload, job, reference)
            if reference is None:
                reference = job
            attempted += len(job["verdicts"])
            failed += job["verdicts"].count(False)
            setups.extend(job["setups"])
            raw_setups.extend(job["raw_setups"])
            jobs[mode].append(job)
    per_call = workload == "queries"
    measured = end_to_end(jobs[False], raw_setups, per_call, at=3)
    measured["reference_us"] = (
        statistics.median(s * 1e6 for j in jobs[False] for s in j["reference_s"]),
        "us",
    )
    if trace:
        metrics = per_layer(jobs[False], jobs[True], failed / attempted)
        metrics["raw.wall_s"] = measured["wall_s"]
        metrics["speed.reference_us"] = measured["reference_us"]
    else:
        metrics = end_to_end(jobs[False], setups, per_call)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    return {
        "provenance": provenance(workload, seed, warm["backend"]),
        "work": work_counts(reference),
        "measured": {name: value for name, (value, _) in measured.items()},
        "result": result,
        "jobs": jobs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "placto" / "cli.py").is_file():
        print(f"perfbench: no placto sources under {SRC}", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    line = {key: out[key] for key in ("provenance", "work", "measured")}
    print(json.dumps(line, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
