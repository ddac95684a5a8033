"""One benchmark process: import placto, run CLI invocations, report as JSON.

Reads {"argv": [[...], ...], "trace": bool} from stdin.  The clock reading
taken when `import placto.cli` returns lets the parent measure set-up time
from the moment it spawned this interpreter; a burst of reference loops
right after it gives the machine's speed at that moment.  Each invocation
calls `placto.cli.main` with stdout captured; only that call is timed, while
a speed.Sampler samples the machine's speed, and the sampler's own time is
taken out.  With "trace", the per-layer spans of spans.Tracer are installed
first and their aggregates are reported.  Stdout carries one JSON line per
invocation and then one JSON object with the rest of the result.
"""

import time

import placto.cli

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import speed  # noqa: E402

SAMPLER = speed.Sampler()
for _ in range(speed.NEAREST):
    SAMPLER.sample()


def run_invocations(main, argvs: list, sampler: speed.Sampler) -> None:
    """Write [exit code, seconds inside main, stdout, start, end] of each
    invocation as one JSON line, at once, so that this process does not hold
    the outputs.  The seconds exclude the sampler's ticks."""
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            spent = sampler.spent
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:  # noqa: BLE001 - a crash is a failed invocation
                code = "exception"
                traceback.print_exc()
            end = time.perf_counter()
            elapsed = end - start - (sampler.spent - spent)
        sys.stdout.write(json.dumps([code, elapsed, out.getvalue(), start, end]) + "\n")


def main() -> None:
    spec = json.loads(sys.stdin.read())
    tracer = None
    main_fn = placto.cli.main
    if spec.get("trace"):
        from spans import ROOT, Tracer

        tracer = Tracer()
        missing = tracer.install()
        main_fn = tracer.wrap(ROOT, main_fn)
    SAMPLER.start()
    try:
        run_invocations(main_fn, spec.get("argv", []), SAMPLER)
    finally:
        SAMPLER.stop()
    result = {
        "ready": READY,
        "samples": [list(SAMPLER.starts), list(SAMPLER.durations)],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "memo_entries": sum(
            len(m) for m in getattr(placto.rewrite, "_canonical_memo", {}).values()
        ),
        "backend": placto.kernel_backend,
        "placto_file": placto.__file__,
    }
    if tracer is not None:
        tracer.restore()
        result["spans"] = tracer.records()
        result["missing_targets"] = missing
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
