"""Benchmark the pure-Python rewrite kernels against the compiled extension.

The workload partitions every word of a given degree into equivalence
classes by breadth-first closure.  The verifier partitions the two shipped
relation sets by insertion tableau instead, so this times the route that
custom relation sets and single-class queries take.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import itertools
import time

from placto._kernels import pure
from placto.rewrite import KNUTH, SHIFTED_KNUTH, expanded_rules

try:
    from placto._kernels import _speedups as fast
except ImportError:
    fast = None

WORKLOADS = [
    ("knuth, n=3, degree 6", KNUTH, 3, 6),
    ("knuth, n=4, degree 6", KNUTH, 4, 6),
    ("shifted, n=3, degree 6", SHIFTED_KNUTH, 3, 6),
    ("shifted, n=4, degree 6", SHIFTED_KNUTH, 4, 6),
    ("shifted, n=4, degree 7", SHIFTED_KNUTH, 4, 7),
]


def partition_all_words(backend, table, n: int, degree: int) -> int:
    """Classify every degree-d word over {1..n}; returns the class count."""
    seen: set[bytes] = set()
    classes = 0
    for letters in itertools.product(range(1, n + 1), repeat=degree):
        w = bytes(letters)
        if w in seen:
            continue
        seen.update(backend.closure(w, table))
        classes += 1
    return classes


def run(repeat: int) -> None:
    backends = [("pure", pure)]
    if fast is not None:
        backends.append(("cython", fast))
    else:
        print("compiled kernel not built; benchmarking the pure backend only")
    print(f"{'workload':<26} {'backend':<8} {'classes':>8} {'best of ' + str(repeat):>12}")
    for label, rels, n, degree in WORKLOADS:
        rules = expanded_rules(rels)
        timings = {}
        for name, backend in backends:
            table = backend.RuleTable(rules)
            best = float("inf")
            classes = 0
            for _ in range(repeat):
                t0 = time.perf_counter()
                classes = partition_all_words(backend, table, n, degree)
                best = min(best, time.perf_counter() - t0)
            timings[name] = best
            print(f"{label:<26} {name:<8} {classes:>8} {best * 1000:>10.1f} ms")
        if len(timings) == 2:
            speedup = timings["pure"] / timings["cython"]
            print(f"{label:<26} {'':8} {'':>8} {speedup:>9.1f}x speedup")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="best-of repetitions")
    args = parser.parse_args()
    run(args.repeat)


if __name__ == "__main__":
    main()
