"""Self-test of the benchmark: python3 -m pytest perfbench

Runs every workload at tiny scale with tracing, and checks that the spans
expected on that workload are nonzero, that traced output is byte-identical
to untraced output, that the tracer wraps and restores every binding, and
that times are scaled by the mean speed the sampler saw.
"""

from __future__ import annotations

import json
import sys

import pytest

import run
import spans
import speed
import workloads

sys.path.insert(0, str(run.SRC))

# Per-layer metrics that must be nonzero on each workload (at tiny scale too).
ALL_VERIFY = (
    "kernels.closure.calls",
    "kernels.closure.words_out",
    "rewrite.canonical_bytes.calls",
    "rewrite.canonical_memo.hit_ratio",
    "rewrite.canonical_memo.entries",
    "rewrite.closure_bytes.calls",
    "rewrite.canonical_word.calls",
    "verify.instances_checked",
    "verify.reports",
    "algebra.nc_mul.calls",
    "algebra.project_quotient.self_s",
    "tableaux.enumerate.s",
)
AXIOMS = ALL_VERIFY + (
    "verify.verify_axioms.self_s",
    "words.OrderedMorphism.mapping.calls",
    "words.OrderedMorphism.mapping.s",
)
EXPECTED_NONZERO = {
    "axioms-wide": AXIOMS,
    "axioms-deep": AXIOMS + ("kernels.closure.s", "kernels.closure.max_class"),
    "products": ALL_VERIFY
    + (
        "kernels.closure.s",
        "verify.section5.self_s",
        "verify.cases_tables.self_s",
        "words.content.calls",
        "words.content.s",
        "algebra.NcPoly.monomials_of_content.calls",
        "algebra.NcPoly.monomials_of_content.self_s",
        "algebra.nc_mul.s",
        "algebra.nc_mul.terms_out",
        "algebra.lr_expand.self_s",
    ),
    "queries": (
        "kernels.closure.calls",
        "kernels.closure.s",
        "kernels.closure.words_out",
        "kernels.closure.words_per_s",
        "kernels.closure.max_class",
        "rewrite.closure_bytes.calls",
        "rewrite.closure_bytes.self_s",
        "tableaux.insert.calls",
        "tableaux.insert.s",
        "tableaux.hook_factorization_check.calls",
        "tableaux.hook_factorization_check.s",
        "cli.main.self_s",
    ),
}
ALWAYS = ("trace.overhead_ratio", "trace.coverage", "cli.main.self_s")


BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run(workload):
    out = run.run(workload, seed=5, seconds=0, trace=True, tiny=True)
    result = out["result"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["failed_frac"] == 0
    zero = [name for name in EXPECTED_NONZERO[workload] + ALWAYS if not metrics[name] > 0]
    assert not zero, f"expected nonzero on {workload}: {zero}"
    assert 0 < metrics["trace.coverage"] <= 1
    untraced = out["jobs"][False][0]["calls"]
    for job in out["jobs"][True]:
        assert [(call[0], call[2]) for call in job["calls"]] == [
            (call[0], call[2]) for call in untraced
        ]


def test_untraced_run_reports_the_end_to_end_metrics():
    result = run.run("products", seed=5, seconds=0, trace=False, tiny=True)["result"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_wraps_and_restores_every_binding():
    import placto.cli  # noqa: F401 - loads every placto module

    originals = {}
    for _, module_name, attr, _ in spans.TARGETS:
        owner_name, _, name = attr.rpartition(".")
        owner = sys.modules[module_name]
        if owner_name:
            owner = getattr(owner, owner_name)
        originals[(module_name, attr)] = vars(owner)[name]
    bindings = [
        (module, binding)
        for module in spans.placto_modules()
        for binding, value in vars(module).items()
        if any(value is fn for fn in originals.values())
    ]
    # from-imports give several bindings, e.g. verify.canonical_bytes
    assert len(bindings) > len(originals)

    tracer = spans.Tracer()
    assert tracer.install() == []
    try:
        for module, binding in bindings:
            assert all(vars(module)[binding] is not fn for fn in originals.values()), (
                f"{module.__name__}.{binding} left unwrapped"
            )
        import placto.words

        assert placto.words.OrderedMorphism.mapping is not originals[
            ("placto.words", "OrderedMorphism.mapping")
        ]
    finally:
        tracer.restore()
    for module, binding in bindings:
        assert any(vars(module)[binding] is fn for fn in originals.values())
    for (module_name, attr), fn in originals.items():
        owner_name, _, name = attr.rpartition(".")
        owner = sys.modules[module_name]
        if owner_name:
            owner = getattr(owner, owner_name)
        assert vars(owner)[name] is fn


def _query_outputs(n: int, word: str) -> list:
    import contextlib
    import io

    import placto.cli

    calls = []
    for kind in workloads.QUERY_KINDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = placto.cli.main(kind + ["--n", str(n), word])
        calls.append((code, out.getvalue()))
    return calls


def test_query_checks_catch_wrong_outputs():
    calls = _query_outputs(4, "3142413")
    assert workloads.check_word(4, "3142413", calls) == [True] * 4

    knuth = json.loads(calls[2][1])
    knuth["class"] = knuth["class"][:-1]
    knuth["size"] -= 1
    tampered = calls[:2] + [(0, json.dumps(knuth))] + calls[3:]
    verdicts = workloads.check_word(4, "3142413", tampered)
    assert verdicts[2] is False and verdicts[0] and verdicts[3]

    shifted = json.loads(calls[3][1])
    shifted["class"][-1] = shifted["class"][0]
    tampered = calls[:3] + [(0, json.dumps(shifted))]
    assert workloads.check_word(4, "3142413", tampered)[3] is False

    assert workloads.check_word(4, "3142413", calls[:3] + [(1, "")]) == [False] * 4

    # a wrong mixed tableau of the right shape and content
    mixed = json.loads(calls[0][1])
    assert mixed["tableau"]["rows"][0][2] == "3'"
    mixed["tableau"]["rows"][0][2] = "3"
    tampered = [(0, json.dumps(mixed))] + calls[1:]
    assert workloads.check_word(4, "3142413", tampered) == [False, True, True, True]


def test_own_mixed_insertion_matches_placto():
    from itertools import product

    from placto.tableaux import mixed_insert_word
    from placto.words import Word

    for n, length in ((3, 6), (4, 5)):
        for letters in product(range(1, n + 1), repeat=length):
            word = Word.parse("".join(map(str, letters)), n)
            rows = workloads.parse_shifted(mixed_insert_word(word).to_json()["rows"])
            assert workloads.mixed_insertion(letters) == rows
            assert workloads.is_shifted_tableau(rows)


def test_fixed_checks_need_the_recorded_digest():
    passing_summary = '{"check": "summary", "pass": true}\n'
    assert not workloads.check_fixed(["verify", "tables"], 0, passing_summary)


def test_query_stream_is_seeded():
    assert workloads.query_words(7, 50) == workloads.query_words(7, 50)
    assert workloads.query_words(7, 50) != workloads.query_words(8, 50)


def test_speed_is_the_mean_over_the_interval():
    slow, fast = speed.NOMINAL_S, speed.NOMINAL_S / 2
    starts = [0.02 * i for i in range(100)]
    durations = [slow] * 50 + [fast] * 50
    # half the interval at reference speed, half at twice that
    assert speed.local_speed(starts, durations, 0.0, 2.0) == pytest.approx(1.5)
    # a short interval takes the samples nearest its middle
    assert speed.local_speed(starts, durations, 1.9, 1.91) == pytest.approx(2.0)
    assert speed.local_speed(starts, durations, 0.0, 0.001) == pytest.approx(1.0)


def test_sampler_records_its_ticks():
    import time

    sampler = speed.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.durations) == len(sampler.starts) >= 5
    assert 0 < sampler.spent < 0.3
    assert speed.reference() == 35
