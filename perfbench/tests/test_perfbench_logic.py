"""Tests of the benchmark's own logic: percentiles, span arithmetic, checks."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from steklov_bench import checks, spans, stats  # noqa: E402

EXPECTED = HERE.parent / "expected"
ROOT = HERE.parent.parent
REFS = json.loads((ROOT / "src/steklov_certify/data/reference_eigenvalues.json").read_text())
SQUARE_REFS = REFS["unit_square"]["values"]
LSHAPE_REFS = REFS["l_shape"]["values"]


def test_p95_refused_with_fewer_than_ten_samples_above():
    assert stats.samples_needed(0.95) == 200
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(199)), 0.95)
    assert stats.percentile(list(range(200)), 0.95) == 189
    assert stats.percentile(list(range(1, 201)), 0.95) == 190


def test_p50_needs_twenty_samples():
    assert stats.samples_needed(0.50) == 20
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([1.0] * 19, 0.50)
    assert stats.percentile(list(range(20, 0, -1)), 0.50) == 10


def test_nearest_rank_is_the_slowest_of_few_units():
    assert stats.nearest_rank([3.0, 1.0, 2.0], 0.9) == 3.0
    assert stats.nearest_rank(list(range(1, 36)), 0.9) == 32


def test_self_time_on_nested_spans():
    # root 0..10 with children 1..4 and 5..9; the second has a child 6..8
    tree = [
        spans.Span("root", 0.0, 10.0, None, 0),
        spans.Span("a", 1.0, 4.0, 0, 0),
        spans.Span("b", 5.0, 9.0, 0, 0),
        spans.Span("c", 6.0, 8.0, 2, 0),
        spans.Span("other", 12.0, 13.0, None, 1),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 2.0, 2.0, 1.0]
    assert sum(spans.self_times(tree)) == sum(s.duration for s in tree if s.parent is None)
    assert spans.top_level_coverage(tree, 14.0) == pytest.approx(11.0 / 14.0)


def test_tracer_nests_spans_and_checks_order():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.new_trace("op")
    outer = tracer.begin("outer")
    inner = tracer.begin("inner", "n8")
    tracer.end(inner)
    tracer.end(outer)
    assert [s.parent for s in tracer.spans] == [None, 0]
    assert spans.self_times(tracer.spans) == [2.0, 1.0]
    assert tracer.trace_kinds == {0: "op"}
    first = tracer.begin("x")
    tracer.begin("y")
    with pytest.raises(RuntimeError):
        tracer.end(first)


def test_committed_ladder_outputs_pass_their_checks():
    text = (EXPECTED / "square_conforming_ladder.csv").read_text()
    assert checks.check_ladder(text, text, SQUARE_REFS, "conforming") == []


def test_ladder_check_rejects_a_value_perturbed_in_its_seventh_digit():
    text = (EXPECTED / "square_conforming_ladder.csv").read_text()
    # the n = 32 row prints lambda_2 = 1.492966 with seven significant digits
    bad = text.replace(",0.2400854,1.492966,", ",0.2400854,1.492967,")
    assert bad.count("1.492967") == 1
    problems = checks.check_ladder(bad, text, SQUARE_REFS, "conforming")
    assert len(problems) == 1 and "lambda_2" in problems[0]


def test_ladder_check_allows_roundoff_only_in_derived_columns():
    text = (EXPECTED / "square_conforming_ladder.csv").read_text()
    check = lambda csv: checks.check_ladder(csv, text, SQUARE_REFS, "conforming")  # noqa: E731
    # n = 64: abs_err_1 = 1.657363e-06 and order_upper_1 = 1.9432
    assert check(text.replace("1.657363e-06", "1.657364e-06")) == []
    assert check(text.replace(",1.9432,", ",1.9433,")) == []
    assert len(check(text.replace("1.657363e-06", "1.667363e-06"))) == 1
    assert len(check(text.replace(",1.9432,", ",1.9442,"))) == 1
    # the constants are compared exactly: cert_const at n = 16
    assert len(check(text.replace(",0.3212529,", ",0.3208,"))) == 1


def test_ladder_check_enforces_the_enclosure():
    text = (EXPECTED / "square_conforming_ladder.csv").read_text()
    above_upper = [1.0] + SQUARE_REFS[1:]
    problems = checks.check_ladder(text, text, above_upper, "conforming")
    assert problems and all("lambda_1" in p for p in problems)
    # CR eigenvalues are no upper bounds: only lower_i <= ref_i is required
    lshape = (EXPECTED / "lshape_cr_ladder.csv").read_text()
    assert checks.check_ladder(lshape, lshape, LSHAPE_REFS, "cr") == []
    assert checks.check_ladder(lshape, lshape, [0.33] + LSHAPE_REFS[1:], "cr")


def test_ladder_check_rejects_missing_rows_and_other_headers():
    text = (EXPECTED / "square_conforming_ladder.csv").read_text()
    assert checks.check_ladder("\n".join(text.splitlines()[:-1]), text, SQUARE_REFS, "conforming")
    assert checks.check_ladder("domain,n\n", text, SQUARE_REFS, "conforming")
    assert checks.check_ladder("", text, SQUARE_REFS, "conforming")


def test_audit_check_accepts_roundoff_and_rejects_each_violation():
    good = dict(volume=1.0, surface=1.0 + 1e-13, mean_shift=1e-14, gap=2e-13,
                error=0.9, kappa=0.1, data_norm=10.0)
    assert checks.check_audit_op(**good) == []
    for key, value in [("surface", 1.0 + 1e-9), ("mean_shift", 1e-9), ("gap", 1e-9),
                       ("error", 1.0 + 1e-12)]:
        assert len(checks.check_audit_op(**{**good, key: value})) == 1, key


def test_benchmark_json_lists_the_traced_metrics():
    from steklov_bench import layers

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert listed == layers.metric_units()


def test_layer_metrics_average_per_call_only_inside_op_traces():
    from steklov_bench import layers

    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.new_trace("setup")
    tracer.end(tracer.begin("linalg.cholesky_solve"))  # 0..1
    tracer.new_trace("op")
    outer = tracer.begin("hypercircle.solve_neumann")  # 2..5
    tracer.end(tracer.begin("linalg.cholesky_solve"))  # 3..4
    tracer.end(outer)
    tracer.end(tracer.begin("cli.certify_level", "n8"))  # 6..7
    tracer.count({"mesh.triangles": 128})
    metrics = layers.layer_metrics(tracer, 0.5)
    assert metrics["linalg.cholesky_solve_ms"] == (1000.0, "ms")
    assert metrics["hypercircle.solve_neumann_ms"] == (2000.0, "ms")
    assert metrics["cli.certify_level_s.n8"] == (1.0, "s")
    assert metrics["mesh.triangles"] == (128, "count")
    assert metrics["linalg.sym_eig_dim"] == (0, "count")
    assert metrics["trace.overhead_s"] == (0.5, "s")
