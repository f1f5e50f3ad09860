"""Tests of the benchmark's own arithmetic: percentiles, self time, oracles.

Run with ``python3 -m pytest perfbench``; nothing here imports ncdisc.
"""

import json
import os
import random

import numpy as np
import pytest

import run
import tracing
import workloads as w


# -- percentile rule ---------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 99.9) == 100
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
    assert run.percentile([7.0], 90) == 7.0


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected
    if expected is not None:
        assert run.samples_beyond(n, expected) >= 10


def test_samples_beyond_counts_strictly_greater_ranks():
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(99, 90) == 9
    assert run.samples_beyond(20, 50) == 10


# -- self time ---------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def test_self_time_subtracts_direct_children(clock):
    tracer = tracing.Tracer(clock)
    inner = tracer.wrap("series.inner", lambda: clock.work(2.0))
    hot = tracer.wrap("words.hot", lambda: clock.work(0.5), record=False)

    def outer_body():
        clock.work(1.0)
        inner()
        hot()
        inner()

    outer = tracer.wrap("derivations.outer", outer_body)
    tracer.run("bench.job", outer)

    assert tracer.total["derivations.outer"] == pytest.approx(5.5)
    assert tracer.self_time["derivations.outer"] == pytest.approx(1.0)
    assert tracer.self_time["series.inner"] == pytest.approx(4.0)
    assert tracer.self_time["words.hot"] == pytest.approx(0.5)
    assert tracer.self_time["bench.job"] == pytest.approx(0.0)
    assert tracer.calls["series.inner"] == 2
    layers = tracer.layer_self_time()
    assert sum(layers.values()) == pytest.approx(tracer.total["bench.job"])
    assert layers["derivations"] == pytest.approx(1.0)


def test_spans_name_their_parent_and_skip_hot_calls(clock):
    tracer = tracing.Tracer(clock)
    leaf = tracer.wrap("series.leaf", lambda: clock.work(1.0))
    hot = tracer.wrap("words.hot", leaf, record=False)
    tracer.run("bench.job", hot)
    spans = [s for s in tracer.spans if s is not None]
    assert [s[0] for s in spans] == ["bench.job", "series.leaf"]
    root, child = tracer.spans
    assert root[3] == -1
    # the hot call has no span; its child hangs off the nearest recorded one
    assert child[3] == 0
    assert child[1] >= root[1] and child[2] <= root[2]
    assert tracer.self_time["words.hot"] == pytest.approx(0.0)


def test_failed_call_still_closes_its_span(clock):
    tracer = tracing.Tracer(clock)

    def boom():
        clock.work(1.0)
        raise ValueError("rejected")

    wrapped = tracer.wrap("derivations.boom", boom)
    with pytest.raises(ValueError):
        tracer.run("bench.job", wrapped)
    assert tracer.stack == []
    assert tracer.self_time["derivations.boom"] == pytest.approx(1.0)


# -- speed probe ---------------------------------------------------------------


def test_speed_scale_averages_probe_rates():
    probe = run.SpeedProbe()
    assert probe.scale(0) == 1.0
    ref = run.PROBE_REFERENCE_S
    probe.samples = [ref, ref / 2, ref * 4, 0.0]
    # rates 1, 2 and 1/4 times the reference; a zero reading is dropped
    assert probe.scale(0) == pytest.approx((1 + 2 + 0.25) / 3)
    assert probe.scale(2) == pytest.approx(0.25)
    assert probe.scale(0, 2) == pytest.approx(1.5)
    # nothing sampled in the window: the whole run's rate
    assert probe.scale(4) == probe.scale(0)
    assert probe.scale(9, 12) == probe.scale(0)


def test_job_without_a_probe_takes_its_neighbours_speed():
    probe = run.SpeedProbe()
    ref = run.PROBE_REFERENCE_S
    probe.samples = [ref, ref / 2, ref * 4, ref]
    # a short job between samples 1 and 2 gets the rate of exactly those two
    assert probe.around(2, 2) == pytest.approx((2 + 0.25) / 2)
    # a long job that samples 1 and 2 landed in adds one neighbour on each side
    assert probe.around(1, 3) == pytest.approx((1 + 2 + 0.25 + 1) / 4)
    # the same rule at the edges: only the neighbour that exists counts
    assert probe.around(0, 0) == pytest.approx(1.0)
    assert probe.around(4, 4) == pytest.approx(1.0)


@pytest.mark.parametrize("make", [run.SpeedProbe, lambda: run.SpeedProbe(run.BlasKernel(), run.BLAS_REFERENCE_S)])
def test_speed_probe_samples_and_stops(make):
    with make() as probe:
        started = run.time.thread_time()
        while run.time.thread_time() - started < 5 * run.PROBE_INTERVAL_S:
            run.probe_kernel()
    count = len(probe.samples)
    assert count >= 2 and probe.spent > 0
    started = run.time.thread_time()
    while run.time.thread_time() - started < 3 * run.PROBE_INTERVAL_S:
        run.probe_kernel()
    assert len(probe.samples) == count


def test_per_layer_emits_exactly_the_listed_metrics():
    tracer = tracing.Tracer()
    tally = run.Tally(cpus=[1.0], raw_cpus=[1.0], walls=[1.0], scales=[1.0], latencies=[1.0])
    metrics = run.per_layer(tracer, tally, tally)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        listed = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    assert {k: u for k, (_, u) in metrics.items()} == listed


def test_check_times_average_over_reports():
    first = {"reports": [{"checks": [{"name": "words.a", "elapsed_s": 1.0}]},
                         {"checks": [{"name": "operators.b", "elapsed_s": 4.0}]}]}
    second = {"reports": [{"checks": [{"name": "words.a", "elapsed_s": 3.0}]}]}
    reports = [(0, json.dumps(first)), (0, json.dumps(second)), (1, "not json")]
    times = run.check_times(reports)
    # the unparsable output counts in neither the sum nor the mean
    assert times == pytest.approx({"words.a": 2.0, "operators.b": 2.0})


# -- outcome classification --------------------------------------------------


def test_report_needs_exit_zero_and_every_check_passed():
    good = {"passed": True, "reports": [{"checks": [{"passed": True}, {"passed": True}]}]}
    assert w.classify_report(0, good)
    assert not w.classify_report(1, good)
    bad = {"passed": True, "reports": [{"checks": [{"passed": True}, {"passed": False}]}]}
    assert not w.classify_report(0, bad)
    assert not w.classify_report(0, {"passed": True, "reports": []})
    assert not w.classify_report(0, None)


def test_solved_symbol_drops_only_the_unit_term():
    symbol = {(): 2 + 1j, (0,): 1.0, (1, 0): -3j}
    assert w.classify_solved(0, {(0,): 1.0, (1, 0): -3j}, symbol)
    assert not w.classify_solved(0, {(0,): 1.0}, symbol)
    assert not w.classify_solved(0, {(0,): 1.0, (1, 0): -3j, (): 2 + 1j}, symbol)
    assert not w.classify_solved(1, {(0,): 1.0, (1, 0): -3j}, symbol)


def test_rejection_needs_exit_one_and_the_expected_screen():
    report = {"passed": False, "error": {"check": "pair_structure"}}
    assert w.classify_rejected(1, report, "pair_structure")
    assert not w.classify_rejected(1, report, "commuting_support")
    assert not w.classify_rejected(0, report, "pair_structure")
    assert not w.classify_rejected(2, None, "pair_structure")


def test_own_coboundary_squares_to_zero():
    rng = random.Random(3)
    for arity in (1, 2, 3):
        cochain = w._random_cochain(rng, 2, arity, 6, 3)
        assert w.coboundary(cochain)
        assert w.coboundary(w.coboundary(cochain)) == {}


def test_trivialized_needs_exact_zero_residual():
    rng = random.Random(4)
    eta = w._random_cochain(rng, 2, 1, 5, 3)
    cocycle = w.coboundary(eta)
    assert w.classify_trivialized(0, eta, cocycle)
    nudged = dict(eta)
    key = next(iter(nudged))
    nudged[key] += 1
    assert not w.classify_trivialized(0, nudged, cocycle)
    assert not w.classify_trivialized(0, None, cocycle)


def test_witness_must_be_the_least_violating_tuple():
    cochain = {((0, 1),): 1.0, ((1, 1),): 2.0}
    boundary = w.coboundary(cochain)
    assert len(boundary) == 2
    least = min(boundary, key=w.tuple_order)
    report = {"passed": False, "error": {"witness": [w.word_text(x) for x in least]}}
    assert w.classify_witness(1, report, cochain)
    other = max(boundary, key=w.tuple_order)
    wrong = {"passed": False, "error": {"witness": [w.word_text(x) for x in other]}}
    assert not w.classify_witness(1, wrong, cochain)
    assert not w.classify_witness(0, report, cochain)


def test_norm_estimate_bounds():
    assert w.classify_norm(2.0, 3.0)
    assert w.classify_norm(3.0, 3.0)
    assert not w.classify_norm(3.1, 3.0)
    assert w.classify_norm(2.0, 3.0, oracle=2.0 + 1e-7)
    assert not w.classify_norm(2.0, 3.0, oracle=2.1)
    assert not w.classify_norm(float("nan"), 3.0)


def test_seeded_transform_keeps_singular_values():
    rng = random.Random(9)
    for symbol in w.panel_symbols():
        moved = w.seeded_transform(symbol, rng)
        assert moved != symbol
        before = np.linalg.svd(w.dense_compression(symbol, 2, 4), compute_uv=False)
        after = np.linalg.svd(w.dense_compression(moved, 2, 4), compute_uv=False)
        scale = sum(abs(c) for c in moved.values()) / sum(abs(c) for c in symbol.values())
        assert np.allclose(after, before * scale, rtol=1e-12, atol=1e-12)


def test_dense_compression_ranks_every_word_once():
    identity = w.dense_compression({(): 1.0}, 3, 3)
    assert np.array_equal(identity, np.eye(40))
    shift = w.dense_compression({(1,): 1.0}, 2, 3)
    # an isometry away from the top degree: columns of length < 3 have norm one
    assert np.allclose(np.linalg.norm(shift[:, :7], axis=0), 1.0)


def test_deferred_rejections_count_once_per_pass():
    outcomes = run.Outcomes(attempted=9, wrong=[{0}, set(), {2}])
    assert outcomes.failed() == 2
    # a job the deferred oracle rejects was wrong in every pass it ran in
    assert outcomes.failed(frozenset({0, 1})) == 2 + 2 + 3
