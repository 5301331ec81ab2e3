import functools
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench.trace import (
    Tracer,
    gemm_flops_per_row,
    layer_metrics,
    phase_walls,
    self_times,
    union_length,
)


def span(id, name, start, end, parent=None, thread=1, **attrs):
    return {"id": id, "name": name, "start": start, "end": end, "thread": thread,
            "parent": parent, "run": "r", "attrs": attrs}


def test_union_length_merges_overlaps_and_keeps_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)
    assert union_length([(4, 5), (0, 1), (1, 2)]) == pytest.approx(3.0)


# A root on thread 1 fans out to two worker threads whose tasks overlap in
# time; one task has a child of its own, and one child outlives its parent.
TREE = [
    span(1, "pipeline.fan_out", 0.0, 10.0, workers=2),
    span(2, "pipeline.task", 1.0, 6.0, parent=1, thread=2),
    span(3, "pipeline.task", 4.0, 8.0, parent=1, thread=3),
    span(4, "network.encode", 2.0, 3.0, parent=2, thread=2),
    span(5, "network.encode", 7.0, 9.0, parent=3, thread=3),
]


def test_self_time_counts_overlapping_children_once():
    selfs = self_times(TREE)
    assert selfs[1] == pytest.approx(10.0 - 7.0)  # children cover [1, 8]
    assert selfs[2] == pytest.approx(5.0 - 1.0)
    assert selfs[3] == pytest.approx(4.0 - 1.0)  # child clipped to [7, 8]
    assert selfs[4] == pytest.approx(1.0)


def test_phase_wall_is_the_union_across_threads():
    walls = phase_walls(TREE)
    assert walls["encode_cluster"] == pytest.approx(3.0)
    spans = [
        span(1, "pipeline.pretrain", 0.0, 4.0),
        span(2, "pipeline.fan_out", 0.5, 4.0, parent=1, workers=2),
        span(3, "pipeline.train_epoch", 0.5, 3.0, parent=2, thread=2),
        span(4, "pipeline.train_epoch", 10.0, 12.0, thread=2),
        span(5, "pipeline.train_epoch", 11.0, 13.0, thread=3),
    ]
    walls = phase_walls(spans)
    assert walls["pretrain"] == pytest.approx(4.0)
    assert walls["selective_train"] == pytest.approx(3.0)


def test_layer_metrics_pairs_steps_and_measures_fan_out():
    spans = TREE + [
        span(10, "pipeline.train_epoch", 20.0, 30.0, thread=2),
        span(11, "network.forward_loss", 20.0, 21.0, parent=10, thread=2, batch=4),
        span(12, "network.backward", 21.0, 22.5, parent=10, thread=2),
        span(13, "network.sgd_step", 22.5, 23.0, parent=10, thread=2),
        span(14, "network.forward_loss", 23.0, 24.0, parent=10, thread=2, batch=2),
        span(15, "network.backward", 24.0, 25.0, parent=10, thread=2),
        span(16, "network.sgd_step", 25.0, 26.0, parent=10, thread=2),
        span(17, "network.combined_loss", 30.0, 31.0),
        span(18, "network.forward_loss", 30.0, 31.0, parent=17, batch=9),
    ]
    m = layer_metrics(spans, flops_per_row=10, batch_size=4)
    assert m["network.train_steps"] == 2
    assert m["network.step_ms_p50"] == pytest.approx(3000.0)
    assert m["network.gemm_flops_per_step"] == 40
    assert m["network.gemm_gflops"] == pytest.approx(10 * 6 / 6.0 / 1e9)
    assert m["pipeline.fanout_efficiency"] == pytest.approx((5.0 + 4.0) / (10.0 * 2))
    assert m["network.encode_s"] == pytest.approx(3.0)
    assert m["network.combined_loss_s"] == pytest.approx(1.0)
    assert m["network.combined_loss_s"] + m["network.forward_loss_self_s"] == pytest.approx(4.0)


def test_tracer_parents_worker_thread_spans_to_the_caller():
    tracer = Tracer(run="t")

    def fan_out():
        parent = tracer.current()
        task = functools.partial(tracer.call, "pipeline.task", lambda: threading.get_ident(), (), {}, parent)
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(task) for _ in range(4)]]

    tracer.call("pipeline.fan_out", fan_out, (), {})
    spans = tracer.records()
    root = next(s for s in spans if s["name"] == "pipeline.fan_out")
    tasks = [s for s in spans if s["name"] == "pipeline.task"]
    assert len(tasks) == 4
    assert all(t["parent"] == root["id"] for t in tasks)
    assert all(t["thread"] != root["thread"] for t in tasks)


def test_tracer_marks_failed_calls():
    tracer = Tracer(run="t")

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("clustering.gmm_fit", boom, (), {})
    assert tracer.records()[0]["attrs"] == {"error": "ValueError"}


def test_gemm_flops_from_layer_shapes():
    # encoder 3-2-1, decoder 1-2-3, classifier 1-5-2
    expected = 6 * (3 * 2 + 2 * 1 + 1 * 2 + 2 * 3 + 1 * 5 + 5 * 2)
    assert gemm_flops_per_row(3, 1, 2, [2], 5) == expected
