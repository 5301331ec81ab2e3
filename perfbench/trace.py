"""Spans recorded around the program's layer boundaries, and their analysis.

``install`` wraps the public functions at each layer boundary where their
caller looks them up (``spc.pipeline.kmeans_fit``, not
``spc.clustering.kmeans_fit``), so every call the pipeline makes is seen
and nothing under ``src/`` changes.  Spans stay in memory until the run
ends.  Work that ``_fan_out`` hands to worker threads is parented to the
fan-out span, so one tree covers every thread.

The analysis functions take plain span records, so the tests can feed them
hand-built trees.  A span's self time is its duration minus the part of its
interval that its children cover, counted once however many threads
overlap there.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

LAYERS = ("data", "network", "clustering", "consensus", "pipeline", "cli")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list = []
        self._ids = itertools.count(1)  # next() on a count is atomic under the GIL
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn, args, kwargs, parent=None, attrs_of=None):
        """Run fn(*args, **kwargs) inside a span; attrs_of(result) adds attributes."""
        stack = self._stack()
        span = Span(
            id=next(self._ids),
            name=name,
            start=0.0,
            end=0.0,
            thread=threading.get_ident(),
            parent=self.current() if parent is None else parent,
            run=self.run,
        )
        stack.append(span.id)
        span.start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                span.attrs.update(attrs_of(args, kwargs, result))
            return result
        except Exception as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.monotonic()
            stack.pop()
            self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(self, name: str, fn, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_of=attrs_of)

        return traced

    def records(self) -> list:
        return [asdict(s) for s in self.spans]


def _effective_workers(n_tasks: int, workers) -> int:
    """The thread count ``spc.pipeline._fan_out`` uses for n_tasks tasks."""
    if workers is None:
        workers = min(n_tasks, os.cpu_count() or 1)
    return max(1, min(workers, n_tasks))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported ``spc`` package."""
    import spc.cli as cli
    import spc.consensus as consensus
    import spc.pipeline as pipeline
    from spc.network import AutoencoderMember

    def batch_rows(args, kwargs, result):
        return {"batch": int(np.shape(args[1])[0])}

    def em_iters(args, kwargs, result):
        return {"em_iters": len(result.log_likelihood_trace)}

    def votes(args, kwargs, result):
        return {
            "voters": len(args[0]),
            "n_agreed": int(result.n_agreed),
            "n_points": int(result.agreement.shape[0]),
        }

    def input_bytes(args, kwargs, result):
        if args[0].dataset == "idx":
            paths = [args[0].images] + ([args[0].labels] if args[0].labels else [])
            return {"input_bytes": sum(os.path.getsize(p) for p in paths)}
        return {"input_bytes": int(result[0].points.nbytes)}

    def fan_out(original):
        @functools.wraps(original)
        def traced(tasks, workers=None):
            def body():
                parent = tracer.current()
                bound = [
                    functools.partial(tracer.call, "pipeline.task", task, (), {}, parent)
                    for task in tasks
                ]
                return original(bound, workers)

            attrs = {"workers": _effective_workers(len(tasks), workers)}
            return tracer.call(
                "pipeline.fan_out", body, (), {}, attrs_of=lambda *_: attrs
            )

        return traced

    targets = [
        (cli, "build_dataset", "cli.build_dataset", input_bytes),
        (cli, "make_blobs", "data.make_blobs", None),
        (cli, "load_idx", "data.load_idx", None),
        (cli, "normalize", "data.normalize", None),
        (cli, "spc_train", "cli.spc_train", None),
        (cli, "evaluate", "consensus.evaluate", None),
        (cli, "save_member", "cli.save_member", None),
        (cli, "_finalize", "cli.finalize", None),
        (pipeline, "pretrain", "pipeline.pretrain", None),
        (pipeline, "train_epoch", "pipeline.train_epoch", None),
        (pipeline, "_rename_to_previous", "pipeline.rename_to_previous", None),
        (pipeline, "_aligned_correct", "pipeline.aligned_correct", None),
        (pipeline, "combined_loss", "network.combined_loss", None),
        (pipeline, "kmeans_fit", "clustering.kmeans_fit", None),
        (pipeline, "gmm_fit", "clustering.gmm_fit", em_iters),
        (pipeline, "gmm_predict", "clustering.gmm_predict", None),
        (pipeline, "consensus", "consensus.consensus", votes),
        (pipeline, "hungarian", "consensus.hungarian", None),
        (consensus, "hungarian", "consensus.hungarian", None),
        (AutoencoderMember, "forward_loss", "network.forward_loss", batch_rows),
        (AutoencoderMember, "backward", "network.backward", None),
        (AutoencoderMember, "sgd_step", "network.sgd_step", None),
        (AutoencoderMember, "encode", "network.encode", None),
    ]
    for owner, attr, name, attrs_of in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs_of))
    pipeline._fan_out = fan_out(pipeline._fan_out)


# ---- analysis ---------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> dict:
    """{span id: duration minus the union of its children's clipped intervals}."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], [])
            if c["end"] > s["start"] and c["start"] < s["end"]
        )
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _ancestors(span: dict, by_id: dict):
    parent = by_id.get(span["parent"])
    while parent is not None:
        yield parent
        parent = by_id.get(parent["parent"])


def phase_of(span: dict, by_id: dict) -> str | None:
    """The pipeline phase a span stands for, or None if it marks no phase."""
    name = span["name"]
    if name == "pipeline.pretrain":
        return "pretrain"
    if name == "pipeline.train_epoch":
        under_pretrain = any(a["name"] == "pipeline.pretrain" for a in _ancestors(span, by_id))
        return None if under_pretrain else "selective_train"
    if name == "network.encode" or (
        name.startswith("clustering.")
        and not any(a["name"].startswith("clustering.") for a in _ancestors(span, by_id))
    ):
        return "encode_cluster"
    if name in ("consensus.consensus", "pipeline.rename_to_previous", "pipeline.aligned_correct"):
        return "align_vote"
    if name == "network.combined_loss":
        return "loss_eval"
    return None


PHASES = ("pretrain", "encode_cluster", "align_vote", "selective_train", "loss_eval")


def phase_walls(spans: list) -> dict:
    """{phase: union of its spans' intervals across every thread}."""
    by_id = {s["id"]: s for s in spans}
    intervals = {p: [] for p in PHASES}
    for s in spans:
        phase = phase_of(s, by_id)
        if phase is not None:
            intervals[phase].append((s["start"], s["end"]))
    return {p: union_length(iv) for p, iv in intervals.items()}


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _seconds(spans) -> list:
    return [s["end"] - s["start"] for s in spans]


def _steps(spans: list) -> list:
    """(seconds, batch rows) per training step: forward_loss start to sgd_step end.

    Only steps end in sgd_step, so the forward passes of loss evaluation,
    which no sgd_step follows, are left out.
    """
    by_parent: dict = {}
    for s in spans:
        if s["name"] in ("network.forward_loss", "network.sgd_step"):
            by_parent.setdefault(s["parent"], []).append(s)
    steps = []
    for group in by_parent.values():
        forward = None
        for s in sorted(group, key=lambda s: s["start"]):
            if s["name"] == "network.forward_loss":
                forward = s
            elif forward is not None:
                steps.append((s["end"] - forward["start"], forward["attrs"]["batch"]))
                forward = None
    return steps


def gemm_flops_per_row(input_dim: int, latent_dim: int, n_clusters: int, hidden, classifier_hidden: int) -> int:
    """GEMM flops of one training step per batch row, from the layer shapes.

    Every step runs the encoder, decoder and classifier forward (x W^T) and
    backward (gz^T x and gz W), 2 flops per multiply-add, so each layer of
    shape (fan_in, fan_out) costs 6 * fan_in * fan_out per row.
    """
    hidden = list(hidden)
    stacks = (
        [input_dim] + hidden + [latent_dim],
        [latent_dim] + hidden[::-1] + [input_dim],
        [latent_dim, classifier_hidden, n_clusters],
    )
    return sum(6 * a * b for widths in stacks for a, b in zip(widths[:-1], widths[1:]))


def layer_metrics(spans: list, flops_per_row: int, batch_size: int) -> dict:
    """Per-layer metrics of one traced run, from its spans alone."""
    selfs = self_times(spans)
    named: dict = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def total(*names):
        return float(sum(sum(_seconds(named.get(n, []))) for n in names))

    def self_of(*names):
        return float(sum(selfs[s["id"]] for n in names for s in named.get(n, [])))

    fits = named.get("clustering.kmeans_fit", []) + named.get("clustering.gmm_fit", [])
    hungarian = named.get("consensus.hungarian", [])
    votes = named.get("consensus.consensus", [])
    steps = _steps(spans)
    step_seconds = [t for t, _ in steps]
    step_flops = flops_per_row * sum(rows for _, rows in steps)
    walls = phase_walls(spans)
    fan_outs = named.get("pipeline.fan_out", [])
    busy = total("pipeline.task")
    capacity = sum((f["end"] - f["start"]) * f["attrs"]["workers"] for f in fan_outs)
    build = named.get("cli.build_dataset", [])

    metrics = {
        "data.load_s": total("data.load_idx", "data.make_blobs"),
        "data.normalize_s": total("data.normalize"),
        "data.input_bytes": float(sum(s["attrs"].get("input_bytes", 0) for s in build)),
        "network.train_steps": float(len(named.get("network.sgd_step", []))),
        "network.step_ms_p50": 1e3 * _percentile(step_seconds, 50),
        "network.step_ms_p99": 1e3 * _percentile(step_seconds, 99),
        "network.forward_loss_self_s": self_of("network.forward_loss"),
        "network.backward_self_s": self_of("network.backward"),
        "network.sgd_step_self_s": self_of("network.sgd_step"),
        "network.gemm_flops_per_step": float(flops_per_row * batch_size),
        "network.gemm_gflops": step_flops / sum(step_seconds) / 1e9 if steps else 0.0,
        "network.encode_s": total("network.encode"),
        "network.combined_loss_s": total("network.combined_loss"),
        "clustering.fits": float(len(fits)),
        "clustering.fit_ms_p50": 1e3 * _percentile(_seconds(fits), 50),
        "clustering.fit_self_s": self_of(
            "clustering.kmeans_fit", "clustering.gmm_fit", "clustering.gmm_predict"
        ),
        "clustering.em_iters": float(sum(s["attrs"].get("em_iters", 0) for s in fits)),
        "clustering.failed_fits": float(sum("error" in s["attrs"] for s in fits)),
        "consensus.calls": float(len(votes)),
        "consensus.hungarian_calls": float(len(hungarian)),
        "consensus.hungarian_ms_p50": 1e3 * _percentile(_seconds(hungarian), 50),
        "consensus.hungarian_s": total("consensus.hungarian"),
        "consensus.voters_per_iter": _mean([s["attrs"]["voters"] for s in votes]),
        "consensus.agreed_ratio": _mean(
            [s["attrs"]["n_agreed"] / s["attrs"]["n_points"] for s in votes]
        ),
        "pipeline.fanout_efficiency": busy / capacity if capacity > 0 else 0.0,
        "pipeline.iterations": float(len(votes)),
    }
    for phase, wall in walls.items():
        metrics[f"pipeline.{phase}_wall_s"] = wall
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = float(
            sum(selfs[s["id"]] for s in spans if s["name"].split(".", 1)[0] == layer)
        )
    return metrics
