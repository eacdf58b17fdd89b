"""Spans around cfpower's public functions, recorded from outside the package.

Around each traced call into cfpower, every target attribute is swapped for
a wrapper that records a span (name, kind tag, start, end, parent, trace id)
plus per-call counts; afterwards every attribute is restored, also when the
call raises. Spans stay in memory until the run ends. A span's self time is
its duration minus the time of its direct children; spans are strictly
nested because the run is one thread.

The targets are the module attributes the program calls through, so
`cmd_generate` reaching `build_sample` via `cfpower.pipeline.build_sample`
records a span, and `wmmse_solve` reaching `solve_subproblem` via
`cfpower.wmmse.solve_subproblem` records one too.
"""

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np

from cfpower import allocator, dataset, heuristics, mlp, pipeline, wmmse

KINDS = ("ddnn", "ddnn-si", "cdnn")


class Tracer:
    """In-memory span store for one benchmark run."""

    def __init__(self):
        self.spans = []         # [name, tag, start, end, parent, trace_id]
        self.counts = defaultdict(float)
        self.trace_id = -1
        self.units = 0
        self._stack = []

    def begin_unit(self):
        """Start a new trace id: one drop, or one training round."""
        self.trace_id += 1
        self.units += 1

    def open(self, name, tag=None):
        parent = self._stack[-1] if self._stack else -1
        if tag is None and parent >= 0:
            tag = self.spans[parent][1]
        self.spans.append([name, tag, time.perf_counter(), None, parent,
                           self.trace_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def cancel(self, idx):
        """Drop the most recent span (an iterator step that found no item)."""
        self._stack.pop()
        del self.spans[idx]

    def count(self, key, value=1.0):
        self.counts[key] += value

    def totals(self):
        """{(name, tag): [calls, self_s, total_s]} over all spans."""
        child_time = [0.0] * len(self.spans)
        for name, tag, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, tag, start, end, _, _) in enumerate(self.spans):
            agg = out[(name, tag)]
            agg[0] += 1
            agg[1] += (end - start) - child_time[i]
            agg[2] += end - start
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, tag, start, end, parent, tid in self.spans:
                fh.write(json.dumps({"name": name, "tag": tag, "start": start,
                                     "end": end, "parent": parent,
                                     "trace_id": tid}) + "\n")


def _weights(model):
    """Multiply-adds per row of one forward pass."""
    return sum(layer.W.size for layer in model.layers)


def _kind_of_models(args, kwargs):
    models = args[0] if args else kwargs["models"]
    return models[0].kind


def _se_cost(tr, args, kwargs, result):
    n, K, L, N = args[0].h.shape
    # g = h^H w per (r, k, i, l), then B as its (l, m) outer products; one
    # complex multiply-add is 8 flops
    tr.count("se.flop", 8.0 * n * K * K * L * (N + L))
    tr.count("se.bytes", 16.0 * (2 * n * K * L * N + 3 * n * K * K * L)
             + 8.0 * (K * L + K * K * L * L))


def _solve_counts(tr, args, kwargs, result):
    tr.count("wmmse.solves")
    tr.count("wmmse.outer_steps", result.n_outer)
    tr.count("wmmse.not_converged", int(not result.converged))
    tr.count("wmmse.subproblem_exhausted", result.subproblem_exhausted)
    tr.count("wmmse.clamp_events", result.clamp_events)
    tr.count("wmmse.sign_flips", result.sign_flips)


def _subproblem_counts(tr, args, kwargs, result):
    tr.count("wmmse.subproblems")
    tr.count("wmmse.admm_iters", result.n_iters)


def _grad_flop(tr, args, kwargs, result):
    # forward (2 flops per multiply-add) plus two backward products
    tr.count("mlp.flop", 6.0 * args[1].shape[0] * _weights(args[0]))


def _loss_flop(tr, args, kwargs, result):
    tr.count("mlp.flop", 2.0 * np.atleast_2d(args[1]).shape[0]
             * _weights(args[0]))


def _append_bytes(tr, args, kwargs, result):
    cfg = args[0].header.config
    tr.count("dataset.bytes_written", dataset.record_size(cfg.K, cfg.L))


def targets():
    """(owner, attribute, span name, tag function, result hook) per wrap.

    One function can sit behind several attributes (`pipeline.apply_scaler`
    and `allocator.apply_scaler`); each attribute gets its own wrapper
    around the original, so no call is recorded twice.
    """
    P, W, A = pipeline, wmmse, allocator
    return [
        (P, "cmd_generate", "pipeline.cmd_generate", None, None),
        (P, "build_sample", "pipeline.build_sample", None, None),
        (P, "drop_scenario", "network.drop_scenario", None, None),
        (P, "build_statistics", "network.build_statistics", None, None),
        (P, "assign_pilots", "pilots.assign_pilots", None, None),
        (P, "sample_channels", "estimation.sample_channels", None, None),
        (P, "mmse_estimate", "estimation.mmse_estimate", None, None),
        (P, "compute_precoders", "precoding.compute_precoders", None, None),
        (P, "estimate_se_parameters", "se.estimate_se_parameters", None,
         _se_cost),
        (P, "wmmse_solve", "wmmse.wmmse_solve", None, _solve_counts),
        (W, "wmmse_solve", "wmmse.wmmse_solve", None, _solve_counts),
        (W, "update_auxiliaries", "wmmse.update_auxiliaries", None, None),
        (W, "solve_subproblem", "wmmse.solve_subproblem", None,
         _subproblem_counts),
        (W, "utility", "wmmse.utility", None, None),
        (A, "predict_allocation", "allocator.predict_allocation",
         _kind_of_models, None),
        (A, "model_features", "allocator.model_features", _kind_of_models,
         None),
        (A, "predict_from_features", "allocator.predict_from_features",
         _kind_of_models, None),
        (A, "apply_scaler", "scaling.apply_scaler", None, None),
        (A, "forward", "mlp.forward", None, None),
        (heuristics, "heuristic_allocation", "heuristics.heuristic_allocation",
         None, None),
        (P, "cmd_train", "pipeline.cmd_train", None, None),
        (P, "features_for", "allocator.features_for", None, None),
        (P, "fit_scaler", "scaling.fit_scaler", None, None),
        (P, "apply_scaler", "scaling.apply_scaler", None, None),
        (P, "train", "mlp.train", None, None),
        (P, "save_model", "allocator.save_model", None, None),
        (mlp, "loss_and_grads", "mlp.loss_and_grads", None, _grad_flop),
        (mlp, "mse_loss", "mlp.mse_loss", None, _loss_flop),
        (mlp, "forward", "mlp.forward", None, None),
        (dataset.DatasetFile, "append", "dataset.append", None,
         _append_bytes),
        (dataset.DatasetFile, "read", "dataset.read", None, None),
        (dataset.DatasetFile, "__iter__", "dataset.read", None, None),
    ]


def _wrap(tracer, name, fn, tag_of, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name, tag_of(args, kwargs) if tag_of else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return wrapper


def _wrap_iter(tracer, name, fn):
    """One span per record pulled from a generator method."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            idx = tracer.open(name)
            try:
                item = next(it)
            except StopIteration:
                tracer.cancel(idx)
                return
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx)
            yield item
    return wrapper


@contextlib.contextmanager
def installed(tracer):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, tag_of, hook in targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            if attr == "__iter__":
                setattr(owner, attr, _wrap_iter(tracer, name, original))
            else:
                setattr(owner, attr, _wrap(tracer, name, original, tag_of,
                                           hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metric names; BENCHMARK.json gives their units. `.ms` is self
# time per unit (drop, or training round), `.total_ms` the span's full
# duration per unit, `.calls` calls per unit. Counts from solver results are
# per solve or per subproblem as named. flop and byte figures are computed
# from array shapes, not measured. Only the learned allocators' entry points
# set a kind tag, so `<name>.<kind>.*` covers inference alone, while
# `mlp.forward.ms` also covers the forward passes of the training loss.
_SPAN_MS = [
    "pipeline.cmd_generate", "pipeline.build_sample",
    "network.drop_scenario", "network.build_statistics",
    "pilots.assign_pilots", "estimation.sample_channels",
    "estimation.mmse_estimate", "precoding.compute_precoders",
    "se.estimate_se_parameters", "wmmse.wmmse_solve",
    "wmmse.update_auxiliaries", "wmmse.solve_subproblem", "wmmse.utility",
    "heuristics.heuristic_allocation", "pipeline.cmd_train",
    "dataset.read", "allocator.features_for", "scaling.fit_scaler",
    "mlp.train", "mlp.loss_and_grads", "mlp.mse_loss", "mlp.forward",
    "allocator.save_model", "dataset.append",
]
_SPAN_TOTAL_MS = ["pipeline.cmd_generate", "pipeline.build_sample",
                  "wmmse.wmmse_solve", "pipeline.cmd_train", "mlp.train"]
_KIND_SPANS = ["allocator.predict_allocation", "allocator.model_features",
               "allocator.predict_from_features", "scaling.apply_scaler",
               "mlp.forward"]
ALLOC_STRATEGIES = ("wmmse-sumse", "wmmse-pf", "ddnn", "ddnn-si", "cdnn",
                    "heuristic")


def alloc_metric(strategy, q):
    return f"alloc_{strategy.replace('-', '_')}_ms_p{q}"


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_values(tracer):
    """Layer metrics from the recorded spans, except the trace and alloc
    entries, which the caller measures."""
    totals = tracer.totals()
    units = max(tracer.units, 1)
    by_name = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, _), agg in totals.items():
        for i in range(3):
            by_name[name][i] += agg[i]
    c = tracer.counts
    out = {}
    for n in _SPAN_MS:
        out[f"{n}.ms"] = 1e3 * by_name[n][1] / units
    for n in _SPAN_TOTAL_MS:
        out[f"{n}.total_ms"] = 1e3 * by_name[n][2] / units
    for kind in KINDS:
        for n in _KIND_SPANS:
            out[f"{n}.{kind}.ms"] = 1e3 * totals[(n, kind)][1] / units
        out[f"mlp.forward.{kind}.calls"] = totals[("mlp.forward", kind)][0] \
            / units
    se_s = by_name["se.estimate_se_parameters"][1]
    train_s = by_name["mlp.train"][2]
    out.update({
        "mlp.loss_and_grads.calls": by_name["mlp.loss_and_grads"][0] / units,
        "se.estimate_se_parameters.gflop": c["se.flop"] / 1e9 / units,
        "se.estimate_se_parameters.gflops": _ratio(c["se.flop"] / 1e9, se_s),
        "se.estimate_se_parameters.mb_moved": c["se.bytes"] / 1e6 / units,
        "mlp.train.gflop": c["mlp.flop"] / 1e9 / units,
        "mlp.train.gflops": _ratio(c["mlp.flop"] / 1e9, train_s),
        "dataset.bytes_written": c["dataset.bytes_written"] / units,
        "wmmse.outer_steps_per_solve": _ratio(c["wmmse.outer_steps"],
                                              c["wmmse.solves"]),
        "wmmse.admm_iters_per_subproblem": _ratio(c["wmmse.admm_iters"],
                                                  c["wmmse.subproblems"]),
        "trace.spans_per_unit": len(tracer.spans) / units,
    })
    for key in ("not_converged", "subproblem_exhausted", "clamp_events",
                "sign_flips"):
        out[f"wmmse.{key}"] = c[f"wmmse.{key}"] / units
    return out


def missing_spans(tracer, expected):
    """Expected (name, tag) pairs that recorded no call; tag None = any."""
    totals = tracer.totals()
    seen_names = {name for name, _ in totals}
    missing = []
    for name, tag in expected:
        if tag is None and name not in seen_names:
            missing.append(name)
        elif tag is not None and (name, tag) not in totals:
            missing.append(f"{name}[{tag}]")
    return missing


def top_self_time(tracer, level):
    """(name, self ms per unit) with the largest self time, by span name
    (level 2) or by module (level 1)."""
    by_name = defaultdict(float)
    for (name, _), agg in tracer.totals().items():
        by_name[".".join(name.split(".")[:level])] += agg[1]
    name = max(by_name, key=by_name.get)
    return name, 1e3 * by_name[name] / max(tracer.units, 1)
