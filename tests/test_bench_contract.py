"""The benchmark's tracing contract with the package.

`perfbench/tracing.py` wraps module attributes that cfpower calls through,
and a traced benchmark run exits 3 when an expected span records no call.
These tests catch a rename or an inlined call before a traced run does, and
a changed signature before the benchmark's units fail on it. They read
`perfbench/` and change nothing there.
"""

import ast
import importlib
import inspect
import pathlib
import sys

import numpy as np
import pytest

from cfpower import allocator, estimation, pipeline, wmmse
from cfpower.mlp import MODEL_KINDS, build_model
from cfpower.scaling import ScalerParams

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
# the spans every learned inference must record, per kind
KIND_SPANS = ("allocator.predict_allocation", "allocator.model_features",
              "allocator.predict_from_features", "scaling.apply_scaler",
              "mlp.forward")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_target_is_a_callable_attribute(tracing):
    for owner, attr, name, _, _ in tracing.targets():
        assert callable(getattr(owner, attr, None)), \
            f"{owner.__name__}.{attr} (span {name}) is gone"


def standins(kind, cfg):
    models = []
    for unit, members in enumerate(allocator.model_layout(kind, cfg, 0, 2)):
        model = build_model(kind, cfg.K, unit_id=unit, member_aps=members,
                            cluster_size=2, seed=unit)
        model.scaler = ScalerParams(median=np.zeros(model.n_inputs),
                                    iqr=np.ones(model.n_inputs))
        models.append(model)
    return models


def traced_inference(tracing, groups, cfg):
    """One predict_allocation per kind inside the tracer."""
    beta = 10.0 ** np.random.default_rng(0).uniform(-13.0, -7.0,
                                                    (cfg.K, cfg.L))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.begin_unit()
        for kind in MODEL_KINDS:
            allocator.predict_allocation(groups[kind], beta, cfg)
    expected = [(name, kind) for kind in MODEL_KINDS for name in KIND_SPANS]
    assert tracing.missing_spans(tracer, expected) == []
    return tracer


def test_learned_inference_records_every_kind_span(tracing, desk_cfg):
    traced_inference(tracing, {
        kind: allocator.stack_models(standins(kind, desk_cfg))
        for kind in MODEL_KINDS}, desk_cfg)


def test_a_loaded_group_runs_one_forward_pass_per_kind(tracing, desk_cfg,
                                                       tmp_path):
    # the benchmark's groups come from load_models; a return to one
    # forward pass per model would show as more mlp.forward calls
    groups = {}
    for kind in MODEL_KINDS:
        for model in standins(kind, desk_cfg):
            allocator.save_model(model, tmp_path / (
                f"{kind}-{model.unit_id:03d}{pipeline.MODEL_SUFFIX}"))
        groups[kind] = pipeline.load_models(tmp_path, kind)
    totals = traced_inference(tracing, groups, desk_cfg).totals()
    for kind in MODEL_KINDS:
        assert totals[("mlp.forward", kind)][0] == 1
        assert totals[("scaling.apply_scaler", kind)][0] == 1


def test_wmmse_records_every_traced_span(tracing, desk_sample, desk_cfg):
    # allocate-large-mr's per-layer WMMSE figures come from these spans and
    # from the counts the tracer reads off each solve_subproblem result
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.begin_unit()
        result = wmmse.wmmse_solve(desk_sample("mr").params,
                                   desk_cfg.p_max_dl)
    names = ("wmmse.wmmse_solve", "wmmse.update_auxiliaries",
             "wmmse.solve_subproblem", "wmmse.utility")
    assert tracing.missing_spans(tracer, [(n, None) for n in names]) == []
    totals = tracer.totals()
    assert totals[("wmmse.solve_subproblem", None)][0] == result.n_outer
    assert tracer.counts["wmmse.admm_iters"] == result.admm_iters > 0


# the spans of build_sample's stages, which generate-large-rzf's per-layer
# figures and the allocate workloads' set-up time come from
FRONT_END_SPANS = ("network.drop_scenario", "network.build_statistics",
                   "pilots.assign_pilots", "estimation.sample_channels",
                   "estimation.mmse_estimate", "precoding.compute_precoders",
                   "se.estimate_se_parameters")


@pytest.mark.parametrize("tile_bytes", [None, 1], ids=["one-tile", "tiled"])
def test_build_sample_records_every_front_end_span(tracing, desk_cfg,
                                                   monkeypatch, tile_bytes):
    if tile_bytes is not None:
        monkeypatch.setattr(estimation, "_TILE_BYTES", tile_bytes)
    n_real = 300
    K, L, N = desk_cfg.K, desk_cfg.L, desk_cfg.N
    aps = pipeline.place_aps(desk_cfg, desk_cfg.seed)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.begin_unit()
        pipeline.build_sample(desk_cfg, aps, desk_cfg.seed,
                              pipeline.TEST_NAMESPACE, 0, "rzf", n_real)
    expected = [(n, None) for n in ("pipeline.build_sample",)
                + FRONT_END_SPANS]
    assert tracing.missing_spans(tracer, expected) == []
    totals = tracer.totals()
    n_tiles = len(estimation.realization_tiles(n_real, K, L, N))
    assert n_tiles == (1 if tile_bytes is None else 5)
    for name in FRONT_END_SPANS:
        calls = totals[(name, None)][0]
        if name.split(".")[0] in ("estimation", "precoding", "se"):
            # once per realization tile, each span a sibling of the others
            assert calls == n_tiles, name
        else:
            assert calls == 1, name
    # the reduction's cost figures add up to the whole batch
    assert tracer.counts["se.flop"] == 8.0 * n_real * K * K * L * (N + L)


def _resolve(expr, scope):
    """The cfpower object a name or attribute chain refers to, or None."""
    if isinstance(expr, ast.Name):
        return scope.get(expr.id)
    if isinstance(expr, ast.Attribute):
        owner = _resolve(expr.value, scope)
        return None if owner is None else getattr(owner, expr.attr, None)
    return None


def cfpower_calls(path):
    """(source text, callee, call node) for every resolvable call into
    cfpower: attributes of imported cfpower modules and names imported from
    them, including attributes of those names such as classmethods."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scope = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "cfpower":
            module = importlib.import_module(node.module)
            for alias in node.names:
                scope[alias.asname or alias.name] = getattr(module,
                                                            alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = _resolve(node.func, scope)
            if callable(fn):
                yield ast.unparse(node.func), fn, node


def test_perfbench_calls_bind_to_current_signatures():
    checked = set()
    broken = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for name, fn, node in cfpower_calls(path):
            if any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(k.arg is None for k in node.keywords):
                continue
            try:
                inspect.signature(fn).bind(
                    *node.args, **{k.arg: k.value for k in node.keywords})
            except TypeError as exc:
                broken.append(f"{path.name}:{node.lineno} {name}: {exc}")
            checked.add(name)
    assert broken == []
    # the resolver must reach the benchmark's main entry points
    assert {"pipeline.cmd_generate", "pipeline.cmd_train",
            "pipeline.build_sample", "wmmse.wmmse_solve",
            "wmmse.SolverConfig", "allocator.predict_allocation",
            "heuristics.heuristic_allocation", "DatasetFile.open",
            "DatasetFile.create", "SampleRecord", "build_statistics",
            "dataset.record_size"} <= checked
