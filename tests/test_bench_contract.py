"""The benchmark's tracing contract with the package.

`perfbench/tracing.py` wraps module attributes that cfpower calls through,
and a traced benchmark run exits 3 when an expected span records no call.
These tests catch a rename or an inlined call before a traced run does. They
read `perfbench/` and change nothing there.
"""

import importlib
import pathlib
import sys

import numpy as np
import pytest

from cfpower import allocator
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


def test_learned_inference_records_every_kind_span(tracing, desk_cfg):
    K, L = desk_cfg.K, desk_cfg.L
    beta = 10.0 ** np.random.default_rng(0).uniform(-13.0, -7.0, (K, L))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.begin_unit()
        for kind in MODEL_KINDS:
            models = []
            for unit, members in enumerate(
                    allocator.model_layout(kind, desk_cfg, 0, 2)):
                model = build_model(kind, K, unit_id=unit, member_aps=members,
                                    cluster_size=2, seed=unit)
                model.scaler = ScalerParams(median=np.zeros(model.n_inputs),
                                            iqr=np.ones(model.n_inputs))
                models.append(model)
            allocator.predict_allocation(models, beta, desk_cfg)
    expected = [(name, kind) for kind in MODEL_KINDS for name in KIND_SPANS]
    assert tracing.missing_spans(tracer, expected) == []
