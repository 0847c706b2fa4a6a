"""Model assembly: parameter keys and the optional layer knobs."""

import numpy as np
import pytest

from stacked_stgcn.gradcheck import check_model_gradients
from stacked_stgcn.model import ModelConfig, StgcnModel
from stacked_stgcn.synth import SynthConfig, synth_generate
from stacked_stgcn.tensor import DTYPE


def tiny_config(**knobs):
    return ModelConfig(
        cluster_feature_lens=(3, 4), num_classes=3, d_model=4, levels=1, span=2, **knobs
    )


def test_per_cluster_first_layer_keys():
    keys = set(StgcnModel(tiny_config(), seed=0).params)
    assert keys == {
        "block0/enc0/ws0", "block0/enc0/ws1", "block0/enc0/wt", "block0/enc0/conv",
        "block0/bottleneck/ws", "block0/bottleneck/wt", "block0/dec0/deconv",
        "head/w", "head/b",
    }


@pytest.mark.parametrize(
    "knob, added",
    [
        ("gcn_bias", {"block0/enc0/bias", "block0/bottleneck/bias"}),
        ("decoder_stgcn", {"block0/dec0/ws", "block0/dec0/wt"}),
    ],
)
def test_knob_parameters_and_gradients(knob, added):
    base = set(StgcnModel(tiny_config(), seed=0).params)
    model = StgcnModel(tiny_config(**{knob: True}), seed=0)
    assert set(model.params) - base == added
    # A bias shifts every row of its channel, so the finite-difference step
    # crosses the ReLU kink of any row within the step of zero: at zero biases
    # one bottleneck pre-activation here sits at 2.4e-5. Check at nonzero biases.
    rng = np.random.default_rng(0)
    for key in sorted(added):
        if key.endswith("/bias"):
            model.params[key] = rng.uniform(-0.1, 0.1, model.params[key].shape).astype(DTYPE)
    synth = SynthConfig(num_classes=3, cluster_feature_lens=(3, 4), t_range=(8, 8))
    seq, _ = synth_generate(synth, 0)
    reports = check_model_gradients(model, seq, "single", seed=0)
    assert {r.name for r in reports} == set(model.params)
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]
