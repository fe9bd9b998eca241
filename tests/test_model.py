"""Whole-model checks: gradients through every layer of SceneModel."""

import numpy as np

from avscene import tensor as T
from avscene.backbone import BackboneConfig
from avscene.model import ModelConfig, SceneModel


def micro_model(seed):
    config = ModelConfig(
        backbone=BackboneConfig(1, [2, 4, 4, 4, 8], [1, 1, 1, 1], "basic"),
        num_classes=3,
        k_nodes=4,
        allow_any_k=True,
        gcn_out_channels=2,
        seed=seed,
    )
    model = SceneModel.build(config)
    rng = np.random.default_rng(seed + 1)
    # The built head is zero, which makes every gradient below it zero.
    model.head_weight.data[...] = rng.standard_normal(model.head_weight.shape)
    model.head_bias.data[...] = rng.standard_normal(model.head_bias.shape)
    # Built shifts are zero, so a conv window that sees only ReLU zeros puts
    # its pre-activation exactly on ReLU's kink, where a central difference
    # averages the two one-sided slopes. Non-zero shifts move it off the kink.
    for name, p in model.registry.items():
        if name.endswith(".shift"):
            p.data[...] = rng.uniform(-0.1, 0.1, p.data.shape)
    return model


class TestWholeModelGradient:
    def test_finite_difference_through_every_layer(self):
        # At eps=1e-5 a central difference carries ~|loss|*2e-16/eps of
        # round-off, so an element whose gradient is ~1e-7 of the largest
        # one can exceed 1e-6 relative on a correct gradient; seed 6 has no
        # such element (worst 3.9e-7).
        seed = 6
        model = micro_model(seed)
        x = T.Tensor(np.random.default_rng(seed + 7).standard_normal((2, 1, 32, 32)))
        labels = [0, 2]

        def loss_fn():
            return T.softmax_cross_entropy(model.forward(x), labels)

        report = T.finite_diff_check(model.registry, loss_fn, epsilon=1e-5)
        prefixes = {name.split(".")[0] for name in report.per_param}
        assert prefixes == {"backbone", "afm", "gcn", "head"}
        assert model.registry.num_scalars() == 2113
        assert report.max_relative_error < 1e-6, (
            report.worst_param(),
            report.max_relative_error,
        )
        # Non-vacuous: every layer group receives a gradient.
        for prefix in ("backbone", "afm", "gcn", "head"):
            grads = [
                np.abs(p.grad).max()
                for name, p in model.registry.items()
                if name.startswith(prefix) and p.grad is not None
            ]
            assert grads and max(grads) > 0.0, prefix
