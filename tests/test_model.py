"""Whole-model checks: gradients, config text, checkpoints and determinism."""

import numpy as np
import pytest

from avscene import tensor as T
from avscene.backbone import BackboneConfig
from avscene.errors import ConfigurationError, DataError
from avscene.model import (
    ModelConfig,
    SceneModel,
    config_from_flat,
    config_to_text,
    load_checkpoint,
    parse_config_text,
    save_checkpoint,
    synth_splits,
    train,
)


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


class TestConfigText:
    @pytest.mark.parametrize(
        "config",
        [ModelConfig.tiny(), ModelConfig.full(8)],
        ids=["tiny", "full"],
    )
    def test_round_trip(self, config):
        assert config_from_flat(parse_config_text(config_to_text(config))) == config

    def test_line_without_equals_names_its_line(self):
        text = "# header\nmodel.num_classes = 4\n\nmodel.k_nodes 8\n"
        with pytest.raises(ConfigurationError, match="line 4"):
            parse_config_text(text)


class TestCheckpoint:
    @staticmethod
    def randomized_model():
        model = SceneModel.build(ModelConfig.tiny(seed=3))
        rng = np.random.default_rng(3)
        # Built heads and shifts are zero, which f32 stores exactly.
        for _, p in model.registry.items():
            p.data[...] = rng.standard_normal(p.data.shape)
        return model

    def test_round_trip_within_f32_rounding(self, tmp_path):
        model = self.randomized_model()
        save_checkpoint(model, tmp_path)
        loaded = load_checkpoint(tmp_path)
        assert loaded.config == model.config
        assert loaded.registry.names() == model.registry.names()
        for name, p in model.registry.items():
            got = loaded.registry[name].data
            assert np.array_equal(got, p.data.astype(np.float32).astype(np.float64)), name
            # Round to nearest f32: relative error at most 2**-24.
            assert np.all(np.abs(got - p.data) <= 2.0**-24 * np.abs(p.data)), name

    def test_missing_tensor_names_it(self, tmp_path):
        save_checkpoint(self.randomized_model(), tmp_path)
        (tmp_path / "head.bias.agt1").unlink()
        with pytest.raises(DataError, match="head.bias"):
            load_checkpoint(tmp_path)

    def test_wrong_shape_names_it(self, tmp_path):
        save_checkpoint(self.randomized_model(), tmp_path)
        T.write_agt1(tmp_path / "head.bias.agt1", np.zeros(5))
        with pytest.raises(DataError, match="head.bias"):
            load_checkpoint(tmp_path)


class TestDeterminism:
    def test_two_runs_give_identical_losses(self):
        config = ModelConfig.tiny(seed=5, epochs=2)
        dataset = synth_splits("audio", 4, 16, 0, seed=5)
        _, first = train(config, dataset)
        _, second = train(config, dataset)
        assert len(first.losses) == 2
        assert np.all(np.isfinite(first.losses))
        assert first.losses == second.losses
