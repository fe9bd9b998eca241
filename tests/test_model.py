"""Whole-model checks: gradients, config text, checkpoints and determinism."""

import dataclasses
import re

import numpy as np
import pytest

from avscene import model as M
from avscene import tensor as T
from avscene.backbone import BackboneConfig
from avscene.errors import ConfigurationError, DataError, NumericError
from avscene.fusion import AttentionFusion
from avscene.gcn import gcn_layer, graph_readout, propagation_matrix
from avscene.graphs import build_scene_graphs
from avscene.model import (
    RETIRED_KEYS,
    SGD,
    ModelConfig,
    SceneModel,
    config_from_flat,
    config_to_flat,
    config_to_text,
    evaluate,
    load_checkpoint,
    lr_schedule,
    parse_config_text,
    save_checkpoint,
    synth_dataset,
    synth_splits,
    train,
)


def micro_model(seed):
    config = ModelConfig(
        backbone=BackboneConfig(1, [2, 4, 4, 4, 8], [1, 1, 1, 1], "basic"),
        num_classes=3,
        k_nodes=4,
        gcn_out_channels=2,
        seed=seed,
    )
    # float64: the 1e-6 bound below is far under float32 round-off.
    model = SceneModel.build(config, registry=T.ParamRegistry(np.float64))
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


def per_sample_features(model, x):
    """``SceneModel.features`` with one ``gcn_layer`` per sample and graph."""
    pyramid = model.backbone.forward(T.cast(x, model.registry.dtype))
    f_ffr = model.fusion.forward(pyramid.f_m4, pyramid.f_m5)
    rows, graphs = [], []
    for i in range(x.data.shape[0]):
        pair = build_scene_graphs(T.slice_batch(f_ffr, i), model.config.k_nodes)
        graphs.append(pair)
        outputs = [
            gcn_layer(graph.node_features, propagation_matrix(graph.adjacency), model.thetas[b])
            for b, graph in zip(("sag", "cag"), pair)
        ]
        rows.append(graph_readout(*outputs))
    return T.concat([T.concat(rows, axis=0), pyramid.embedding], axis=1), graphs


class TestBatchedGraphStage:
    # theta_rel: measured at most 2.3e-7 (float32) and 4e-16 (float64) on seeds 0-4
    @pytest.mark.parametrize("dtype, theta_rel", [(np.float32, 1e-6), (np.float64, 1e-14)])
    def test_matches_a_per_sample_loop(self, dtype, theta_rel):
        model = SceneModel.build(ModelConfig.tiny(seed=5), registry=T.ParamRegistry(dtype))
        rng = np.random.default_rng(5)
        model.head_weight.data[...] = rng.standard_normal(model.head_weight.shape)
        examples = synth_dataset("audio", 4, 8, seed=6)
        x = T.Tensor(np.stack([e.x for e in examples]))
        runs = []
        for features in (model.features, lambda x: per_sample_features(model, x)):
            model.registry.zero_grad()
            feats, graphs = features(x)
            logits = T.linear(feats, model.head_weight, model.head_bias)
            T.softmax_cross_entropy(logits, [e.label for e in examples]).backward()
            indices = [g.flat_indices for pair in graphs for g in pair]
            grads = {name: p.grad.copy() for name, p in model.registry.items()}
            runs.append((feats.data, logits.data, indices, grads))
        (feats, logits, indices, grads), (feats1, logits1, indices1, grads1) = runs
        assert feats.dtype == dtype
        assert np.array_equal(feats, feats1) and np.array_equal(logits, logits1)
        assert len(indices) == 16
        assert all(np.array_equal(a, b) for a, b in zip(indices, indices1))
        for name, g in grads.items():
            if name.startswith("gcn."):
                # One GEMM over N*K rows against a sum of per-sample products.
                err = np.max(np.abs(g - grads1[name])) / np.max(np.abs(grads1[name]))
                assert err <= theta_rel, (name, err)
            else:
                assert np.array_equal(g, grads1[name]), name


def tape_nodes(root):
    """Every tensor reachable from root through ``_parents``."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


class TestFloat32Policy:
    @pytest.mark.parametrize("disable_graph", [False, True], ids=["graphs", "no_graph"])
    def test_whole_tape_and_update_stay_float32(self, disable_graph):
        model = SceneModel.build(ModelConfig.tiny(seed=2, disable_graph=disable_graph))
        assert model.registry.dtype == np.float32
        unused = [n for n in model.registry.names() if n.startswith(("afm.", "gcn."))]
        assert bool(unused) == (not disable_graph), unused
        model.head_weight.data[...] = np.random.default_rng(2).standard_normal(
            model.head_weight.shape
        )
        optimizer = SGD(model.registry)
        # A float64 input, as train and evaluate pass it: cast at the boundary.
        x = T.Tensor(np.random.default_rng(3).standard_normal((2, 1, 64, 32)))
        logits = model.forward(x)
        nodes = tape_nodes(logits)
        assert len(nodes) > 40
        promoted = [n.shape for n in nodes if n.data.dtype != np.float32]
        assert not promoted, promoted
        loss = T.softmax_cross_entropy(logits, [0, 3])
        assert loss.data.dtype == np.float64
        loss.backward()
        optimizer.step(0.01)
        for name, p in model.registry.items():
            assert p.data.dtype == np.float32, name
            assert optimizer.velocity[name].dtype == np.float32, name
            assert p.grad is not None and p.grad.dtype == np.float32, name

    def test_resize_matrix_is_cached_per_dtype(self):
        r32 = T._resize_matrix(5, 9, np.dtype(np.float32))
        r64 = T._resize_matrix(5, 9, np.dtype(np.float64))
        assert (r32.dtype, r64.dtype) == (np.float32, np.float64)
        assert r32 is T._resize_matrix(5, 9, np.dtype(np.float32)) and r32 is not r64
        assert not r32.flags.writeable and not r64.flags.writeable
        assert np.array_equal(r32, r64.astype(np.float32))


class TestFloat32Learning:
    # Largest per-epoch loss gap between float32 and float64 training over 12
    # epochs at lr0=0.003, measured on seeds 0-3: 0.0020, 0.0141, 0.0039,
    # 0.0035. The bound is about twice the largest.
    MAX_LOSS_GAP = 0.03

    def test_float32_loss_curve_tracks_float64(self, monkeypatch):
        build = SceneModel.build.__func__

        def float64_build(cls, config, registry=None):
            registry = registry if registry is not None else T.ParamRegistry(np.float64)
            return build(cls, config, registry)

        for seed in (0, 1):
            config = ModelConfig.tiny(seed=seed, epochs=12, lr_decay_every=12, lr0=0.003)
            dataset = synth_splits("audio", 4, 96, 0, seed)
            model32, f32 = train(config, dataset)
            with monkeypatch.context() as patch:
                patch.setattr(SceneModel, "build", classmethod(float64_build))
                model64, f64 = train(config, dataset)
            assert model32.registry.dtype == np.float32
            assert model64.registry.dtype == np.float64
            assert f32.losses[-1] < f32.losses[0]  # it learned something
            gap = max(abs(a - b) for a, b in zip(f32.losses, f64.losses))
            assert gap < self.MAX_LOSS_GAP, (seed, gap)


# config_to_text(ModelConfig.tiny()) as the hand-written text functions wrote
# it, before the keys were derived from the dataclass fields.
TINY_TEXT = """\
model.modality = audio
model.num_classes = 4
model.k_nodes = 8
model.gcn_out_channels = 8
model.seed = 0
backbone.in_channels = 1
backbone.stage_channels = 4,8,8,16,32
backbone.blocks_per_stage = 1,1,1,1
backbone.block_type = basic
train.lr0 = 0.01
train.momentum = 0.9
train.lr_decay_factor = 10.0
train.lr_decay_every = 20
train.epochs = 60
train.batch_size = 8
"""

# The keys of the fields without a default.
REQUIRED = {
    "model.num_classes": "4",
    "backbone.in_channels": "1",
    "backbone.stage_channels": "4,8,8,16,32",
    "backbone.blocks_per_stage": "1,1,1,1",
}

OFF_DEFAULT = ModelConfig(
    backbone=BackboneConfig(3, [4, 8, 12, 20, 36], [2, 1, 3, 1], "bottleneck"),
    num_classes=5,
    k_nodes=12,
    gcn_out_channels=6,
    lr0=0.125,
    momentum=0.75,
    lr_decay_factor=3.5,
    lr_decay_every=7,
    epochs=9,
    batch_size=5,
    seed=11,
    disable_graph=True,
)


class TestConfigText:
    @pytest.mark.parametrize(
        "config",
        [ModelConfig.tiny(), ModelConfig.full(8), OFF_DEFAULT],
        ids=["tiny", "full", "off_default"],
    )
    def test_round_trip(self, config):
        assert config_from_flat(parse_config_text(config_to_text(config))) == config

    def test_off_default_case_sets_every_field_off_its_default(self):
        for obj in (OFF_DEFAULT, OFF_DEFAULT.backbone):
            for f in dataclasses.fields(obj):
                if f.default is not dataclasses.MISSING:
                    assert getattr(obj, f.name) != f.default, f.name

    def test_earlier_text_keeps_its_keys_and_loads(self):
        want = parse_config_text(TINY_TEXT)
        del want["model.modality"]  # a retired key
        want["model.disable_graph"] = "False"
        assert config_to_flat(ModelConfig.tiny()) == want
        assert config_from_flat(parse_config_text(TINY_TEXT)) == ModelConfig.tiny()

    def test_missing_keys_take_the_dataclass_defaults(self):
        backbone = BackboneConfig(1, [4, 8, 8, 16, 32], [1, 1, 1, 1])
        assert config_from_flat(dict(REQUIRED)) == ModelConfig(backbone, num_classes=4)

    @pytest.mark.parametrize("key", sorted(REQUIRED))
    def test_missing_key_without_default_is_named(self, key):
        flat = {k: v for k, v in REQUIRED.items() if k != key}
        want = f"missing config key {re.escape(key)}$"
        with pytest.raises(ConfigurationError, match=want):
            config_from_flat(flat)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("model.k_nodes", "8.0"),
            ("train.lr0", "fast"),
            ("backbone.stage_channels", "4,8,,16,32"),
            ("model.disable_graph", "yes"),
            ("model.disable_graph", "1"),
            ("model.disable_graph", "true"),
            ("model.disable_graph", ""),
        ],
        ids=["int", "float", "list", "bool_yes", "bool_1", "bool_lower", "bool_empty"],
    )
    def test_unparsable_value_names_its_key(self, key, value):
        flat = config_to_flat(ModelConfig.tiny())
        flat[key] = value
        want = re.escape(f"config key {key}: cannot parse {value!r}")
        with pytest.raises(ConfigurationError, match=want):
            config_from_flat(flat)

    def test_misspelt_key_is_named(self):
        flat = config_to_flat(ModelConfig.tiny(k_nodes=12))
        flat["model.k_node"] = flat.pop("model.k_nodes")
        with pytest.raises(ConfigurationError, match="unknown config key model.k_node$"):
            config_from_flat(flat)

    def test_line_without_equals_names_its_line(self):
        text = "# header\nmodel.num_classes = 4\n\nmodel.k_nodes 8\n"
        with pytest.raises(ConfigurationError, match="line 4"):
            parse_config_text(text)

    def test_repeated_key_names_both_lines(self):
        text = "model.k_nodes = 8\n# note\nmodel.num_classes = 4\nmodel.k_nodes = 12\n"
        want = "line 4: model.k_nodes repeats line 1"
        with pytest.raises(ConfigurationError, match=want):
            parse_config_text(text)


# The registered names of SceneModel.build(ModelConfig.tiny()), in order. They
# are the checkpoint's tensor file names, so a change to one breaks every
# saved checkpoint.
TINY_NAMES = [
    "backbone.conv1.weight",
    "backbone.conv1.scale",
    "backbone.conv1.shift",
    "backbone.stage2.block1.conv_a.weight",
    "backbone.stage2.block1.conv_a.scale",
    "backbone.stage2.block1.conv_a.shift",
    "backbone.stage2.block1.conv_b.weight",
    "backbone.stage2.block1.conv_b.scale",
    "backbone.stage2.block1.conv_b.shift",
    "backbone.stage2.block1.proj.weight",
    "backbone.stage2.block1.proj.scale",
    "backbone.stage2.block1.proj.shift",
    "backbone.stage3.block1.conv_a.weight",
    "backbone.stage3.block1.conv_a.scale",
    "backbone.stage3.block1.conv_a.shift",
    "backbone.stage3.block1.conv_b.weight",
    "backbone.stage3.block1.conv_b.scale",
    "backbone.stage3.block1.conv_b.shift",
    "backbone.stage3.block1.proj.weight",
    "backbone.stage3.block1.proj.scale",
    "backbone.stage3.block1.proj.shift",
    "backbone.stage4.block1.conv_a.weight",
    "backbone.stage4.block1.conv_a.scale",
    "backbone.stage4.block1.conv_a.shift",
    "backbone.stage4.block1.conv_b.weight",
    "backbone.stage4.block1.conv_b.scale",
    "backbone.stage4.block1.conv_b.shift",
    "backbone.stage4.block1.proj.weight",
    "backbone.stage4.block1.proj.scale",
    "backbone.stage4.block1.proj.shift",
    "backbone.stage5.block1.conv_a.weight",
    "backbone.stage5.block1.conv_a.scale",
    "backbone.stage5.block1.conv_a.shift",
    "backbone.stage5.block1.conv_b.weight",
    "backbone.stage5.block1.conv_b.scale",
    "backbone.stage5.block1.conv_b.shift",
    "backbone.stage5.block1.proj.weight",
    "backbone.stage5.block1.proj.scale",
    "backbone.stage5.block1.proj.shift",
    "afm.proj.weight",
    "afm.proj.bias",
    "afm.gate.weight",
    "afm.gate.bias",
    "gcn.sag.theta",
    "gcn.cag.theta",
    "head.weight",
    "head.bias",
]


class TestModelConfig:
    @pytest.mark.parametrize("k", [4, 28, 36])
    def test_any_positive_multiple_of_4_nodes(self, k):
        assert ModelConfig.tiny(k_nodes=k).k_nodes == k

    @pytest.mark.parametrize("k", [0, 6, -4])
    def test_other_node_counts_name_the_value(self, k):
        with pytest.raises(ConfigurationError, match=f"got {k}"):
            ModelConfig.tiny(k_nodes=k)

    def test_one_theta_per_graph(self):
        config = ModelConfig.tiny()
        model = SceneModel.build(config)
        names = [name for name in model.registry.names() if name.startswith("gcn.")]
        assert names == ["gcn.sag.theta", "gcn.cag.theta"]
        shape = (config.gcn_out_channels, config.backbone.stage_channels[3])
        for branch in ("sag", "cag"):
            assert model.thetas[branch] is model.registry[f"gcn.{branch}.theta"]
            assert model.thetas[branch].shape == shape

    def test_stage_4_and_5_widths_need_not_divide_by_4(self):
        config = ModelConfig(
            backbone=BackboneConfig(1, [4, 8, 8, 6, 10], [1, 1, 1, 1], "basic"),
            num_classes=3,
            k_nodes=8,
            gcn_out_channels=4,
            seed=4,
        )
        model = SceneModel.build(config)
        rng = np.random.default_rng(4)
        # The built head is zero, which makes every gradient below it zero.
        model.head_weight.data[...] = rng.standard_normal(model.head_weight.shape)
        before = {name: p.data.copy() for name, p in model.registry.items()}
        x = T.Tensor(rng.standard_normal((2, 1, 64, 32)))
        T.softmax_cross_entropy(model.forward(x), [0, 2]).backward()
        SGD(model.registry).step(0.01)
        for name, p in model.registry.items():
            assert p.grad is not None and np.any(p.grad != 0.0), name
            assert not np.array_equal(p.data, before[name]), name

    def test_manifest_with_a_retired_key_still_loads(self):
        # Manifests written before gcn_layers, allow_any_k and modality were removed.
        assert RETIRED_KEYS == ("model.gcn_layers", "model.allow_any_k", "model.modality")
        config = ModelConfig.tiny(k_nodes=12)
        for key, value in zip(RETIRED_KEYS, ("1", "False", "audio")):
            flat = config_to_flat(config)
            flat[key] = value
            assert config_from_flat(flat) == config, key

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr0", float("nan")),
            ("lr0", float("inf")),
            ("lr0", 0.0),
            ("lr_decay_factor", float("inf")),
            ("lr_decay_factor", float("nan")),
            ("lr_decay_factor", -2.0),
            ("momentum", float("nan")),
            ("momentum", -5.0),
            ("momentum", 1.5),
            ("momentum", 1.0),
            ("seed", -1),
        ],
    )
    def test_bad_training_value_names_the_field_and_value(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} .*got {value}$"):
            ModelConfig.tiny(**{field: value})

    def test_unknown_modality_is_rejected(self):
        with pytest.raises(ConfigurationError, match="got 'video'$"):
            ModelConfig.tiny(modality="video")
        with pytest.raises(ConfigurationError, match="got 'video'$"):
            ModelConfig.full(8, modality="video")

    def test_registered_names_are_pinned(self):
        names = SceneModel.build(ModelConfig.tiny()).registry.names()
        assert len(TINY_NAMES) == 47
        assert names == TINY_NAMES


class TestSGD:
    @staticmethod
    def registry():
        reg = T.ParamRegistry()
        reg.register("a", np.array([1.0, -2.0]))
        reg.register("b", np.array([[0.5], [3.0]]))
        return reg

    def test_momentum_update_over_two_steps(self):
        reg = self.registry()
        optimizer = SGD(reg, momentum=0.9)
        rng = np.random.default_rng(0)
        want = {name: p.data.copy() for name, p in reg.items()}
        velocity = {name: np.zeros_like(p.data) for name, p in reg.items()}
        for lr in (0.1, 0.05):
            for name, p in reg.items():
                p.grad = rng.standard_normal(p.data.shape)
                velocity[name] = 0.9 * velocity[name] + p.grad
                want[name] = want[name] - lr * velocity[name]
            optimizer.step(lr)
        for name, p in reg.items():
            assert np.array_equal(optimizer.velocity[name], velocity[name]), name
            assert np.array_equal(p.data, want[name]), name

    def test_missing_gradient_counts_as_zero(self):
        reg = self.registry()
        optimizer = SGD(reg)
        reg["a"].grad = np.ones(2)
        optimizer.step(0.5)
        assert np.array_equal(reg["a"].data, [0.5, -2.5])
        assert np.array_equal(reg["b"].data, [[0.5], [3.0]])

    def test_non_finite_gradient_changes_nothing(self):
        reg = self.registry()
        optimizer = SGD(reg)
        for p in reg.tensors():
            p.grad = np.ones_like(p.data)
        optimizer.step(0.1)  # non-zero velocities
        before = {
            name: (p.data.copy(), optimizer.velocity[name].copy())
            for name, p in reg.items()
        }
        reg["a"].grad = np.array([1.0, 1.0])
        reg["b"].grad = np.array([[np.nan], [1.0]])
        with pytest.raises(NumericError, match="gradient for b;"):
            optimizer.step(0.1)
        for name, p in reg.items():
            assert np.array_equal(p.data, before[name][0]), name
            assert np.array_equal(optimizer.velocity[name], before[name][1]), name

    @pytest.mark.parametrize("lr", [0.0, -0.01])
    def test_non_positive_lr_rejected(self, lr):
        with pytest.raises(ConfigurationError, match="lr"):
            SGD(self.registry()).step(lr)


class TestLrSchedule:
    def test_step_boundaries(self):
        lrs = [lr_schedule(epoch, 0.5, 10.0, 3) for epoch in range(7)]
        assert lrs == [0.5, 0.5, 0.5, 0.05, 0.05, 0.05, 0.005]

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigurationError, match="-1"):
            lr_schedule(-1, 0.01, 10.0, 20)


def count_calls(monkeypatch, owner, name):
    """Replace owner.name with a wrapper; returns the list of its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestEvaluate:
    @staticmethod
    def seeded_model(examples, dtype=np.float64):
        registry = T.ParamRegistry(dtype)
        model = SceneModel.build(ModelConfig.tiny(seed=1), registry=registry)
        w = np.random.default_rng(1).standard_normal(model.head_weight.shape)
        model.head_weight.data[...] = w
        # Centre the logits on these examples, so the predictions vary.
        with T.no_grad():
            feats, _ = model.features(T.Tensor(np.stack([e.x for e in examples])))
        model.head_bias.data[...] = -w @ feats.data.mean(axis=0)
        return model

    def test_confusion_matches_a_hand_count(self):
        examples = synth_dataset("audio", 4, 10, seed=2)
        model = self.seeded_model(examples)
        want = np.zeros((4, 4), dtype=np.int64)
        with T.no_grad():
            for e in examples:
                pred = int(np.argmax(model.forward(T.Tensor(e.x[None])).data))
                want[e.label, pred] += 1
        result = evaluate(model, examples, batch_size=3)
        assert (want.sum(axis=0) > 0).sum() >= 2  # not one class for all
        assert np.array_equal(result.confusion, want)
        assert result.accuracy == np.trace(want) / 10

    def test_batch_size_changes_no_logit_or_prediction(self):
        # float32, where a head whose rounding depends on the batch would show.
        examples = synth_dataset("audio", 4, 8, seed=2)
        model = self.seeded_model(examples, np.float32)
        x = np.stack([e.x for e in examples])
        logits = {}
        with T.no_grad():
            for size in (1, 3, 8):
                chunks = [x[s : s + size] for s in range(0, 8, size)]
                rows = [model.forward(T.Tensor(c)).data for c in chunks]
                logits[size] = np.concatenate(rows)
        assert np.array_equal(logits[3], logits[1])
        assert np.array_equal(logits[8], logits[1])
        confusions = [evaluate(model, examples, size).confusion for size in (1, 3, 8)]
        assert (confusions[0].sum(axis=0) > 0).sum() >= 2  # not one class for all
        assert np.array_equal(confusions[1], confusions[0])
        assert np.array_equal(confusions[2], confusions[0])

    @pytest.mark.parametrize("batch_size", [-1, 0])
    def test_non_positive_batch_size_names_the_value(self, batch_size):
        model = self.seeded_model(synth_dataset("audio", 4, 2, seed=2))
        examples = synth_dataset("audio", 4, 4, seed=3)
        with pytest.raises(ConfigurationError, match=f"batch_size .*got {batch_size}$"):
            evaluate(model, examples, batch_size=batch_size)

    def test_empty_set_rejected(self):
        with pytest.raises(DataError, match="empty"):
            evaluate(self.seeded_model(synth_dataset("audio", 4, 2, seed=2)), [])

    def test_bad_label_raises_before_any_forward(self, monkeypatch):
        examples = synth_dataset("audio", 4, 8, seed=2)
        model = self.seeded_model(examples)
        examples[5].label = 4
        forwards = count_calls(monkeypatch, SceneModel, "forward")
        with pytest.raises(DataError, match="evaluation example 5: label 4"):
            evaluate(model, examples, batch_size=2)
        assert forwards == []


class TestDisableGraph:
    def test_features_are_the_embedding_and_fusion_is_skipped(self, monkeypatch):
        config = ModelConfig.tiny(seed=2)
        model = SceneModel.build(dataclasses.replace(config, disable_graph=True))
        x = T.Tensor(np.random.default_rng(3).standard_normal((3, 1, 64, 32)))
        fusions = count_calls(monkeypatch, AttentionFusion, "forward")
        feats, graphs = model.features(x)
        assert fusions == [] and graphs == []
        with T.no_grad():
            embedding = model.backbone.forward(T.cast(x, np.float32)).embedding.data
        assert np.array_equal(feats.data, embedding)
        c5 = config.backbone.stage_channels[4]
        assert model.head_weight.shape == (config.num_classes, c5) == (4, 32)
        SceneModel.build(config).features(x)
        assert len(fusions) == 1

    def test_training_builds_no_graph(self, monkeypatch):
        config = ModelConfig.tiny(seed=4, epochs=2, disable_graph=True)
        dataset = synth_splits("audio", 4, 16, 8, seed=4)
        fusions = count_calls(monkeypatch, AttentionFusion, "forward")
        graph_builds = count_calls(monkeypatch, M, "build_scene_graphs")
        model, report = train(config, dataset)
        assert fusions == graph_builds == []
        assert len(report.losses) == 2 and np.all(np.isfinite(report.losses))
        assert not any(n.startswith(("afm.", "gcn.")) for n in model.registry.names())

    def test_full_width_sizes(self):
        # Registration only: no forward.
        sizes = [
            SceneModel.build(ModelConfig.full(10, disable_graph=flag)).registry.num_scalars()
            for flag in (False, True)
        ]
        assert sizes == [28_351_562, 23_528_522]


class TestTrainLabels:
    @pytest.mark.parametrize("split, index", [("train", 2), ("test", 3)])
    def test_bad_label_raises_before_any_step(self, monkeypatch, split, index):
        dataset = synth_splits("audio", 4, 16, 8, seed=0)
        getattr(dataset, split)[index].label = -1
        builds = count_calls(monkeypatch, SceneModel, "build")
        forwards = count_calls(monkeypatch, SceneModel, "forward")
        steps = count_calls(monkeypatch, SGD, "step")
        with pytest.raises(DataError, match=f"{split} example {index}: label -1"):
            train(ModelConfig.tiny(epochs=1), dataset)
        assert builds == forwards == steps == []


class TestTrainDivergence:
    def test_divergence_is_a_numeric_error_under_warnings_as_errors(self):
        # Warnings are errors here (pyproject's filterwarnings). At lr0=1.0
        # this run overflows in conv2d during epoch 2; the loss check must
        # report that, not numpy's RuntimeWarning from the overflowing op.
        config = ModelConfig.tiny(modality="visual", epochs=3, lr0=1.0)
        with pytest.raises(NumericError, match="loss diverged at epoch 2"):
            train(config, synth_splits("visual", 4, 16, 8, seed=1))


class TestTrainEvaluations:
    @pytest.mark.parametrize("n_test", [8, 0], ids=["test_split", "no_test_split"])
    def test_one_evaluation_per_epoch(self, monkeypatch, n_test):
        dataset = synth_splits("audio", 4, 16, n_test, seed=6)
        evaluations = count_calls(monkeypatch, M, "evaluate")
        model, report = train(ModelConfig.tiny(seed=6, epochs=3), dataset)
        assert len(evaluations) == (3 if n_test else 1)
        fresh = evaluate(model, dataset.test or dataset.train, batch_size=8)
        assert np.array_equal(report.confusion, fresh.confusion)
        if n_test:
            assert report.final_test_accuracy == fresh.accuracy


class TestCheckpoint:
    @staticmethod
    def randomized_model(config=ModelConfig.tiny(seed=3), registry=None):
        model = SceneModel.build(config, registry=registry)
        rng = np.random.default_rng(3)
        # Built heads and shifts are zero, which f32 stores exactly.
        for _, p in model.registry.items():
            p.data[...] = rng.standard_normal(p.data.shape)
        return model

    def test_float32_round_trip_is_bit_exact(self, tmp_path):
        model = self.randomized_model()
        save_checkpoint(model, tmp_path)
        loaded = load_checkpoint(tmp_path)
        assert loaded.registry.names() == model.registry.names()
        for name, p in model.registry.items():
            got = loaded.registry[name].data
            assert got.dtype == p.data.dtype == np.float32, name
            assert np.array_equal(got.view(np.uint32), p.data.view(np.uint32)), name

    def test_round_trip_within_f32_rounding(self, tmp_path):
        model = self.randomized_model(registry=T.ParamRegistry(np.float64))
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

    @pytest.mark.parametrize(
        "line",
        [
            b"model.k_nodes = 8.0\n",
            b"model.k_nodes = 8\nmodel.k_nodes = 8\n",
            b"model.k_nodes = 6\n",
            b"model.k_nodes = \xff\n",
            b"model.k_node = 8\n",
        ],
        ids=["unparsable", "repeated", "invalid", "not_utf8", "misspelt"],
    )
    def test_broken_manifest_names_the_file(self, tmp_path, line):
        save_checkpoint(self.randomized_model(), tmp_path)
        manifest = tmp_path / "config.txt"
        text = manifest.read_bytes()
        assert b"model.k_nodes = 8\n" in text
        manifest.write_bytes(text.replace(b"model.k_nodes = 8\n", line))
        with pytest.raises(ConfigurationError, match=re.escape(f"{manifest}: ")):
            load_checkpoint(tmp_path)

    def test_non_finite_lr0_names_the_file(self, tmp_path):
        save_checkpoint(self.randomized_model(), tmp_path)
        manifest = tmp_path / "config.txt"
        text = manifest.read_text()
        assert "train.lr0 = 0.01\n" in text
        manifest.write_text(text.replace("train.lr0 = 0.01\n", "train.lr0 = nan\n"))
        want = re.escape(f"{manifest}: lr0 must be finite and positive, got nan")
        with pytest.raises(ConfigurationError, match=want):
            load_checkpoint(tmp_path)

    def test_negative_seed_names_the_file(self, tmp_path):
        save_checkpoint(self.randomized_model(), tmp_path)
        manifest = tmp_path / "config.txt"
        text = manifest.read_text()
        assert "model.seed = 3\n" in text
        manifest.write_text(text.replace("model.seed = 3\n", "model.seed = -1\n"))
        want = re.escape(f"{manifest}: seed must be non-negative, got -1")
        with pytest.raises(ConfigurationError, match=want):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "inf"])
    def test_non_finite_tensor_names_the_file_and_index(self, tmp_path, bad):
        save_checkpoint(self.randomized_model(), tmp_path)
        path = tmp_path / "backbone.conv1.weight.agt1"
        value = T.read_agt1(path)
        value.reshape(-1)[[5, 9]] = bad
        T.write_agt1(path, value)
        want = re.escape(f"{path}: non-finite value at flat index 5")
        with pytest.raises(DataError, match=want):
            load_checkpoint(tmp_path)

    def test_ablated_model_round_trips(self, tmp_path, monkeypatch):
        config = ModelConfig.tiny(seed=3, disable_graph=True)
        model = self.randomized_model(config)
        x = T.Tensor(np.random.default_rng(5).standard_normal((2, 1, 64, 32)))
        save_checkpoint(model, tmp_path)
        assert "model.disable_graph = True\n" in (tmp_path / "config.txt").read_text()
        fusions = count_calls(monkeypatch, AttentionFusion, "forward")
        loaded = load_checkpoint(tmp_path)
        assert loaded.config == config and loaded.config.disable_graph
        assert loaded.registry.names() == model.registry.names()
        with T.no_grad():
            want, got = model.forward(x).data, loaded.forward(x).data
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert fusions == []

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
