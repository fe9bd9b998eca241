"""Whole-model checks: gradients, the config manifest, checkpoints and determinism."""

import dataclasses
import hashlib
import io
import json
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from avscene import backbone as B
from avscene import fusion as F
from avscene import gcn as G
from avscene import model as M
from avscene import tensor as T
from avscene.backbone import Backbone, BackboneConfig
from avscene.errors import ConfigurationError, DataError, NumericError
from avscene.fusion import AttentionFusion
from avscene.gcn import gcn_layer, graph_readout
from avscene.graphs import build_scene_graphs, propagation_matrix, select_nodes
from avscene.model import (
    SGD,
    ModelConfig,
    SceneModel,
    config_from_text,
    config_to_text,
    evaluate,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    synth_dataset,
    synth_splits,
    train,
)


def micro_model(seed):
    return randomized_model(
        ModelConfig(
            backbone=BackboneConfig(1, [2, 4, 4, 4, 8], [1, 1, 1, 1], "basic"),
            num_classes=3,
            k_nodes=4,
            gcn_out_channels=2,
            seed=seed,
        )
    )


def tiny_model(seed):
    # Unit-normal head weights over tiny's 160 features put logits at up to
    # ±40 (seeds 0-3), where the softmax saturates: an item whose label is
    # near-certain passes back no gradient, and the check sees one item of
    # two. Scaled by 1/sqrt(160), they stay near unit size.
    return randomized_model(ModelConfig.tiny(seed=seed), head_scale=160**-0.5)


def randomized_model(config, head_scale=1.0):
    """The model of ``config`` in float64, with a random head and random shifts."""
    # float64: the 1e-6 bounds below are far under float32 round-off.
    model = SceneModel(config, T.ParamRegistry(np.float64))
    rng = np.random.default_rng(config.seed + 1)
    # The built head is zero, which makes every gradient below it zero.
    model.head_weight.data[...] = head_scale * rng.standard_normal(model.head_weight.shape)
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
        assert model.registry.num_scalars() == 2051
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


def directional_errors(model, seed, shape=(2, 1, 32, 32), epsilon=1e-5):
    """{parameter name: error} of one directional derivative per parameter tensor.

    For each tensor, v is a random unit direction over all of it, and the
    error is |(L(w + εv) - L(w - εv)) / 2ε - g·v| / ‖g‖ for its reverse-mode
    gradient g, or the slope itself where g is 0 (a GCN theta behind a ReLU
    that is off at every node): two no-grad forwards per tensor, whatever
    its size. L is the loss of a random batch of ``shape``, by default
    ``test_finite_difference_through_every_layer``'s.
    """
    x = T.Tensor(np.random.default_rng(seed + 7).standard_normal(shape))

    def loss_fn():
        return T.softmax_cross_entropy(model.forward(x), [0, 2])

    model.registry.zero_grad()
    loss_fn().backward()
    rng = np.random.default_rng(seed + 11)
    errors = {}
    with T.no_grad():
        for name, p in model.registry.items():
            v = rng.standard_normal(p.data.shape)
            v /= np.linalg.norm(v)
            base = p.data.copy()
            p.data[...] = base + epsilon * v
            up = loss_fn().item()
            p.data[...] = base - epsilon * v
            down = loss_fn().item()
            p.data[...] = base
            slope = (up - down) / (2.0 * epsilon)
            norm = np.linalg.norm(p.grad)
            errors[name] = abs(slope - np.sum(p.grad * v)) / norm if norm else abs(slope)
    return errors


def in_backward(monkeypatch, name, mutate):
    """Replace ``tensor.<name>`` by ``mutate`` of its result, inside ``backward()`` only."""
    original, backward = getattr(T, name), T.Tensor.backward
    active = [False]

    def flagged(self):
        active[0] = True
        try:
            backward(self)
        finally:
            active[0] = False

    def patched(*args):
        out = original(*args)
        return mutate(out) if active[0] else out

    monkeypatch.setattr(T.Tensor, "backward", flagged)
    monkeypatch.setattr(T, name, patched)


def scaled_backward(monkeypatch, modules, name, factor):
    """Make op ``name``, as ``modules`` call it, hand its input ``factor(x)`` times its gradient."""
    original = getattr(T, name)

    def patched(x, *args):
        out = original(x, *args)
        if out._backward is not None:
            backward, scale = out._backward, factor(x)
            out._backward = lambda g: backward(g * scale)
        return out

    for module in modules:
        monkeypatch.setattr(module, name, patched)


def corner_cell_off(dx):
    """One corner cell of an input gradient 1 % low."""
    dx = dx.copy()
    dx[0, 0, 0, 0] *= 0.99
    return dx


def last_item_one_cell_late(cols):
    """The last item's columns read one cell later than they should."""
    late = cols.copy()
    late[-1, :, :-1] = cols[-1, :, 1:]
    return late


def pool_over_one_cell_more(x):
    """The factor that makes ``global_avg_pool``'s backward divide by h·w + 1."""
    h, w = x.data.shape[2:]
    return h * w / (h * w + 1)


# Each makes one op's backward wrong.
COLUMN_MUTATIONS = [("_col2im", corner_cell_off), ("_im2col", last_item_one_cell_late)]
BACKWARD_MUTATIONS = {
    **{f"{name}-{mutate.__name__}": (
        lambda mp, name=name, mutate=mutate: in_backward(mp, name, mutate)
    ) for name, mutate in COLUMN_MUTATIONS},
    "sigmoid_x1.001": lambda mp: scaled_backward(mp, [F], "sigmoid", lambda x: 1.001),
    "bilinear_upsample_x1.001": lambda mp: scaled_backward(
        mp, [F], "bilinear_upsample", lambda x: 1.001
    ),
    "gcn_relu_x1.0001": lambda mp: scaled_backward(mp, [G], "relu", lambda x: 1.0001),
    "global_avg_pool_over_hw_plus_1": lambda mp: scaled_backward(
        mp, [B, F], "global_avg_pool", pool_over_one_cell_more
    ),
}
# Tiny at an input whose 8x4 stage-4 map holds k = 8 nodes three times over and more.
TINY_INPUT = (2, 1, 64, 32)


class TestDirectionalGradient:
    # Measured: correct code reads at most 8.2e-9 on micro seeds 0-11 (seed
    # 2, afm.gate.bias) and 7.0e-10 on tiny seeds 0-3. The smallest reading
    # of a mutation is 4.6e-5 (the GCN relu's x1.0001, tiny seed 1); the
    # others read at least 6.5e-5 (sigmoid x1.001), 1.2e-4 (the _col2im
    # corner cell), 1.6e-4 (bilinear_upsample x1.001), 1.1e-2 (the late
    # _im2col columns) and 5.7e-2 (pooling over h·w + 1). The bound sits
    # 120x above correct code and 46x below the smallest mutation. The tiny
    # seeds and the four later mutations add 76 cases, ~5 s of Tier-1.
    BOUND = 1e-6

    def assert_within(self, model, seed, shape=(2, 1, 32, 32)):
        errors = directional_errors(model, seed, shape)
        assert len(errors) == len(model.registry.names())
        worst = max(errors, key=errors.get)
        assert errors[worst] <= self.BOUND, (worst, errors[worst])

    @pytest.mark.parametrize("seed", range(12))
    def test_every_tensor_of_the_micro_model(self, seed):
        self.assert_within(micro_model(seed), seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_tensor_of_the_tiny_model(self, seed):
        self.assert_within(tiny_model(seed), seed, TINY_INPUT)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("name, mutate", COLUMN_MUTATIONS)
    def test_a_wrong_column_rebuild_fails_it(self, monkeypatch, seed, name, mutate):
        in_backward(monkeypatch, name, mutate)
        errors = directional_errors(micro_model(seed), seed)
        assert max(errors.values()) > self.BOUND

    @pytest.mark.parametrize(
        "mutation, make, seed, shape",
        [
            pytest.param(mutation, micro_model, seed, (2, 1, 32, 32), id=f"{mutation}-micro-{seed}")
            for mutation in list(BACKWARD_MUTATIONS)[len(COLUMN_MUTATIONS) :]
            for seed in range(12)
        ]
        + [
            pytest.param(mutation, tiny_model, seed, TINY_INPUT, id=f"{mutation}-tiny-{seed}")
            for mutation in BACKWARD_MUTATIONS
            for seed in range(4)
        ],
    )
    def test_a_wrong_backward_fails_it(self, monkeypatch, mutation, make, seed, shape):
        # The micro column rebuilds are test_a_wrong_column_rebuild_fails_it's.
        BACKWARD_MUTATIONS[mutation](monkeypatch)
        errors = directional_errors(make(seed), seed, shape)
        assert max(errors.values()) > self.BOUND


def per_sample_features(model, x):
    """``SceneModel.features`` with one ``gcn_layer`` per sample and graph."""
    pyramid = model.backbone.forward(T.cast(x, model.registry.dtype))
    f_ffr = model.fusion.forward(pyramid.f_m4, pyramid.f_m5)
    w = f_ffr.data.shape[3]
    rows, indices = [], []
    for i in range(x.data.shape[0]):
        nodes, idx = build_scene_graphs(T.slice_batch(f_ffr, i), model.config.k_nodes)
        indices.append(idx)
        outputs = [
            gcn_layer(node_features, propagation_matrix(positions, w)[None], model.thetas[b])
            for b, node_features, positions in zip(("sag", "cag"), nodes, idx)
        ]
        rows.append(graph_readout(*outputs))
    return T.concat([T.concat(rows, axis=0), pyramid.embedding], axis=1), np.stack(indices)


class TestBatchedGraphStage:
    # theta_rel: measured at most 2.3e-7 (float32) and 4e-16 (float64) on seeds 0-4
    @pytest.mark.parametrize("dtype, theta_rel", [(np.float32, 1e-6), (np.float64, 1e-14)])
    def test_matches_a_per_sample_loop(self, dtype, theta_rel):
        model = SceneModel(ModelConfig.tiny(seed=5), T.ParamRegistry(dtype))
        rng = np.random.default_rng(5)
        model.head_weight.data[...] = rng.standard_normal(model.head_weight.shape)
        examples = synth_dataset("audio", 4, 8, seed=6)
        x = T.Tensor(np.stack([e.x for e in examples]))
        runs = []
        for features in (model.features, lambda x: per_sample_features(model, x)):
            model.registry.zero_grad()
            feats, indices = features(x)
            logits = T.linear(feats, model.head_weight, model.head_bias)
            T.softmax_cross_entropy(logits, [e.label for e in examples]).backward()
            grads = {name: p.grad.copy() for name, p in model.registry.items()}
            runs.append((feats.data, logits.data, indices, grads))
        (feats, logits, indices, grads), (feats1, logits1, indices1, grads1) = runs
        assert feats.dtype == dtype
        assert np.array_equal(feats, feats1) and np.array_equal(logits, logits1)
        assert indices.shape == (8, 2, 8)
        assert np.array_equal(indices, indices1)
        for name, g in grads.items():
            if name.startswith("gcn."):
                # One GEMM over N*K rows against a sum of per-sample products.
                err = np.max(np.abs(g - grads1[name])) / np.max(np.abs(grads1[name]))
                assert err <= theta_rel, (name, err)
            else:
                assert np.array_equal(g, grads1[name]), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_indices_are_each_samples_selected_nodes(self, dtype):
        model = SceneModel(ModelConfig.tiny(seed=3), T.ParamRegistry(dtype))
        x = T.Tensor(np.stack([e.x for e in synth_dataset("audio", 4, 3, seed=4)]))
        with T.no_grad():
            _, indices = model.features(x)
            pyramid = model.backbone.forward(T.cast(x, dtype))
            f_ffr = model.fusion.forward(pyramid.f_m4, pyramid.f_m5).data
        assert indices.shape == (3, 2, 8) and indices.dtype == np.int64
        for i in range(3):
            want = select_nodes(f_ffr[i].sum(axis=0).reshape(-1), 8)
            assert np.array_equal(indices[i], np.stack(want)), i


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
        optimizer = SGD(model.registry, momentum=0.9)
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
        for name, p in model.registry.items():
            assert p.grad is not None and p.grad.dtype == np.float32, name
        optimizer.step(0.01)
        for name, p in model.registry.items():
            assert p.data.dtype == np.float32, name
            assert optimizer.velocity[name].dtype == np.float32, name
            assert p.grad is None, name

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
        def float64_build(cls, config):
            return cls(config, T.ParamRegistry(np.float64))

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


# config_to_text(ModelConfig.tiny()): a renamed field, a changed default or
# another layout shows here as a diff.
TINY_TEXT = """\
{
  "backbone": {
    "in_channels": 1,
    "stage_channels": [
      4,
      8,
      8,
      16,
      32
    ],
    "blocks_per_stage": [
      1,
      1,
      1,
      1
    ],
    "block_type": "basic"
  },
  "num_classes": 4,
  "k_nodes": 8,
  "gcn_out_channels": 8,
  "lr0": 0.01,
  "momentum": 0.9,
  "lr_decay_factor": 10.0,
  "lr_decay_every": 20,
  "epochs": 60,
  "batch_size": 8,
  "seed": 0,
  "disable_graph": false
}
"""

# A manifest of only the fields without a default.
REQUIRED = {
    "backbone": {
        "in_channels": 1,
        "stage_channels": [4, 8, 8, 16, 32],
        "blocks_per_stage": [1, 1, 1, 1],
        "block_type": "basic",
    },
    "num_classes": 4,
}


def tiny_with(path, value):
    """ModelConfig.tiny() as a JSON object with the key at path ("a" or
    "backbone.a") set to value, or removed when value is MISSING."""
    obj = json.loads(config_to_text(ModelConfig.tiny()))
    *parents, key = path.split(".")
    inner = obj[parents[0]] if parents else obj
    if value is dataclasses.MISSING:
        del inner[key]
    else:
        inner[key] = value
    return obj


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
        [
            ModelConfig.tiny(),
            ModelConfig.full(8),
            OFF_DEFAULT,
            # Fields hold plain Python values, so the text is the value
            # itself: np.float32(0.01) is stored as the float it equals, not
            # written as 0.01, and tuples are stored as the lists they load as.
            ModelConfig.tiny(lr0=np.float32(0.01), momentum=np.float64(0.5), seed=np.int64(3)),
            ModelConfig(BackboneConfig(1, (4, 8, 8, 16, 32), (1, 1, 1, 1), "basic"), num_classes=4),
        ],
        ids=["tiny", "full", "off_default", "numpy_scalars", "tuples"],
    )
    def test_round_trip(self, config):
        loaded = config_from_text(config_to_text(config))
        assert loaded == config and repr(loaded) == repr(config)

    def test_off_default_case_sets_every_field_off_its_default(self):
        for obj in (OFF_DEFAULT, OFF_DEFAULT.backbone):
            for f in dataclasses.fields(obj):
                if f.default is not dataclasses.MISSING:
                    assert getattr(obj, f.name) != f.default, f.name

    def test_tiny_text_is_pinned(self):
        assert config_to_text(ModelConfig.tiny()) == TINY_TEXT
        assert config_from_text(TINY_TEXT) == ModelConfig.tiny()

    def test_missing_keys_take_the_dataclass_defaults(self):
        backbone = BackboneConfig(1, [4, 8, 8, 16, 32], [1, 1, 1, 1], "basic")
        loaded = config_from_text(json.dumps(REQUIRED))
        assert loaded == ModelConfig(backbone, num_classes=4)

    @pytest.mark.parametrize(
        "key", ["backbone", "num_classes", *(f"backbone.{k}" for k in REQUIRED["backbone"])]
    )
    def test_missing_key_without_default_is_named(self, key):
        text = json.dumps(tiny_with(key, dataclasses.MISSING))
        with pytest.raises(ConfigurationError, match=f"^missing config key {re.escape(key)}$"):
            config_from_text(text)

    @pytest.mark.parametrize("key", ["k_node", "backbone.block"])
    def test_unknown_key_is_named(self, key):
        text = json.dumps(tiny_with(key, 8))
        with pytest.raises(ConfigurationError, match=f"^unknown config key {re.escape(key)}$"):
            config_from_text(text)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ('"k_nodes": 8,', '"k_nodes": 8,\n  "k_nodes": 12,', "k_nodes"),
            ('"disable_graph": false', '"disable_graph": false, "disable_graph": true', "disable_graph"),
            ('"block_type": "basic"', '"block_type": "basic", "block_type": "basic"', "backbone.block_type"),
            ('"in_channels": 1,', '"in_channels": 1,\n    "in_channels": 3,', "backbone.in_channels"),
        ],
        ids=["top", "top_equal_value", "backbone_equal_value", "backbone"],
    )
    def test_repeated_key_is_named(self, old, new, key):
        assert old in TINY_TEXT
        want = f"^repeated config key {re.escape(key)}$"
        with pytest.raises(ConfigurationError, match=want):
            config_from_text(TINY_TEXT.replace(old, new))

    @pytest.mark.parametrize(
        "text, where",
        [
            ("[]", "config"),
            ('"tiny"', "config"),
            ("null", "config"),
            (json.dumps({**REQUIRED, "backbone": [1, [4, 8, 8, 16, 32]]}), "config key backbone"),
            (json.dumps({**REQUIRED, "backbone": "tiny"}), "config key backbone"),
        ],
        ids=["array", "string", "null", "backbone_array", "backbone_string"],
    )
    def test_non_object_is_named(self, text, where):
        with pytest.raises(ConfigurationError, match=f"^{where} must be a JSON object, got "):
            config_from_text(text)

    @pytest.mark.parametrize(
        "old, new, line, column",
        [
            ('"epochs": 60', '"epochs": 6_0', 26, 14),
            ('"epochs": 60', '"epochs": +60', 26, 13),
            ('"epochs": 60', '"epochs": 060', 26, 14),
            ('"lr0": 0.01', '"lr0": 0.0_1', 22, 13),
            ('"lr0": 0.01', '"lr0": .01', 22, 10),
            ('"seed": 0', '"seed": \u0663', 28, 11),
            ('"disable_graph": false', '"disable_graph": False', 29, 20),
            ('"block_type": "basic"', "\"block_type\": 'basic'", 17, 19),
            ('"disable_graph": false', '"disable_graph": false,', 30, 1),
            ('"k_nodes": 8,', '"k_nodes" 8,', 20, 13),
            ("16,\n      32", "16,,\n      32", 8, 10),
        ],
        ids=[
            "int_underscore", "int_plus", "int_leading_zero", "float_underscore",
            "float_bare_point", "non_ascii_digit", "python_bool", "single_quotes",
            "trailing_comma", "no_colon", "list_empty_item",
        ],
    )
    def test_text_that_is_not_json_names_its_line_and_column(self, old, new, line, column):
        assert old in TINY_TEXT
        want = f"^line {line} column {column}: "
        with pytest.raises(ConfigurationError, match=want):
            config_from_text(TINY_TEXT.replace(old, new, 1))

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("k_nodes", 8.0, "int"),
            ("epochs", "10", "int"),
            ("epochs", " 10", "int"),
            ("seed", True, "int"),
            ("lr0", "fast", "float"),
            ("momentum", None, "float"),
            ("disable_graph", "yes", "bool"),
            ("disable_graph", 1, "bool"),
            ("disable_graph", "true", "bool"),
            ("disable_graph", "", "bool"),
            ("backbone.stage_channels", [4, 8, None, 16, 32], "list[int]"),
            ("backbone.stage_channels", [4, 8, 8, 16.0, 32], "list[int]"),
            ("backbone.stage_channels", "4,8,8,16,32", "list[int]"),
            ("backbone.blocks_per_stage", {"a": 1}, "list[int]"),
            ("backbone.block_type", ["basic"], "str"),
        ],
    )
    def test_value_of_another_type_names_the_field_and_value(self, key, value, kind):
        text = json.dumps(tiny_with(key, value))
        *parents, field = key.split(".")
        where = "config key backbone: " if parents else ""
        want = "^" + re.escape(f"{where}{field} must be {kind}, got {value!r}") + "$"
        with pytest.raises(ConfigurationError, match=want):
            config_from_text(text)

    def test_backbone_value_error_names_the_backbone_key(self):
        text = json.dumps(tiny_with("backbone.stage_channels", [4, 8, 16, 32]))
        want = "^config key backbone: need 5 stage channel counts, got 4$"
        with pytest.raises(ConfigurationError, match=want):
            config_from_text(text)


# The registered names of SceneModel.build(ModelConfig.tiny()), in order. They
# are the checkpoint's tensor file names, so a change to one breaks every
# saved checkpoint.
TINY_NAMES = [
    "backbone.conv1.weight",
    "backbone.conv1.shift",
    "backbone.stage2.block1.conv_a.weight",
    "backbone.stage2.block1.conv_a.shift",
    "backbone.stage2.block1.conv_b.weight",
    "backbone.stage2.block1.conv_b.shift",
    "backbone.stage2.block1.proj.weight",
    "backbone.stage2.block1.proj.shift",
    "backbone.stage3.block1.conv_a.weight",
    "backbone.stage3.block1.conv_a.shift",
    "backbone.stage3.block1.conv_b.weight",
    "backbone.stage3.block1.conv_b.shift",
    "backbone.stage3.block1.proj.weight",
    "backbone.stage3.block1.proj.shift",
    "backbone.stage4.block1.conv_a.weight",
    "backbone.stage4.block1.conv_a.shift",
    "backbone.stage4.block1.conv_b.weight",
    "backbone.stage4.block1.conv_b.shift",
    "backbone.stage4.block1.proj.weight",
    "backbone.stage4.block1.proj.shift",
    "backbone.stage5.block1.conv_a.weight",
    "backbone.stage5.block1.conv_a.shift",
    "backbone.stage5.block1.conv_b.weight",
    "backbone.stage5.block1.conv_b.shift",
    "backbone.stage5.block1.proj.weight",
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
        for name, p in model.registry.items():
            assert p.grad is not None and np.any(p.grad != 0.0), name
        SGD(model.registry, momentum=0.9).step(0.01)
        for name, p in model.registry.items():
            assert p.grad is None, name
            assert not np.array_equal(p.data, before[name]), name

    @pytest.mark.parametrize(
        "key, value",
        [("gcn_layers", 1), ("allow_any_k", False), ("modality", "audio")],
    )
    def test_key_of_a_removed_field_is_unknown(self, key, value):
        # Only manifests of the earlier tensor format carry these keys, and
        # that format no longer loads.
        text = json.dumps(tiny_with(key, value))
        with pytest.raises(ConfigurationError, match=f"^unknown config key {key}$"):
            config_from_text(text)

    @pytest.mark.parametrize("batch_size", [-1, 0])
    def test_non_positive_batch_size_names_the_value(self, batch_size):
        # evaluate and train both batch by config.batch_size.
        with pytest.raises(ConfigurationError, match=f"^batch_size .*got {batch_size}$"):
            ModelConfig.tiny(batch_size=batch_size)

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 1.5),
            ("batch_size", 2.5),
            ("seed", 1.5),
            ("num_classes", 4.5),
            ("gcn_out_channels", 4.5),
            ("k_nodes", 8.0),
            ("lr_decay_every", 1.5),  # a fractional schedule
            ("epochs", True),
            ("seed", np.float64(3.0)),
        ],
    )
    def test_integer_field_of_another_type_names_the_field_and_value(self, field, value):
        want = re.escape(f"{field} must be int, got {value!r}") + "$"
        with pytest.raises(ConfigurationError, match=want):
            ModelConfig.tiny(**{field: value})

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("disable_graph", "False", "bool"),
            ("disable_graph", 0, "bool"),
            ("disable_graph", np.bool_(True), "bool"),
            ("lr0", "0.01", "float"),
            ("momentum", True, "float"),
            ("lr_decay_factor", None, "float"),
            pytest.param("lr0", 10**400, "float", id="lr0-beyond_float_range-float"),
        ],
    )
    def test_field_of_another_type_names_the_field_and_value(self, field, value, kind):
        want = re.escape(f"{field} must be {kind}, got {value!r}") + "$"
        with pytest.raises(ConfigurationError, match=want):
            ModelConfig.tiny(**{field: value})

    def test_backbone_of_another_type_names_the_field_and_value(self):
        want = re.escape("backbone must be BackboneConfig, got 'tiny'") + "$"
        with pytest.raises(ConfigurationError, match=want):
            ModelConfig("tiny", num_classes=4)

    def test_integers_and_numpy_floats_are_floats(self):
        config = ModelConfig.tiny(lr0=1, momentum=np.float32(0.5), lr_decay_factor=np.float64(2.0))
        assert (config.lr0, config.momentum, config.lr_decay_factor) == (1, 0.5, 2.0)

    def test_numpy_integers_are_integers(self):
        config = ModelConfig.tiny(epochs=np.int64(3), seed=np.int32(2), k_nodes=np.int16(8))
        assert (config.epochs, config.seed, config.k_nodes) == (3, 2, 8)

    def test_unknown_modality_is_rejected(self):
        with pytest.raises(ConfigurationError, match="got 'video'$"):
            ModelConfig.tiny(modality="video")
        with pytest.raises(ConfigurationError, match="got 'video'$"):
            ModelConfig.full(8, modality="video")

    def test_registered_names_are_pinned(self):
        names = SceneModel.build(ModelConfig.tiny()).registry.names()
        assert len(TINY_NAMES) == 34
        assert names == TINY_NAMES


class TestSGD:
    @staticmethod
    def registry():
        reg = T.ParamRegistry(np.float64)
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
        optimizer = SGD(reg, momentum=0.9)
        reg["a"].grad = np.ones(2)
        optimizer.step(0.5)
        assert np.array_equal(reg["a"].data, [0.5, -2.5])
        assert np.array_equal(reg["b"].data, [[0.5], [3.0]])

    def test_non_finite_gradient_changes_nothing(self):
        reg = self.registry()
        optimizer = SGD(reg, momentum=0.9)
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

    @staticmethod
    def blocked_registry():
        """float32, with a middle parameter longer than a block and not a multiple of it."""
        reg = T.ParamRegistry(np.float32)
        rng = np.random.default_rng(11)
        reg.register("a", rng.standard_normal(5))
        reg.register("big", rng.standard_normal((3, 2 * M._SGD_BLOCK // 3 + 7)))
        reg.register("last", rng.standard_normal((4, 3)))
        return reg

    def test_blocked_update_is_bit_identical_to_whole_array_passes(self):
        reg = self.blocked_registry()
        assert reg["big"].data.size > M._SGD_BLOCK and reg["big"].data.size % M._SGD_BLOCK
        optimizer = SGD(reg, momentum=0.9)
        rng = np.random.default_rng(12)
        want = {name: p.data.copy() for name, p in reg.items()}
        velocity = {name: np.zeros_like(p.data) for name, p in reg.items()}
        for lr in (0.1, 0.05, 0.01):
            for name, p in reg.items():
                p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
                v = velocity[name]
                v *= 0.9
                v += p.grad
                want[name] -= lr * v
            optimizer.step(lr)
        for name, p in reg.items():
            assert np.array_equal(optimizer.velocity[name], velocity[name]), name
            assert np.array_equal(p.data, want[name]), name

    def test_nan_in_the_last_gradient_changes_nothing(self):
        reg = self.blocked_registry()
        optimizer = SGD(reg, momentum=0.9)
        for p in reg.tensors():
            p.grad = np.ones_like(p.data)
        optimizer.step(0.1)  # non-zero velocities
        before = {
            name: (p.data.copy(), optimizer.velocity[name].copy())
            for name, p in reg.items()
        }
        for p in reg.tensors():  # the step used up the first gradients
            p.grad = np.ones_like(p.data)
        reg["last"].grad[3, 2] = np.nan
        with pytest.raises(NumericError, match="gradient for last;"):
            optimizer.step(0.1)
        for name, p in reg.items():
            assert np.array_equal(p.data, before[name][0]), name
            assert np.array_equal(optimizer.velocity[name], before[name][1]), name

    def test_finite_gradient_whose_squares_overflow_steps(self):
        reg = self.blocked_registry()
        want = reg["big"].data - np.float32(1e-30) * np.float32(1e30)
        for p in reg.tensors():
            p.grad = np.zeros_like(p.data)
        reg["big"].grad[:] = 1e30  # g·g overflows float32
        SGD(reg, momentum=0.9).step(1e-30)
        assert np.array_equal(reg["big"].data, want)

    def test_parameter_registered_in_another_layout_is_updated(self):
        # The update writes through a flat view of each parameter, so the
        # registry stores parameters C-contiguous.
        reg = T.ParamRegistry(np.float32)
        w = reg.register("w", np.arange(6.0, dtype=np.float32).reshape(2, 3).T)
        assert w.data.flags.c_contiguous
        w.grad = np.ones((3, 2), dtype=np.float32)
        SGD(reg, momentum=0.9).step(0.5)
        assert np.array_equal(w.data, np.arange(6.0).reshape(2, 3).T - 0.5)

    def test_step_allocates_at_most_one_block(self):
        # lr·v goes through the preallocated scratch block; a whole-parameter
        # lr * v would allocate 16 MiB here.
        reg = T.ParamRegistry(np.float32)
        reg.register("w", np.ones(4 * 1024 * 1024, dtype=np.float32))
        optimizer = SGD(reg, momentum=0.9)
        reg["w"].grad = np.ones_like(reg["w"].data)
        tracemalloc.start()
        try:
            optimizer.step(0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * M._SGD_BLOCK + 64 * 1024, peak

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_velocity_starts_as_contiguous_zeros_like_its_parameter(self, dtype):
        # step writes through velocity.reshape(-1), which is a view only
        # for a C-contiguous array.
        reg = T.ParamRegistry(dtype)
        reg.register("w", np.arange(6.0).reshape(2, 3).T)
        reg.register("b", np.ones(5))
        reg.register("k", np.ones((2, 3, 3, 3)))
        optimizer = SGD(reg, momentum=0.9)
        assert list(optimizer.velocity) == list(reg.names())
        for name, p in reg.items():
            v = optimizer.velocity[name]
            assert v.flags.c_contiguous, name
            assert (v.shape, v.dtype) == (p.data.shape, np.dtype(dtype)), name
            assert not v.any(), name
            assert np.shares_memory(v.reshape(-1), v), name
            assert not np.shares_memory(v, p.data), name

    @pytest.mark.parametrize("lr", [0.0, -0.01])
    def test_non_positive_lr_rejected(self, lr):
        with pytest.raises(ConfigurationError, match="lr"):
            SGD(self.registry(), momentum=0.9).step(lr)

    @pytest.mark.parametrize("lr", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_lr_changes_nothing(self, lr):
        reg = self.registry()
        optimizer = SGD(reg, momentum=0.9)
        for p in reg.tensors():
            p.grad = np.ones_like(p.data)
        optimizer.step(0.1)  # non-zero velocities
        before = {
            name: (p.data.copy(), optimizer.velocity[name].copy())
            for name, p in reg.items()
        }
        with pytest.raises(ConfigurationError, match=f"lr must be finite and positive, got {lr}$"):
            optimizer.step(lr)
        for name, p in reg.items():
            assert np.array_equal(p.data, before[name][0]), name
            assert np.array_equal(optimizer.velocity[name], before[name][1]), name

    def test_step_uses_up_every_gradient(self):
        reg = T.ParamRegistry(np.float32)
        reg.register("a", np.ones(3, dtype=np.float32))
        reg.register("w", np.ones(4 * 1024 * 1024, dtype=np.float32))
        grad = np.ones_like(reg["w"].data)
        reg["w"].grad, reg["a"].grad = grad, np.ones(3, dtype=np.float32)
        freed = weakref.ref(grad)
        del grad
        SGD(reg, momentum=0.9).step(0.1)
        assert all(p.grad is None for p in reg.tensors())
        assert freed() is None  # no 16 MiB copy of the gradient outlives the step
        assert np.all(reg["w"].data == np.float32(1.0) - np.float32(0.1))

    @pytest.mark.parametrize(
        "b_grad, lr, error, message",
        [
            pytest.param(
                [[np.nan], [1.0]], 0.1, NumericError, "non-finite gradient for b; step aborted", id="nan"
            ),
            pytest.param(
                [[2.0], [3.0]], 0.0, ConfigurationError, "lr must be finite and positive, got 0.0", id="zero_lr"
            ),
            pytest.param(
                [[2.0], [3.0]], np.inf, ConfigurationError, "lr must be finite and positive, got inf", id="inf_lr"
            ),
            # Without the shape check, a is stepped before b's update fails to
            # broadcast; and a transposed gradient is applied silently.
            pytest.param(
                [2.0, 3.0, 4.0], 0.1, ConfigurationError, r"b has shape \(3,\), its parameter \(2, 1\);", id="size"
            ),
            pytest.param(
                [[2.0, 3.0]], 0.1, ConfigurationError, r"b has shape \(1, 2\), its parameter \(2, 1\);", id="transposed"
            ),
        ],
    )
    def test_aborted_step_keeps_every_gradient(self, b_grad, lr, error, message):
        reg = self.registry()
        optimizer = SGD(reg, momentum=0.9)
        reg["a"].grad = np.array([1.0, -1.0])
        reg["b"].grad = np.array(b_grad)
        grads = {name: p.grad for name, p in reg.items()}
        values = {name: g.copy() for name, g in grads.items()}
        with pytest.raises(error, match=message):
            optimizer.step(lr)
        for name, p in reg.items():
            assert p.grad is grads[name], name
            assert np.array_equal(p.grad, values[name], equal_nan=True), name
            assert not optimizer.velocity[name].any(), name
        assert np.array_equal(reg["a"].data, [1.0, -2.0])
        assert np.array_equal(reg["b"].data, [[0.5], [3.0]])

    def test_trained_model_holds_no_gradient(self):
        model, _ = train(ModelConfig.tiny(seed=6, epochs=1), synth_splits("audio", 4, 12, 0, seed=6))
        assert all(p.grad is None for p in model.registry.tensors())


class TestLrSchedule:
    def test_step_boundaries(self):
        config = ModelConfig.tiny(lr0=0.5, lr_decay_factor=10.0, lr_decay_every=3)
        lrs = [lr_schedule(config, epoch) for epoch in range(7)]
        assert lrs == [0.5, 0.5, 0.5, 0.05, 0.05, 0.05, 0.005]

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigurationError, match="-1"):
            lr_schedule(ModelConfig.tiny(), -1)

    @pytest.mark.parametrize(
        "overrides, last",
        [
            # 10.0 ** 309 overflows: the 310th epoch's lr.
            ({"epochs": 400, "lr_decay_every": 1}, "0.0"),
            ({"epochs": 310, "lr_decay_every": 1}, "0.0"),
            # The lr reaches 0.0, which SGD.step rejects.
            ({"lr0": 1e-300, "lr_decay_every": 1}, "0.0"),
            # A factor below 1 raises the lr: 0.5 ** 1100 is 0.0, 0.5 ** 1070 gives inf.
            ({"lr_decay_factor": 0.5, "epochs": 1101, "lr_decay_every": 1}, "inf"),
            ({"lr_decay_factor": 0.5, "epochs": 1071, "lr_decay_every": 1}, "inf"),
        ],
    )
    def test_config_whose_last_lr_is_not_finite_and_positive_names_the_schedule(
        self, overrides, last
    ):
        config = {"lr0": 0.01, "lr_decay_factor": 10.0, "epochs": 60, **overrides}
        want = (
            f"lr0={config['lr0']} / lr_decay_factor={config['lr_decay_factor']} ** "
            f"((epochs={config['epochs']} - 1) // lr_decay_every={config['lr_decay_every']}) "
            f"gives the last epoch an lr of {last}, not finite and positive"
        )
        with pytest.raises(ConfigurationError, match=re.escape(want) + "$"):
            ModelConfig.tiny(**overrides)

    def test_last_positive_lr_is_accepted_and_unchanged(self):
        config = ModelConfig.tiny(epochs=309, lr_decay_every=1)
        assert lr_schedule(config, 308) == 0.01 / 10.0 ** 308 > 0.0


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
    def seeded_model(examples, dtype=np.float64, batch_size=8):
        config = ModelConfig.tiny(seed=1, batch_size=batch_size)
        model = SceneModel(config, T.ParamRegistry(dtype))
        w = np.random.default_rng(1).standard_normal(model.head_weight.shape)
        model.head_weight.data[...] = w
        # Centre the logits on these examples, so the predictions vary.
        with T.no_grad():
            feats, _ = model.features(T.Tensor(np.stack([e.x for e in examples])))
        model.head_bias.data[...] = -w @ feats.data.mean(axis=0)
        return model

    def test_confusion_matches_a_hand_count(self):
        examples = synth_dataset("audio", 4, 10, seed=2)
        model = self.seeded_model(examples, batch_size=3)
        want = np.zeros((4, 4), dtype=np.int64)
        with T.no_grad():
            for e in examples:
                pred = int(np.argmax(model.forward(T.Tensor(e.x[None])).data))
                want[e.label, pred] += 1
        result = evaluate(model, examples)
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
        confusions = []
        for size in (1, 3, 8):
            model.config = dataclasses.replace(model.config, batch_size=size)
            confusions.append(evaluate(model, examples).confusion)
        assert (confusions[0].sum(axis=0) > 0).sum() >= 2  # not one class for all
        assert np.array_equal(confusions[1], confusions[0])
        assert np.array_equal(confusions[2], confusions[0])

    def test_empty_set_rejected(self):
        with pytest.raises(DataError, match="empty"):
            evaluate(self.seeded_model(synth_dataset("audio", 4, 2, seed=2)), [])

    def test_bad_label_raises_before_any_forward(self, monkeypatch):
        examples = synth_dataset("audio", 4, 8, seed=2)
        model = self.seeded_model(examples)
        examples[5].label = 4
        forwards = count_calls(monkeypatch, SceneModel, "forward")
        with pytest.raises(DataError, match="evaluation example 5: label 4"):
            evaluate(model, examples)
        assert forwards == []


class TestDisableGraph:
    def test_features_are_the_embedding_and_fusion_is_skipped(self, monkeypatch):
        config = ModelConfig.tiny(seed=2)
        model = SceneModel.build(dataclasses.replace(config, disable_graph=True))
        x = T.Tensor(np.random.default_rng(3).standard_normal((3, 1, 64, 32)))
        fusions = count_calls(monkeypatch, AttentionFusion, "forward")
        feats, indices = model.features(x)
        assert fusions == [] and indices is None
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
        assert sizes == [28_325_002, 23_501_962]


class TestInputSize:
    # Both size rules are checked at the model boundary: no axis is empty,
    # and a graph model's stage-4 map holds 3*k cells. The backbone itself
    # runs on any H, W >= 1.
    def test_too_small_for_k_nodes_fails_before_the_backbone(self, monkeypatch):
        model = SceneModel.build(ModelConfig.tiny(k_nodes=20))
        backbone_runs = count_calls(monkeypatch, Backbone, "forward")
        message = r"^input 64x32 gives a 8x4 stage-4 map, too small for k_nodes=20: .* 32 cells"
        with pytest.raises(ConfigurationError, match=message):
            model.forward(T.Tensor(np.zeros((2, 1, 64, 32))))
        assert backbone_runs == []

    def test_smallest_map_for_k_nodes_is_classified(self):
        # 15x48 gives a 2x6 stage-4 map: 12 cells, exactly 3*k for k=4.
        model = micro_model(0)
        x = T.Tensor(np.random.default_rng(0).standard_normal((2, 1, 15, 48)))
        with T.no_grad():
            assert model.forward(x).shape == (2, 3)
        with pytest.raises(ConfigurationError, match="2x5 stage-4 map, too small for k_nodes=4"):
            model.forward(T.Tensor(np.zeros((1, 1, 15, 40))))

    @pytest.mark.parametrize("disable_graph", [False, True], ids=["graphs", "no_graph"])
    @pytest.mark.parametrize("shape", [(0, 1, 64, 32), (1, 1, 0, 32), (1, 1, 64, 0)])
    def test_empty_input_fails_before_the_backbone(self, monkeypatch, shape, disable_graph):
        model = SceneModel.build(ModelConfig.tiny(disable_graph=disable_graph))
        backbone_runs = count_calls(monkeypatch, Backbone, "forward")
        with pytest.raises(ConfigurationError, match=re.escape(f"input of shape {shape} is empty")):
            model.forward(T.Tensor(np.zeros(shape)))
        assert backbone_runs == []

    @pytest.mark.parametrize("n, bound", [(8, 8.5), (1, 2.6)], ids=["eight_clips", "one_clip"])
    def test_ten_second_clip_batch_peak_stays_bounded(self, n, bound):
        # conv2d builds im2col columns for a budget of whole items at a time:
        # the traced peak of eight 10-s clips' no-grad features is 7.59 MiB,
        # and of one clip 2.58 MiB. Columns for the whole batch at once put
        # the eight clips at 20.63 MiB; an output made before the first
        # chunk's columns put the one clip at 2.78 MiB.
        model = SceneModel.build(ModelConfig.tiny(k_nodes=20))
        x = T.Tensor(np.random.default_rng(n).standard_normal((n, 1, 401, 64)).astype(np.float32))
        with T.no_grad():
            model.features(x)  # fill the layout caches first
            tracemalloc.start()
            try:
                model.features(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= bound * 2**20, peak / 2**20

    @pytest.mark.parametrize("h, w", [(1, 1), (1, 9), (5, 2), (17, 33)])
    def test_ablated_model_takes_any_size(self, h, w):
        model = SceneModel.build(ModelConfig.tiny(disable_graph=True))
        with T.no_grad():
            logits = model.forward(T.Tensor(np.ones((1, 1, h, w))))
        assert logits.shape == (1, 4)


class TestSynthDataset:
    @pytest.mark.parametrize(
        "kind, height, width, message",
        [
            ("audio", 4, 32, "audio height must be >= 8 to hold the target, got 4"),
            ("audio", 64, 2, "audio width must be >= 4 to hold the target, got 2"),
            ("visual", 1, 32, "visual height must be >= 2 to hold the target, got 1"),
            ("visual", 32, 0, "visual width must be >= 2 to hold the target, got 0"),
        ],
    )
    def test_size_without_a_target_names_the_dimension(self, kind, height, width, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            synth_dataset(kind, 4, 1, seed=0, height=height, width=width)

    @pytest.mark.parametrize(
        "make, name, value",
        [
            (lambda: synth_dataset("audio", 4, -1, seed=0), "n", -1),
            (lambda: synth_dataset("audio", 4, True, seed=0), "n", True),
            (lambda: synth_dataset("audio", 4, 2.5, seed=0), "n", 2.5),
            (lambda: synth_dataset("audio", 4.0, 2, seed=0), "classes", 4.0),
            (lambda: synth_dataset("audio", 4, 2, seed=-1), "seed", -1),
            (lambda: synth_dataset("audio", 4, 2, seed=1.5), "seed", 1.5),
            (lambda: synth_dataset("audio", 4, 2, seed=0, height=64.0), "height", 64.0),
            (lambda: synth_dataset("visual", 4, 2, seed=0, width=33.5), "width", 33.5),
            (lambda: synth_splits("audio", 4, 8, -3, seed=0), "n_test", -3),
            (lambda: synth_splits("audio", 4, -1, 8, seed=0), "n_train", -1),
            (lambda: synth_splits("audio", 4, 8, 8, seed=1.5), "seed", 1.5),
        ],
        ids=[
            "n_negative", "n_bool", "n_fraction", "classes_float", "seed_negative",
            "seed_fraction", "height_float", "width_fraction", "splits_n_test_negative",
            "splits_n_train_negative", "splits_seed_fraction",
        ],
    )
    def test_bad_count_names_the_parameter_and_value(self, make, name, value):
        want = re.escape(f"{name} must be a non-negative integer, got {value!r}") + "$"
        with pytest.raises(ConfigurationError, match=f"^{want}"):
            make()

    def test_no_examples_is_an_empty_split(self):
        assert synth_dataset("audio", 4, 0, seed=0) == []
        assert synth_splits("visual", 4, 2, 0, seed=0).test == []

    @pytest.mark.parametrize("kind, size", [("audio", (64, 32)), ("visual", (128, 128))])
    def test_benchmark_sizes_pass(self, kind, size):
        (example,) = synth_dataset(kind, 4, 1, seed=0, height=size[0], width=size[1])
        assert example.x.shape[1:] == size


def rejection_synth_audio(rng, label, classes, height, width, cases):
    """``_synth_audio`` as it drew before the free-block table: 40 scalar
    tries per placement, each testing the grid. Counts each failed
    placement in ``cases`` as "no_free" or "missed" (free blocks, all missed).
    """
    slot_h, slot_w = height // 8, width // 4
    x = rng.uniform(0.0, 0.35, size=(height, width))
    target_amp = rng.uniform(1.9, 3.1)
    occupied = np.zeros((8, 4), dtype=bool)

    def place_block():
        for _ in range(40):
            r = int(rng.integers(0, 7))
            c = int(rng.integers(0, 3))
            if not occupied[r : r + 2, c : c + 2].any():
                occupied[r : r + 2, c : c + 2] = True
                return r, c
        free = any(not occupied[r : r + 2, c : c + 2].any() for r in range(7) for c in range(3))
        cases["missed" if free else "no_free"] += 1
        return None

    def stamp(block, kind, amp):
        r, c = block
        uneven = kind >= 4
        for cell_index, (dr, dc) in enumerate(M._PAIR_LAYOUTS[kind % 4]):
            rr, cc = (r + dr) * slot_h, (c + dc) * slot_w
            gain = amp * (0.6 if uneven and cell_index else 1.0)
            x[rr : rr + slot_h, cc : cc + slot_w] += gain * rng.uniform(
                0.97, 1.03, size=(slot_h, slot_w)
            )

    stamp(place_block(), label, target_amp)
    for _ in range(6):
        block = place_block()
        if block is None:
            continue
        stamp(block, int(rng.integers(0, classes)), rng.uniform(1.0, target_amp - 0.8))
    return x[None, :, :]


class TestSynthAudioDraws:
    @pytest.mark.parametrize("size", [(64, 32), (16, 8), (8, 4)])
    def test_matches_the_rejection_loop_bit_for_bit(self, size):
        cases = {"no_free": 0, "missed": 0}
        for seed in range(40):
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for i in range(6):
                want = rejection_synth_audio(want_rng, i % 4, 4, *size, cases)
                got = M._synth_audio(got_rng, i % 4, 4, *size)
                assert got.tobytes() == want.tobytes(), (seed, i)
            # Equal generator states, so the next draw is the same too.
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, seed
        assert cases["no_free"] > 0 and cases["missed"] > 0, cases

    # sha256 of tiny_train's splits (every example's bytes, then its label),
    # recorded before the free-block table replaced the rejection loop.
    TINY_TRAIN_SPLITS = {
        0: "2e77ead40b23cc2d64582d16c7946b6ec560f47d753905c8f5366d6463ad574e",
        1: "77ebd88c3b20d2d411d6742d7dce1e952518843b0197e2571a951ead4b53bc8b",
        2: "e53917d61267da7317f7d7226c83951127fbc548a443dc3c4c5797ba22718c90",
        3: "da8924cb5347310a0f72d2d5f295f2f4309cba089588b245d99e3a5000bdf912",
    }

    @pytest.mark.parametrize("seed", sorted(TINY_TRAIN_SPLITS))
    def test_benchmark_splits_are_pinned(self, seed):
        dataset = synth_splits("audio", 4, 96, 48, seed)
        digest = hashlib.sha256()
        for example in dataset.train + dataset.test:
            digest.update(example.x.tobytes())
            digest.update(np.int64(example.label).tobytes())
        assert digest.hexdigest() == self.TINY_TRAIN_SPLITS[seed]


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

    @pytest.mark.parametrize(
        "label", [1.5, 1.0, True, "1"], ids=["fraction", "float", "bool", "str"]
    )
    @pytest.mark.parametrize("split, index", [("train", 2), ("test", 3)])
    def test_non_integer_label_raises_before_any_step(self, monkeypatch, split, index, label):
        # The loss would read 1.5 and True as class 1.
        dataset = synth_splits("audio", 4, 16, 8, seed=0)
        getattr(dataset, split)[index].label = label
        builds = count_calls(monkeypatch, SceneModel, "build")
        want = re.escape(f"{split} example {index}: label {label!r} is not an integer") + "$"
        with pytest.raises(DataError, match=want):
            train(ModelConfig.tiny(epochs=1), dataset)
        assert builds == []

    def test_numpy_integer_labels_are_integers(self):
        examples = synth_dataset("audio", 4, 8, seed=2)
        for e in examples:
            e.label = np.int64(e.label)
        model = SceneModel.build(ModelConfig.tiny())
        assert evaluate(model, examples).confusion.sum() == 8


class TestBadExamples:
    # A ragged, non-numeric or non-finite example fails before any model is
    # built or run, with a DataError naming its split and index.
    NOT_REAL = "x must be a numpy array of integers or floats"

    @pytest.mark.parametrize(
        "index, x, message",
        [
            (3, np.zeros((1, 64, 33)), r"shape \(1, 64, 33\) != \(1, 64, 32\) of example 0"),
            (5, np.full((1, 64, 32), np.nan), "non-finite value in x"),
            (3, np.zeros((1, 64, 32)).tolist(), f"{NOT_REAL}, got list$"),
            (3, np.full((1, 64, 32), "0"), f"{NOT_REAL}, got dtype <U1$"),
            (4, np.zeros((1, 64, 32), complex), f"{NOT_REAL}, got dtype complex128$"),
        ],
        ids=["ragged", "non_finite", "nested_list", "strings", "complex"],
    )
    def test_bad_train_example_is_named(self, monkeypatch, index, x, message):
        dataset = synth_splits("audio", 4, 16, 8, seed=0)
        dataset.train[index].x = x
        builds = count_calls(monkeypatch, SceneModel, "build")
        with pytest.raises(DataError, match=f"train example {index}: {message}"):
            train(ModelConfig.tiny(epochs=1), dataset)
        assert builds == []

    def test_evaluate_rejects_a_non_finite_example(self, monkeypatch):
        examples = synth_dataset("audio", 4, 8, seed=2)
        examples[6].x[0, 0, 0] = np.inf
        model = SceneModel.build(ModelConfig.tiny())
        forwards = count_calls(monkeypatch, SceneModel, "forward")
        with pytest.raises(DataError, match="evaluation example 6: non-finite"):
            evaluate(model, examples)
        assert forwards == []


class TestTrainDivergence:
    def test_divergence_is_a_numeric_error_under_warnings_as_errors(self):
        # Warnings are errors here (pyproject's filterwarnings). At lr0=1.0
        # this run overflows in conv2d during epoch 2; the loss check must
        # report that, not numpy's RuntimeWarning from the overflowing op.
        config = ModelConfig.tiny(modality="visual", epochs=3, lr0=1.0)
        with pytest.raises(NumericError, match="loss diverged at epoch 2"):
            train(config, synth_splits("visual", 4, 16, 8, seed=1))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tiny_visual_stays_finite_at_the_default_lr(self, seed):
        config = ModelConfig.tiny(modality="visual", epochs=8, lr_decay_every=12, seed=seed)
        _, report = train(config, synth_splits("visual", 4, 96, 48, seed))
        assert len(report.losses) == 8 and np.all(np.isfinite(report.losses))


class TestTrainEvaluations:
    @pytest.mark.parametrize("n_test", [8, 0], ids=["test_split", "no_test_split"])
    def test_one_evaluation_per_epoch(self, monkeypatch, n_test):
        dataset = synth_splits("audio", 4, 16, n_test, seed=6)
        evaluations = count_calls(monkeypatch, M, "evaluate")
        model, report = train(ModelConfig.tiny(seed=6, epochs=3), dataset)
        assert len(evaluations) == (3 if n_test else 1)
        fresh = evaluate(model, dataset.test or dataset.train)
        assert np.array_equal(report.confusion, fresh.confusion)
        if n_test:
            assert report.final_test_accuracy == fresh.accuracy
        else:  # not measured, so absent rather than 0
            assert report.final_test_accuracy is None
            assert [e.test_accuracy for e in report.epochs] == [None] * 3

    def test_progress_gets_each_epoch_once_its_test_accuracy_is_in(self, monkeypatch):
        dataset = synth_splits("audio", 4, 16, 8, seed=6)
        events, evaluate_ = [], M.evaluate

        def evaluate_spy(model, examples):
            result = evaluate_(model, examples)
            events.append(("evaluate", result.accuracy))
            return result

        def progress(stats):  # a copy keeps the fields as they were at the call
            events.append(("progress", stats, dataclasses.replace(stats)))

        monkeypatch.setattr(M, "evaluate", evaluate_spy)
        _, report = train(ModelConfig.tiny(seed=6, epochs=3), dataset, progress=progress)
        assert [event[0] for event in events] == ["evaluate", "progress"] * 3
        calls = events[1::2]
        assert all(stats is epoch for (_, stats, _), epoch in zip(calls, report.epochs))
        assert [copy for _, _, copy in calls] == report.epochs
        assert [stats.epoch for _, stats, _ in calls] == [0, 1, 2]
        accuracies = [accuracy for _, accuracy in events[::2]]
        assert [copy.test_accuracy for _, _, copy in calls] == accuracies

    def test_epoch_stats_are_the_steps_lr_loss_and_accuracy(self, monkeypatch):
        # 20 examples in batches of 8, 8 and 4: loss and accuracy weigh each
        # batch by its length, and the lr falls tenfold every epoch.
        dataset = synth_splits("audio", 4, 20, 0, seed=3)
        config = ModelConfig.tiny(seed=3, epochs=3, batch_size=8, lr_decay_every=1)
        losses, loss_ = [], M.softmax_cross_entropy

        def loss_spy(logits, labels):
            loss = loss_(logits, labels)
            correct = int((np.argmax(logits.data, axis=1) == labels).sum())
            losses.append((loss.item(), len(labels), correct))
            return loss

        monkeypatch.setattr(M, "softmax_cross_entropy", loss_spy)
        lrs = count_calls(monkeypatch, SGD, "step")
        _, report = train(config, dataset)
        assert len(report.epochs) == 3 and len(losses) == len(lrs) == 9
        for epoch, stats in enumerate(report.epochs):
            steps = losses[3 * epoch : 3 * epoch + 3]
            assert [n for _, n, _ in steps] == [8, 8, 4]
            want_lr = lr_schedule(config, epoch)
            assert [lr for _, lr in lrs[3 * epoch : 3 * epoch + 3]] == [want_lr] * 3
            assert stats.lr == want_lr
            assert stats.loss == sum(value * n for value, n, _ in steps) / 20
            assert stats.train_accuracy == sum(correct for _, _, correct in steps) / 20


def npy_header(shape, descr="<f4"):
    """The .npy magic and header of a C-order array, without its payload."""
    out = io.BytesIO()
    header = {"descr": descr, "fortran_order": False, "shape": shape}
    np.lib.format.write_array_header_1_0(out, header)
    return out.getvalue()


class TestCheckpoint:
    @staticmethod
    def randomized_model(config=ModelConfig.tiny(seed=3), dtype=np.float32):
        model = SceneModel(config, T.ParamRegistry(dtype))
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
        model = self.randomized_model(dtype=np.float64)
        save_checkpoint(model, tmp_path)
        loaded = load_checkpoint(tmp_path)
        assert loaded.config == model.config
        assert loaded.registry.names() == model.registry.names()
        for name, p in model.registry.items():
            got = loaded.registry[name].data
            assert np.array_equal(got, p.data.astype(np.float32).astype(np.float64)), name
            # Round to nearest f32: relative error at most 2**-24.
            assert np.all(np.abs(got - p.data) <= 2.0**-24 * np.abs(p.data)), name

    def test_stray_tensor_file_names_it(self, tmp_path):
        # A tensor this model does not register, such as the per-channel conv
        # scale that older checkpoints hold, would be dropped without a word.
        save_checkpoint(self.randomized_model(), tmp_path)
        path = tmp_path / "backbone.conv1.scale.npy"
        np.save(path, np.ones(4, dtype="<f4"))
        want = re.escape(f"{path}: no tensor of this model has that name")
        with pytest.raises(DataError, match=want):
            load_checkpoint(tmp_path)

    def test_missing_tensor_names_it(self, tmp_path):
        save_checkpoint(self.randomized_model(), tmp_path)
        path = tmp_path / "head.bias.npy"
        path.unlink()
        with pytest.raises(DataError, match=re.escape(f"{path}: missing tensor head.bias")):
            load_checkpoint(tmp_path)

    def test_wrong_shape_names_it(self, tmp_path):
        save_checkpoint(self.randomized_model(), tmp_path)
        path = tmp_path / "head.bias.npy"
        np.save(path, np.zeros(5, dtype="<f4"))
        want = re.escape(f"{path}: checkpoint shape (5,) != model shape (4,)")
        with pytest.raises(DataError, match=want):
            load_checkpoint(tmp_path)

    def test_files_are_the_config_text_and_one_npy_per_name(self, tmp_path):
        model = self.randomized_model()
        save_checkpoint(model, tmp_path)
        names = model.registry.names()
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
            ["config.json", *(f"{name}.npy" for name in names)]
        )
        assert (tmp_path / "config.json").read_bytes() == config_to_text(model.config).encode()
        for name, p in model.registry.items():
            stored = np.load(tmp_path / f"{name}.npy")
            assert stored.dtype == np.dtype("<f4") and stored.shape == p.data.shape, name
            assert np.array_equal(stored.view(np.uint32), p.data.view(np.uint32)), name

    # How each case rewrites the bytes of head.bias.npy (4 float32 values),
    # and what the error says after the file's name.
    MALFORMED = {
        "bad_magic": (lambda raw: b"NOPE" + raw[4:], "not a .npy file: the magic string"),
        "truncated_header": (lambda raw: raw[:40], "not a .npy file: EOF"),
        "truncated_payload": (lambda raw: raw[:-3], "not a .npy file"),
        "bytes_after_payload": (lambda raw: raw + b"\0\0", "2 bytes after the payload"),
        # 2^64 values: an int64 product of the dims wraps to 0, which a
        # header-only file would match.
        "dims_overflow_int64": (
            lambda raw: npy_header((2**31, 2**31, 4)),
            "not a .npy file",
        ),
        "float64": (
            lambda raw: npy_header((4,), "<f8") + bytes(32),
            "dtype <f8, expected <f4",
        ),
        "big_endian": (
            lambda raw: npy_header((4,), ">f4") + bytes(16),
            "dtype >f4, expected <f4",
        ),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_tensor_file_names_it(self, tmp_path, case):
        save_checkpoint(self.randomized_model(), tmp_path)
        path = tmp_path / "head.bias.npy"
        rewrite, message = self.MALFORMED[case]
        path.write_bytes(rewrite(path.read_bytes()))
        # On overflowing dims numpy warns and then raises; under -W error the
        # warning is what the loader catches.
        for action in ("error", "ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}"):
                    load_checkpoint(tmp_path)

    def test_header_larger_than_the_file_allocates_nothing_of_its_size(self, tmp_path):
        save_checkpoint(self.randomized_model(), tmp_path)
        path = tmp_path / "head.bias.npy"
        path.write_bytes(npy_header((2**12, 2**12)))  # claims 64 MiB
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=re.escape(f"{path}: not a .npy file")):
                load_checkpoint(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24

    # How each case rewrites the manifest's bytes, and what the error says
    # after the manifest's name.
    BROKEN = {
        "unparsable": (
            lambda raw: raw.replace(b'"k_nodes": 8,', b'"k_nodes": 8.,'),
            "line 20 column 15: Expecting ',' delimiter",
        ),
        "repeated": (
            lambda raw: raw.replace(b'"k_nodes": 8,', b'"k_nodes": 8,\n  "k_nodes": 8,'),
            "repeated config key k_nodes",
        ),
        "invalid": (
            lambda raw: raw.replace(b'"k_nodes": 8,', b'"k_nodes": 6,'),
            "k_nodes must be a positive multiple of 4, got 6",
        ),
        "not_utf8": (
            lambda raw: raw.replace(b'"k_nodes": 8,', b'"k_nodes": \xff,'),
            "'utf-8' codec can't decode byte 0xff",
        ),
        "misspelt": (
            lambda raw: raw.replace(b'"k_nodes": 8,', b'"k_node": 8,'),
            "unknown config key k_node",
        ),
        "backbone_unknown": (
            lambda raw: raw.replace(b'"block_type": "basic"', b'"block_type": "basic", "depth": 4'),
            "unknown config key backbone.depth",
        ),
        "backbone_missing": (
            lambda raw: raw.replace(b'    "in_channels": 1,\n', b""),
            "missing config key backbone.in_channels",
        ),
        "backbone_repeated": (
            lambda raw: raw.replace(b'"in_channels": 1,', b'"in_channels": 1, "in_channels": 1,'),
            "repeated config key backbone.in_channels",
        ),
        "not_an_object": (lambda raw: b"[" + raw + b"]", "config must be a JSON object, got ["),
        "backbone_not_an_object": (
            lambda raw: json.dumps({**json.loads(raw), "backbone": 1}).encode(),
            "config key backbone must be a JSON object, got 1",
        ),
        "too_deep": (lambda raw: b"[" * 100_000, "maximum recursion depth exceeded"),
        "int_too_long": (
            lambda raw: raw.replace(b'"seed": 3', b'"seed": ' + b"9" * 5000),
            "Exceeds the limit (4300 digits)",
        ),
    }

    @pytest.mark.parametrize("case", list(BROKEN))
    def test_broken_manifest_names_the_file(self, tmp_path, case):
        save_checkpoint(self.randomized_model(), tmp_path)
        manifest = tmp_path / "config.json"
        rewrite, message = self.BROKEN[case]
        raw = manifest.read_bytes()
        broken = rewrite(raw)
        assert broken != raw
        manifest.write_bytes(broken)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(f'{manifest}: {message}')}"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize(
        "spelling, value", [("NaN", "nan"), ("Infinity", "inf"), ("1e999", "inf")]
    )
    @pytest.mark.parametrize(
        "field, written", [("lr0", "0.01"), ("momentum", "0.9"), ("lr_decay_factor", "10.0")]
    )
    def test_non_finite_float_names_the_field_and_the_file(
        self, tmp_path, field, written, spelling, value
    ):
        save_checkpoint(self.randomized_model(), tmp_path)
        manifest = tmp_path / "config.json"
        text = manifest.read_text()
        assert f'"{field}": {written},' in text
        manifest.write_text(text.replace(f'"{field}": {written},', f'"{field}": {spelling},'))
        want = f"^{re.escape(f'{manifest}: {field} must be ')}.*got {value}$"
        with pytest.raises(ConfigurationError, match=want):
            load_checkpoint(tmp_path)

    def test_negative_seed_names_the_file(self, tmp_path):
        save_checkpoint(self.randomized_model(), tmp_path)
        manifest = tmp_path / "config.json"
        text = manifest.read_text()
        assert '"seed": 3,' in text
        manifest.write_text(text.replace('"seed": 3,', '"seed": -1,'))
        want = re.escape(f"{manifest}: seed must be non-negative, got -1")
        with pytest.raises(ConfigurationError, match=want):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "inf"])
    def test_non_finite_tensor_names_the_file_and_index(self, tmp_path, bad):
        save_checkpoint(self.randomized_model(), tmp_path)
        path = tmp_path / "backbone.conv1.weight.npy"
        value = np.load(path)
        value.reshape(-1)[[5, 9]] = bad
        np.save(path, value)
        want = re.escape(f"{path}: non-finite value at flat index 5")
        with pytest.raises(DataError, match=want):
            load_checkpoint(tmp_path)

    def test_ablated_model_round_trips(self, tmp_path, monkeypatch):
        config = ModelConfig.tiny(seed=3, disable_graph=True)
        model = self.randomized_model(config)
        x = T.Tensor(np.random.default_rng(5).standard_normal((2, 1, 64, 32)))
        save_checkpoint(model, tmp_path)
        assert '"disable_graph": true\n' in (tmp_path / "config.json").read_text()
        fusions = count_calls(monkeypatch, AttentionFusion, "forward")
        loaded = load_checkpoint(tmp_path)
        assert loaded.config == config and loaded.config.disable_graph
        assert loaded.registry.names() == model.registry.names()
        with T.no_grad():
            want, got = model.forward(x).data, loaded.forward(x).data
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert fusions == []


class TestDeterminism:
    def test_two_runs_give_identical_losses(self):
        config = ModelConfig.tiny(seed=5, epochs=2)
        dataset = synth_splits("audio", 4, 16, 0, seed=5)
        _, first = train(config, dataset)
        _, second = train(config, dataset)
        assert len(first.losses) == 2
        assert np.all(np.isfinite(first.losses))
        assert first.losses == second.losses
