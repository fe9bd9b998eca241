"""Model assembly, SGD training, evaluation, and synthetic datasets.

The classifier concatenates the flattened graph-convolution features of both
scene graphs with the backbone's pooled embedding and applies a single
affine layer. With ``ModelConfig.disable_graph`` the model builds no fusion
and no graph convolution, and the classifier input is the embedding alone.
The graph stage is split between per-sample and batched work. Node
selection, the gather of node features and the propagation matrices stay
per sample (``build_scene_graphs`` on ``slice_batch`` and
``propagation_matrix``), because the benchmark counts those calls per
sample. A graph is passed on as its node positions, one row of the [2,K]
index array ``build_scene_graphs`` returns: the edge set is the constant
``edge_mask(k)`` of ``graphs.py``, so the positions fix the edge weights.
The [1,K,C] node features and [K,K] matrices are stacked into [N,K,C] and
[N,K,K], so each graph's convolution is one ``gcn_layer`` over the batch,
followed by one ``graph_readout``. Training is plain SGD
with momentum and a step learning-rate schedule; everything is deterministic
given the config seed.

A model computes in the dtype of its parameters. ``SceneModel.build`` makes
the program's model, on a float32 registry; the constructor takes any
registry, and gradient checks and exact reference tests pass a float64 one.
The input is cast to the registry's dtype at the model boundary
(``SceneModel.features``), and the loss is reduced in float64.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .backbone import Backbone, BackboneConfig, check_field_types, feature_map_dims, he_uniform
from .errors import ConfigurationError, DataError, NumericError, is_int
from .fusion import AttentionFusion
from .gcn import gcn_layer, graph_readout
from .graphs import build_scene_graphs, propagation_matrix, validate_k
from .tensor import (
    ParamRegistry,
    Tensor,
    cast,
    concat,
    linear,
    no_grad,
    slice_batch,
    softmax_cross_entropy,
)

# Input channels per modality: a log-Mel spectrogram or an RGB image.
MODALITY_CHANNELS = {"audio": 1, "visual": 3}


def _in_channels(modality: str) -> int:
    if modality not in MODALITY_CHANNELS:
        raise ConfigurationError(
            f"modality must be one of {tuple(MODALITY_CHANNELS)}, got {modality!r}"
        )
    return MODALITY_CHANNELS[modality]


@dataclass
class ModelConfig:
    backbone: BackboneConfig
    num_classes: int
    k_nodes: int = 20
    gcn_out_channels: int = 256
    lr0: float = 0.01
    momentum: float = 0.9
    lr_decay_factor: float = 10.0
    lr_decay_every: int = 20
    epochs: int = 60
    batch_size: int = 8
    seed: int = 0
    disable_graph: bool = False

    def __post_init__(self):
        check_field_types(self)
        if self.num_classes < 2:
            raise ConfigurationError(f"need at least 2 classes, got {self.num_classes}")
        if self.k_nodes % 4 or self.k_nodes < 4:
            raise ConfigurationError(
                f"k_nodes must be a positive multiple of 4, got {self.k_nodes}"
            )
        if self.gcn_out_channels < 1:
            raise ConfigurationError(
                f"gcn_out_channels must be positive, got {self.gcn_out_channels}"
            )
        for name in ("epochs", "batch_size", "lr_decay_every"):
            if (value := getattr(self, name)) < 1:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        for name, value in (("lr0", self.lr0), ("lr_decay_factor", self.lr_decay_factor)):
            if not 0 < value < np.inf:
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")
        if not 0 <= self.momentum < 1:
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        # lr_schedule is monotone in the epoch, so the last epoch's lr bounds them all.
        try:
            last = lr_schedule(self, self.epochs - 1)
        except OverflowError:  # the divisor overflows: the lr is 0
            last = 0.0
        except ZeroDivisionError:  # the divisor underflows: the lr is infinite
            last = np.inf
        if not 0 < last < np.inf:
            raise ConfigurationError(
                f"lr0={self.lr0} / lr_decay_factor={self.lr_decay_factor} ** "
                f"((epochs={self.epochs} - 1) // lr_decay_every={self.lr_decay_every}) "
                f"gives the last epoch an lr of {last}, not finite and positive"
            )

    @classmethod
    def tiny(cls, num_classes: int = 4, modality: str = "audio", **overrides) -> "ModelConfig":
        return cls(
            backbone=BackboneConfig.tiny(_in_channels(modality)),
            num_classes=num_classes,
            **{"k_nodes": 8, "gcn_out_channels": 8, **overrides},
        )

    @classmethod
    def full(cls, num_classes: int, modality: str = "visual", **overrides) -> "ModelConfig":
        return cls(
            backbone=BackboneConfig.full(_in_channels(modality)),
            num_classes=num_classes,
            **overrides,
        )


def lr_schedule(config: ModelConfig, epoch: int) -> float:
    """Step schedule: lr0 / lr_decay_factor^(epoch // lr_decay_every)."""
    if epoch < 0:
        raise ConfigurationError(f"epoch must be non-negative, got {epoch}")
    return config.lr0 / config.lr_decay_factor ** (epoch // config.lr_decay_every)


class SceneModel:
    """Backbone -> fusion -> scene graphs -> graph convolution -> affine head."""

    def __init__(self, config: ModelConfig, registry: ParamRegistry):
        """Register every parameter in ``registry``, deterministically from ``config.seed``.

        The model computes in the registry's dtype. With ``disable_graph`` it
        has no fusion (``None``) and no thetas.
        """
        self.config = config
        self.registry = registry
        rng = np.random.default_rng(config.seed)
        c4, c5 = config.backbone.stage_channels[3:]
        graph = not config.disable_graph
        self.backbone = Backbone(config.backbone, rng, registry)
        self.fusion = AttentionFusion(registry, c4, c5, rng) if graph else None
        # Node features are top-intensity cells, several times the typical
        # activation scale; a plain fan-in init makes the first SGD steps
        # large enough to kill the ReLU backbone.
        self.thetas = {
            branch: registry.register(
                f"gcn.{branch}.theta",
                he_uniform(rng, (config.gcn_out_channels, c4), c4) * 0.25,
            )
            for branch in ("sag", "cag")
            if graph
        }
        # Zero head: logits start at 0, so the first updates are gentle
        # regardless of the graph features' scale.
        self.head_weight = registry.register(
            "head.weight", np.zeros((config.num_classes, self.feature_width))
        )
        self.head_bias = registry.register("head.bias", np.zeros(config.num_classes))

    @classmethod
    def build(cls, config: ModelConfig) -> "SceneModel":
        """The program's model: float32 parameters, so float32 compute."""
        return cls(config, ParamRegistry(np.float32))

    @property
    def feature_width(self) -> int:
        cfg = self.config
        c5 = cfg.backbone.stage_channels[4]
        return c5 if cfg.disable_graph else 2 * cfg.k_nodes * cfg.gcn_out_channels + c5

    def features(self, x: Tensor):
        """Classifier input [N, feature_width] and the graphs' node positions.

        The input is [N, 2*K*C_gcn + C5], the graph readout next to the
        backbone embedding, or, with ``disable_graph``, the [N, C5] embedding
        alone. The positions are the int64 [N,2,K] flat indices into the
        fused map's H*W grid, salient row first, as ``build_scene_graphs``
        returns them per sample; ``None`` with ``disable_graph``. x is cast
        to the registry's dtype first.

        An empty input (a zero-sized axis) fails here, before the backbone
        runs. So does, for a graph model, an input whose stage-4 map does
        not hold the 3*k_nodes cells ``validate_k`` needs. An ablated model
        takes any H, W >= 1.
        """
        if x.data.ndim == 4:  # other ranks fail in the backbone
            if 0 in x.data.shape:
                raise ConfigurationError(f"input of shape {x.data.shape} is empty")
            if not self.config.disable_graph:
                h, w = x.data.shape[2:]
                (h4, w4), _ = feature_map_dims(h, w)
                try:
                    validate_k(self.config.k_nodes, h4 * w4)
                except ConfigurationError as exc:
                    raise ConfigurationError(
                        f"input {h}x{w} gives a {h4}x{w4} stage-4 map, too small for "
                        f"k_nodes={self.config.k_nodes}: {exc}"
                    ) from None
        pyramid = self.backbone.forward(cast(x, self.registry.dtype))
        if self.config.disable_graph:
            return pyramid.embedding, None
        f_ffr = self.fusion.forward(pyramid.f_m4, pyramid.f_m5)
        k, (n, _, _, w) = self.config.k_nodes, f_ffr.data.shape
        nodes, indices = zip(*(build_scene_graphs(slice_batch(f_ffr, i), k) for i in range(n)))
        outputs = [
            gcn_layer(
                concat([pair[b] for pair in nodes], axis=0),
                np.stack([propagation_matrix(idx[b], w) for idx in indices]),
                self.thetas[branch],
            )
            for b, branch in enumerate(("sag", "cag"))
        ]
        feats = concat([graph_readout(*outputs), pyramid.embedding], axis=1)
        return feats, np.stack(indices)

    def forward(self, x: Tensor) -> Tensor:
        feats, _ = self.features(x)
        return linear(feats, self.head_weight, self.head_bias)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


# Elements per block of the momentum update: in float32 the blocks of v, g
# and w and the lr·v scratch take 1 MiB together, so they stay in L2 cache
# across the update's four passes, where a whole parameter of up to 9.4 MB
# does not.
_SGD_BLOCK = 1 << 16


class SGD:
    """Classic momentum: v <- m*v + g; w <- w - lr*v.

    Each velocity starts as C-contiguous zeros of its parameter's shape and
    dtype, so ``reshape(-1)`` is a view the update writes through. It comes
    from ``np.zeros``, which for a large parameter maps pages the OS zeroes
    when first touched, rather than from a pass that writes every element.

    ``step`` first checks the lr and every gradient, so a bad lr or a
    gradient that is not finite or not of its parameter's shape aborts the
    step before any parameter, velocity or gradient changes: every ``grad``
    is still the same array with the same values. The finiteness check is
    one dot product g·g per parameter; only when that is not finite, which a
    finite float32 gradient whose squares overflow can also cause, are the
    elements checked one by one. A missing gradient counts as zero. The
    update then runs over blocks of ``_SGD_BLOCK`` elements of each
    flattened parameter, with lr·v in one preallocated scratch block, so the
    passes over a block stay in cache. Each element sees the same operations
    in the same order as in whole-array passes, so the result is the same
    bit for bit.

    A step uses up the gradients it applies, as ``backward()`` uses up the
    tape: each parameter's ``grad`` is set to None once its update is done.
    So the next forward runs without them, and the next backward starts
    from none without a ``zero_grad``.
    """

    def __init__(self, registry: ParamRegistry, momentum: float):
        self.registry = registry
        self.momentum = momentum
        self.velocity = {name: np.zeros(p.data.shape, p.data.dtype) for name, p in registry.items()}
        self._scratch = np.empty(_SGD_BLOCK, dtype=registry.dtype)

    def step(self, lr: float) -> None:
        if not 0 < lr < np.inf:
            raise ConfigurationError(f"lr must be finite and positive, got {lr}")
        grads = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for name, p in self.registry.items():
                g = p.grad if p.grad is not None else np.zeros_like(p.data)
                if g.shape != p.data.shape:
                    raise ConfigurationError(
                        f"gradient for {name} has shape {g.shape}, its parameter "
                        f"{p.data.shape}; step aborted"
                    )
                flat = g.reshape(-1)
                if not np.isfinite(np.dot(flat, flat)) and not np.all(np.isfinite(flat)):
                    raise NumericError(f"non-finite gradient for {name}; step aborted")
                grads[name] = flat
        for name, p in self.registry.items():
            v, g, w = self.velocity[name].reshape(-1), grads.pop(name), p.data.reshape(-1)
            for lo in range(0, w.size, _SGD_BLOCK):
                block = slice(lo, lo + _SGD_BLOCK)
                vb = v[block]
                vb *= self.momentum
                vb += g[block]
                w[block] -= np.multiply(lr, vb, out=self._scratch[: vb.size])
            p.grad = None


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass
class Example:
    x: np.ndarray  # [C, H, W]
    label: int


@dataclass
class Dataset:
    train: list
    test: list


def _check_counts(**counts) -> None:
    """Raise ConfigurationError naming the first count that is not an integer >= 0."""
    for name, value in counts.items():
        if not is_int(value) or value < 0:
            raise ConfigurationError(f"{name} must be a non-negative integer, got {value!r}")


def synth_dataset(
    kind: str,
    classes: int,
    n: int,
    seed: int,
    height: int = 64,
    width: int = 32,
) -> list:
    """Deterministic synthetic scenes, balanced round-robin over classes.

    audio: the scene is a field of textured patches and the class is the
    texture of the single loudest patch. Patch amplitudes overlap across
    samples (only the within-sample ranking identifies the target) and every
    texture appears among the distractors, so neither a fixed threshold nor
    pooled per-texture energy separates the classes; picking the strongest
    region does. Each audio example tries 6 distractor blocks, but at most 8
    blocks fit its 8x4 slot grid and a block that finds no free place is
    skipped: on tiny_train's splits (seed 1) 229 of 864 are, leaving 4.4
    distractors per example. visual: a striped texture in a class-dependent
    quadrant with class-dependent stripe frequency.
    """
    _check_counts(classes=classes, n=n, seed=seed, height=height, width=width)
    if kind not in ("audio", "visual"):
        raise ConfigurationError(f"unknown synthetic kind {kind!r}")
    if not 2 <= classes <= 8:
        raise ConfigurationError(f"classes must be in [2, 8], got {classes}")
    # Audio slots are height//8 by width//4 and the visual target is one
    # quadrant: a smaller input leaves the target empty, and its label unseen.
    least = {"audio": (8, 4), "visual": (2, 2)}[kind]
    for name, value, low in zip(("height", "width"), (height, width), least):
        if value < low:
            raise ConfigurationError(
                f"{kind} {name} must be >= {low} to hold the target, got {value}"
            )
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        label = i % classes
        if kind == "audio":
            x = _synth_audio(rng, label, classes, height, width)
        else:
            x = _synth_visual(rng, label, classes, height, width)
        examples.append(Example(x=x, label=label))
    return examples


# Bright-cell layouts inside a 2x2-slot block, as (dr, dc) offsets. Every
# layout lights exactly two cells, so total and peak energy are
# class-independent; only the pair's spatial arrangement differs.
_PAIR_LAYOUTS = (
    ((0, 0), (0, 1)),  # horizontal
    ((0, 0), (1, 0)),  # vertical
    ((0, 0), (1, 1)),  # diagonal
    ((0, 1), (1, 0)),  # anti-diagonal
)
# Distractor placements per example. At most 8 non-overlapping blocks fit the
# 8x4 slot grid and a placement that finds no free block is skipped, so fewer
# land: of the 864 on tiny_train's seed-1 splits (144 examples), 213 find the
# grid full and 16 miss its free blocks in every try, 4.4 distractors per
# example.
_DISTRACTORS = 6
_PLACE_TRIES = 40
# The bounds of one placement's tries: a row draw in [0, 7), then a column
# draw in [0, 3), alternating. One ``integers`` call over these bounds
# consumes the same bits as one scalar call per bound.
_PLACE_BOUNDS = np.array([7, 3] * _PLACE_TRIES)


def _synth_audio(rng, label, classes, height, width):
    # 8x4 slot grid. Every patch is a 2x2-slot block with two bright cells;
    # the class is the pair layout of the loudest block. Distractor blocks
    # share the layout pool and the energy budget, so pooled statistics are
    # ambiguous; within-sample amplitude ranking identifies the target.
    slot_h, slot_w = height // 8, width // 4
    x = rng.uniform(0.0, 0.35, size=(height, width))
    target_amp = rng.uniform(1.9, 3.1)
    occupied = np.zeros((8, 4), dtype=bool)

    def place_block():
        # Up to _PLACE_TRIES uniform (row, col) draws for a free 2x2 block;
        # taken[r, c] is the test each try makes. When every block is taken
        # every try fails, so one call consumes the draws the tries would.
        taken = occupied[:-1, :-1] | occupied[1:, :-1] | occupied[:-1, 1:] | occupied[1:, 1:]
        if taken.all():
            rng.integers(0, _PLACE_BOUNDS)
            return None
        for _ in range(_PLACE_TRIES):
            r = int(rng.integers(0, 7))
            c = int(rng.integers(0, 3))
            if not taken[r, c]:
                occupied[r : r + 2, c : c + 2] = True
                return r, c
        return None

    def stamp(block, kind, amp):
        r, c = block
        uneven = kind >= 4  # second tier: same layouts, lopsided brightness
        for cell_index, (dr, dc) in enumerate(_PAIR_LAYOUTS[kind % 4]):
            rr, cc = (r + dr) * slot_h, (c + dc) * slot_w
            gain = amp * (0.6 if uneven and cell_index else 1.0)
            x[rr : rr + slot_h, cc : cc + slot_w] += gain * rng.uniform(
                0.97, 1.03, size=(slot_h, slot_w)
            )

    stamp(place_block(), label, target_amp)
    for _ in range(_DISTRACTORS):
        block = place_block()
        if block is None:
            continue
        stamp(block, int(rng.integers(0, classes)), rng.uniform(1.0, target_amp - 0.8))
    return x[None, :, :]


def _synth_visual(rng, label, classes, height, width):
    quadrant = label % 4
    cycles = 3.0 if label < 4 else 6.0
    y0 = 0 if quadrant in (0, 1) else height // 2
    x0 = 0 if quadrant in (0, 2) else width // 2
    phase = rng.uniform(0.0, 2.0 * np.pi)
    yy = np.arange(height)[:, None]
    x = rng.uniform(0.0, 0.35, size=(3, height, width))
    stripes = 0.5 * (1.0 + np.sin(2.0 * np.pi * cycles * yy / height + phase))
    patch = np.broadcast_to(stripes, (height, width)).copy()
    patch *= rng.uniform(0.6, 1.0, size=(height, width))
    x[:, y0 : y0 + height // 2, x0 : x0 + width // 2] += patch[
        None, y0 : y0 + height // 2, x0 : x0 + width // 2
    ]
    return np.clip(x, 0.0, 1.5)


def synth_splits(
    kind: str,
    classes: int,
    n_train: int,
    n_test: int,
    seed: int,
) -> Dataset:
    _check_counts(n_train=n_train, n_test=n_test)
    return Dataset(
        train=synth_dataset(kind, classes, n_train, seed),
        test=synth_dataset(kind, classes, n_test, seed + 1),
    )


# ---------------------------------------------------------------------------
# training and evaluation
# ---------------------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    lr: float
    loss: float
    train_accuracy: float
    test_accuracy: float | None  # None without a test split


@dataclass
class TrainReport:
    epochs: list
    confusion: np.ndarray

    @property
    def final_test_accuracy(self) -> float | None:
        return self.epochs[-1].test_accuracy

    @property
    def losses(self) -> list:
        return [e.loss for e in self.epochs]


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray


def _check_split(examples, num_classes: int, split: str) -> None:
    """Raise DataError naming the split and index of the first bad example.

    An example is bad when its label is not an integer (a bool is none) or is
    outside [0, num_classes), its x is not a numpy array of integers or
    floats, has another shape than the split's first example's, or is not all
    finite.
    """
    for i, example in enumerate(examples):
        if not is_int(example.label):
            raise DataError(f"{split} example {i}: label {example.label!r} is not an integer")
        if not 0 <= example.label < num_classes:
            raise DataError(
                f"{split} example {i}: label {example.label} "
                f"out of range [0, {num_classes})"
            )
        x = example.x
        if not isinstance(x, np.ndarray) or x.dtype.kind not in "iuf":
            got = f"dtype {x.dtype}" if isinstance(x, np.ndarray) else type(x).__name__
            raise DataError(
                f"{split} example {i}: x must be a numpy array of integers or floats, got {got}"
            )
        if x.shape != examples[0].x.shape:
            raise DataError(
                f"{split} example {i}: shape {x.shape} != {examples[0].x.shape} of example 0"
            )
        if not np.isfinite(x).all():
            raise DataError(f"{split} example {i}: non-finite value in x")


def evaluate(model: SceneModel, examples) -> EvalResult:
    """Accuracy and confusion matrix; confusion[i][j] counts true i predicted j.

    The examples go through the model in batches of ``config.batch_size``.
    """
    if not examples:
        raise DataError("cannot evaluate an empty dataset")
    classes = model.config.num_classes
    _check_split(examples, classes, "evaluation")
    confusion = np.zeros((classes, classes), dtype=np.int64)
    batch_size = model.config.batch_size
    with no_grad():
        for start in range(0, len(examples), batch_size):
            batch = examples[start : start + batch_size]
            x = Tensor(np.stack([e.x for e in batch]))
            preds = np.argmax(model.forward(x).data, axis=1)
            np.add.at(confusion, ([e.label for e in batch], preds), 1)
    accuracy = float(np.trace(confusion)) / len(examples)
    return EvalResult(accuracy=accuracy, confusion=confusion)


@np.errstate(all="ignore")
def train(config: ModelConfig, dataset: Dataset, progress=None):
    """Train a fresh model on dataset.train, tracking test accuracy per epoch.

    Without a test split, each epoch's test accuracy is None: nothing was measured.

    Returns (model, TrainReport). The report's confusion matrix is the last
    epoch's on the test split, or on the train split when there is no test
    split. Deterministic given config.seed: the shuffle sequence,
    initialization, and batch composition are all derived from it.

    numpy's floating-point warnings are off inside: a diverging run raises
    ``NumericError`` from the loss or gradient finiteness checks, not a
    ``RuntimeWarning`` (an exception under ``-W error``) from the op that
    first overflowed.
    """
    if not dataset.train:
        raise DataError("cannot train on an empty dataset")
    _check_split(dataset.train, config.num_classes, "train")
    _check_split(dataset.test, config.num_classes, "test")
    model = SceneModel.build(config)
    optimizer = SGD(model.registry, momentum=config.momentum)
    shuffle_rng = np.random.default_rng(config.seed + 0x5EED)
    history = []
    n_train = len(dataset.train)
    for epoch in range(config.epochs):
        lr = lr_schedule(config, epoch)
        order = shuffle_rng.permutation(n_train)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n_train, config.batch_size):
            batch = [dataset.train[i] for i in order[start : start + config.batch_size]]
            x = Tensor(np.stack([e.x for e in batch]))
            labels = np.array([e.label for e in batch])
            logits = model.forward(x)
            loss = softmax_cross_entropy(logits, labels)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"loss diverged at epoch {epoch}")
            loss.backward()
            optimizer.step(lr)
            loss_sum += value * len(batch)
            correct += int((np.argmax(logits.data, axis=1) == labels).sum())
        tested = evaluate(model, dataset.test) if dataset.test else None
        stats = EpochStats(
            epoch=epoch,
            lr=lr,
            loss=loss_sum / n_train,
            train_accuracy=correct / n_train,
            test_accuracy=tested.accuracy if tested else None,
        )
        history.append(stats)
        if progress is not None:
            progress(stats)
    confusion = (tested or evaluate(model, dataset.train)).confusion
    return model, TrainReport(epochs=history, confusion=confusion)


# ---------------------------------------------------------------------------
# checkpoints and the JSON config manifest
# ---------------------------------------------------------------------------

CONFIG_FILENAME = "config.json"


def config_to_text(config: ModelConfig) -> str:
    """The config as one JSON object of its fields, the backbone's nested."""
    return json.dumps(asdict(config), indent=2) + "\n"


class _JSONObject(dict):
    """A decoded JSON object; ``repeated`` is its first key that occurs twice, or None.

    The object hook of ``config_from_text``. The decoder calls it innermost
    first and gives it no path, so it records the repeat, and ``_members``,
    which knows where the object sits, names it.
    """

    def __init__(self, pairs):
        super().__init__()
        self.repeated = None
        for key, value in pairs:
            if key in self and self.repeated is None:
                self.repeated = key
            self[key] = value


def _members(obj, cls, prefix: str = "") -> dict:
    """The JSON object obj as keyword arguments of the dataclass cls.

    Raises ConfigurationError naming a repeated or unknown key, or a missing
    key without a default, as ``prefix + name``.
    """
    if not isinstance(obj, _JSONObject):
        where = f"config key {prefix[:-1]}" if prefix else "config"
        raise ConfigurationError(f"{where} must be a JSON object, got {obj!r}")
    if obj.repeated is not None:
        raise ConfigurationError(f"repeated config key {prefix}{obj.repeated}")
    names = {f.name: f for f in fields(cls)}
    for key in obj:
        if key not in names:
            raise ConfigurationError(f"unknown config key {prefix}{key}")
    for name, f in names.items():
        if name not in obj and f.default is MISSING:
            raise ConfigurationError(f"missing config key {prefix}{name}")
    return obj


def config_from_text(text: str) -> ModelConfig:
    """Inverse of ``config_to_text``; an absent key takes its field's default.

    Raises ConfigurationError naming the line and column of text that is not
    JSON, a key as ``_members`` does (a backbone key as ``backbone.<name>``),
    or a value its field rejects (a backbone value after ``config key
    backbone: ``).
    """
    try:
        top = json.loads(text, object_pairs_hook=_JSONObject)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    given = _members(top, ModelConfig)
    members = _members(given["backbone"], BackboneConfig, "backbone.")
    try:
        backbone = BackboneConfig(**members)
    except ConfigurationError as exc:
        raise ConfigurationError(f"config key backbone: {exc}") from None
    return ModelConfig(**{**given, "backbone": backbone})


def save_checkpoint(model: SceneModel, directory) -> None:
    """The config manifest plus one float32 ``<name>.npy`` per registry key."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / CONFIG_FILENAME).write_text(
        config_to_text(model.config), encoding="utf-8"
    )
    for name, p in model.registry.items():
        np.save(directory / f"{name}.npy", p.data.astype("<f4"))


def load_checkpoint(directory) -> SceneModel:
    """Rebuild the model from its config manifest and load every tensor.

    The model is float32, as ``SceneModel.build`` makes it, and the files
    hold f32, so the weights of a float32 model come back bit for bit. Those
    of a model constructed on a float64 registry come back as the nearest
    f32, within a relative 2**-24. A tensor file that is missing, is not a
    whole ``.npy`` file of little-endian float32, or holds the wrong shape or
    a non-finite value raises DataError naming the file, and so does a
    ``.npy`` file that no registered name owns: a model without that tensor
    would compute another function than the one saved.
    """
    directory = Path(directory)
    manifest = directory / CONFIG_FILENAME
    if not manifest.is_file():
        raise DataError(f"{directory}: missing {CONFIG_FILENAME}")
    try:
        config = config_from_text(manifest.read_text("utf-8"))
    except (ValueError, RecursionError) as exc:
        # Also text that is not UTF-8, an int of over 4300 digits, or nesting
        # deeper than the decoder's recursion limit.
        raise ConfigurationError(f"{manifest}: {exc}") from exc
    model = SceneModel.build(config)
    owned = {f"{name}.npy" for name in model.registry.names()}
    stray = sorted(f.name for f in directory.glob("*.npy") if f.name not in owned)
    if stray:
        raise DataError(f"{directory / stray[0]}: no tensor of this model has that name")
    for name, p in model.registry.items():
        path = directory / f"{name}.npy"
        if not path.is_file():
            raise DataError(f"{path}: missing tensor {name}")
        try:
            # Maps the payload without reading it, and only once the file is
            # as long as its header claims. Header dims whose product
            # overflows int64 raise a RuntimeWarning under -W error.
            value = np.lib.format.open_memmap(path, mode="r")
        except (OSError, ValueError, RuntimeWarning) as exc:
            raise DataError(f"{path}: not a .npy file: {exc}") from None
        if value.dtype != np.dtype("<f4"):
            raise DataError(f"{path}: dtype {value.dtype.str}, expected <f4")
        extra = path.stat().st_size - value.offset - value.nbytes
        if extra:
            raise DataError(f"{path}: {extra} bytes after the payload")
        if value.shape != p.data.shape:
            raise DataError(
                f"{path}: checkpoint shape {value.shape} != model shape {p.data.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(value))
        if bad.size:
            raise DataError(f"{path}: non-finite value at flat index {bad[0]}")
        p.data[...] = value
    return model
