"""Model assembly, SGD training, evaluation, and synthetic datasets.

The classifier concatenates the flattened graph-convolution features of both
scene graphs with the backbone's pooled embedding and applies a single
affine layer. With ``ModelConfig.disable_graph`` the model builds no fusion
and no graph convolution, and the classifier input is the embedding alone.
The graph stage is split between per-sample and batched work. Node
selection, the gather of node features and the propagation matrices stay
per sample (``build_scene_graphs`` on ``slice_batch`` and
``propagation_matrix``), because the benchmark counts those calls per
sample. Their [1,K,C] node features and [K,K] matrices are then stacked into
[N,K,C] and [N,K,K], so each graph's convolution is one ``gcn_layer`` over
the batch, followed by one ``graph_readout``. The edge set is the constant
``edge_mask(k)`` of ``graphs.py``: only the selected node positions, and so
the edge weights, vary from sample to sample. Training is plain SGD
with momentum and a step learning-rate schedule; everything is deterministic
given the config seed.

A model computes in the dtype of its parameters. ``SceneModel.build`` makes
a float32 registry unless given one; the input is cast to the registry's
dtype at the model boundary (``SceneModel.features``), and the loss is
reduced in float64. A ``ParamRegistry`` built without a dtype is float64,
which gradient checks and exact reference tests use.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .backbone import (
    Backbone,
    BackboneConfig,
    build_backbone,
    he_uniform,
)
from .errors import ConfigurationError, DataError, NumericError
from .fusion import AttentionFusion
from .gcn import gcn_layer, graph_readout, propagation_matrix
from .graphs import build_scene_graphs
from .tensor import (
    ParamRegistry,
    Tensor,
    cast,
    concat,
    linear,
    no_grad,
    read_agt1,
    slice_batch,
    softmax_cross_entropy,
    softmax_probs,
    write_agt1,
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
        if self.epochs < 1 or self.batch_size < 1 or self.lr_decay_every < 1:
            raise ConfigurationError(
                "epochs, batch_size and lr_decay_every must be positive"
            )
        for name, value in (("lr0", self.lr0), ("lr_decay_factor", self.lr_decay_factor)):
            if not 0 < value < np.inf:
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")
        if not 0 <= self.momentum < 1:
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def tiny(
        cls,
        num_classes: int = 4,
        modality: str = "audio",
        k_nodes: int = 8,
        seed: int = 0,
        **overrides,
    ) -> "ModelConfig":
        return cls(
            backbone=BackboneConfig.tiny(_in_channels(modality)),
            num_classes=num_classes,
            k_nodes=k_nodes,
            gcn_out_channels=overrides.pop("gcn_out_channels", 8),
            seed=seed,
            **overrides,
        )

    @classmethod
    def full(
        cls, num_classes: int, modality: str = "visual", seed: int = 0, **overrides
    ) -> "ModelConfig":
        return cls(
            backbone=BackboneConfig.full(_in_channels(modality)),
            num_classes=num_classes,
            seed=seed,
            **overrides,
        )


def lr_schedule(epoch: int, lr0: float, decay_factor: float, decay_every: int) -> float:
    """Step schedule: lr0 / decay_factor^(epoch // decay_every)."""
    if epoch < 0:
        raise ConfigurationError(f"epoch must be non-negative, got {epoch}")
    return lr0 / decay_factor ** (epoch // decay_every)


class SceneModel:
    """Backbone -> fusion -> scene graphs -> graph convolution -> affine head."""

    def __init__(self, config: ModelConfig, registry: ParamRegistry):
        self.config = config
        self.registry = registry
        self.backbone: Backbone | None = None
        self.fusion: AttentionFusion | None = None
        self.thetas: dict = {}
        self.head_weight: Tensor | None = None
        self.head_bias: Tensor | None = None

    @classmethod
    def build(cls, config: ModelConfig, registry: ParamRegistry | None = None) -> "SceneModel":
        """Register every parameter, deterministically from ``config.seed``.

        Without a ``registry`` the model gets a float32 one and computes in
        float32; pass ``ParamRegistry(np.float64)`` for float64 compute.
        """
        registry = registry if registry is not None else ParamRegistry(np.float32)
        rng = np.random.default_rng(config.seed)
        model = cls(config, registry)
        c4, c5 = config.backbone.stage_channels[3], config.backbone.stage_channels[4]
        model.backbone = build_backbone(config.backbone, rng, registry)
        if not config.disable_graph:
            model.fusion = AttentionFusion(registry, c4, c5, rng)
            for branch in ("sag", "cag"):
                # Node features are top-intensity cells, several times the
                # typical activation scale; a plain fan-in init makes the first
                # SGD steps large enough to kill the ReLU backbone.
                model.thetas[branch] = registry.register(
                    f"gcn.{branch}.theta",
                    he_uniform(rng, (config.gcn_out_channels, c4), c4) * 0.25,
                )
        # Zero head: logits start at 0, so the first updates are gentle
        # regardless of the graph features' scale.
        model.head_weight = registry.register(
            "head.weight", np.zeros((config.num_classes, model.feature_width))
        )
        model.head_bias = registry.register("head.bias", np.zeros(config.num_classes))
        return model

    @property
    def feature_width(self) -> int:
        cfg = self.config
        c5 = cfg.backbone.stage_channels[4]
        return c5 if cfg.disable_graph else 2 * cfg.k_nodes * cfg.gcn_out_channels + c5

    def features(self, x: Tensor):
        """Classifier input [N, feature_width]; also returns per-sample graphs.

        The input is [N, 2*K*C_gcn + C5], the graph readout next to the
        backbone embedding, or, with ``disable_graph``, the [N, C5] embedding
        alone and no graphs. x is cast to the registry's dtype first.
        """
        pyramid = self.backbone.forward(cast(x, self.registry.dtype))
        if self.config.disable_graph:
            return pyramid.embedding, []
        f_ffr = self.fusion.forward(pyramid.f_m4, pyramid.f_m5)
        graphs = [
            build_scene_graphs(slice_batch(f_ffr, i), self.config.k_nodes)
            for i in range(x.data.shape[0])
        ]
        outputs = []
        for b, branch in enumerate(("sag", "cag")):
            batch = [pair[b] for pair in graphs]
            outputs.append(
                gcn_layer(
                    concat([g.node_features for g in batch], axis=0),
                    np.stack([propagation_matrix(g.adjacency) for g in batch]),
                    self.thetas[branch],
                )
            )
        return concat([graph_readout(*outputs), pyramid.embedding], axis=1), graphs

    def forward(self, x: Tensor) -> Tensor:
        feats, _ = self.features(x)
        return linear(feats, self.head_weight, self.head_bias)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class SGD:
    """Classic momentum: v <- m*v + g; w <- w - lr*v. Velocity starts at zero."""

    def __init__(self, registry: ParamRegistry, momentum: float = 0.9):
        self.registry = registry
        self.momentum = momentum
        self.velocity = {name: np.zeros_like(p.data) for name, p in registry.items()}

    def step(self, lr: float) -> None:
        if lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {lr}")
        grads = {}
        for name, p in self.registry.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for {name}; step aborted")
            grads[name] = g
        for name, p in self.registry.items():
            v = self.velocity[name]
            v *= self.momentum
            v += grads[name]
            p.data -= lr * v


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
    region does. visual: a striped texture in a class-dependent quadrant
    with class-dependent stripe frequency.
    """
    if kind not in ("audio", "visual"):
        raise ConfigurationError(f"unknown synthetic kind {kind!r}")
    if not 2 <= classes <= 8:
        raise ConfigurationError(f"classes must be in [2, 8], got {classes}")
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
    ((0, 0), (0, 1)),  # repeats shifted brighter/dimmer for class counts > 4
    ((0, 0), (1, 0)),
    ((0, 0), (1, 1)),
    ((0, 1), (1, 0)),
)


def _synth_audio(rng, label, classes, height, width, n_distractors=6):
    # 8x4 slot grid. Every patch is a 2x2-slot block with two bright cells;
    # the class is the pair layout of the loudest block. Distractor blocks
    # share the layout pool and the energy budget, so pooled statistics are
    # ambiguous; within-sample amplitude ranking identifies the target.
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
        return None

    def stamp(block, kind, amp):
        r, c = block
        uneven = kind >= 4  # second tier: same layouts, lopsided brightness
        for cell_index, (dr, dc) in enumerate(_PAIR_LAYOUTS[kind]):
            rr, cc = (r + dr) * slot_h, (c + dc) * slot_w
            gain = amp * (0.6 if uneven and cell_index else 1.0)
            x[rr : rr + slot_h, cc : cc + slot_w] += gain * rng.uniform(
                0.97, 1.03, size=(slot_h, slot_w)
            )

    stamp(place_block(), label, target_amp)
    for _ in range(n_distractors):
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
    **dims,
) -> Dataset:
    return Dataset(
        train=synth_dataset(kind, classes, n_train, seed, **dims),
        test=synth_dataset(kind, classes, n_test, seed + 1, **dims),
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
    test_accuracy: float


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)
    confusion: np.ndarray | None = None

    @property
    def final_test_accuracy(self) -> float:
        return self.epochs[-1].test_accuracy if self.epochs else 0.0

    @property
    def losses(self) -> list:
        return [e.loss for e in self.epochs]


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray


def _check_labels(examples, num_classes: int, split: str) -> None:
    """Raise DataError naming the split and index of the first bad label."""
    for i, example in enumerate(examples):
        if not 0 <= example.label < num_classes:
            raise DataError(
                f"{split} example {i}: label {example.label} "
                f"out of range [0, {num_classes})"
            )


def evaluate(model: SceneModel, examples, batch_size: int = 8) -> EvalResult:
    """Accuracy and confusion matrix; confusion[i][j] counts true i predicted j."""
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
    if not examples:
        raise DataError("cannot evaluate an empty dataset")
    classes = model.config.num_classes
    _check_labels(examples, classes, "evaluation")
    confusion = np.zeros((classes, classes), dtype=np.int64)
    with no_grad():
        for start in range(0, len(examples), batch_size):
            batch = examples[start : start + batch_size]
            x = Tensor(np.stack([e.x for e in batch]))
            logits = model.forward(x)
            preds = np.argmax(softmax_probs(logits), axis=1)
            for example, pred in zip(batch, preds):
                confusion[example.label, pred] += 1
    accuracy = float(np.trace(confusion)) / len(examples)
    return EvalResult(accuracy=accuracy, confusion=confusion)


@np.errstate(all="ignore")
def train(config: ModelConfig, dataset: Dataset, progress=None):
    """Train a fresh model on dataset.train, tracking test accuracy per epoch.

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
    _check_labels(dataset.train, config.num_classes, "train")
    _check_labels(dataset.test, config.num_classes, "test")
    model = SceneModel.build(config)
    optimizer = SGD(model.registry, momentum=config.momentum)
    shuffle_rng = np.random.default_rng(config.seed + 0x5EED)
    report = TrainReport()
    n_train = len(dataset.train)
    for epoch in range(config.epochs):
        lr = lr_schedule(
            epoch, config.lr0, config.lr_decay_factor, config.lr_decay_every
        )
        order = shuffle_rng.permutation(n_train)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n_train, config.batch_size):
            batch = [dataset.train[i] for i in order[start : start + config.batch_size]]
            x = Tensor(np.stack([e.x for e in batch]))
            labels = np.array([e.label for e in batch])
            # Zeroed before the forward: the last step's gradients would
            # otherwise sit in memory next to the new tape.
            model.registry.zero_grad()
            logits = model.forward(x)
            loss = softmax_cross_entropy(logits, labels)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"loss diverged at epoch {epoch}")
            loss.backward()
            optimizer.step(lr)
            loss_sum += value * len(batch)
            correct += int(
                (np.argmax(softmax_probs(logits), axis=1) == labels).sum()
            )
        tested = evaluate(model, dataset.test, config.batch_size) if dataset.test else None
        stats = EpochStats(
            epoch=epoch,
            lr=lr,
            loss=loss_sum / n_train,
            train_accuracy=correct / n_train,
            test_accuracy=tested.accuracy if tested else 0.0,
        )
        report.epochs.append(stats)
        if progress is not None:
            progress(stats)
    report.confusion = (tested or evaluate(model, dataset.train, config.batch_size)).confusion
    return model, report


# ---------------------------------------------------------------------------
# checkpoints and flat config text
# ---------------------------------------------------------------------------

CONFIG_FILENAME = "config.txt"


# The ModelConfig fields keyed ``train.<name>`` rather than ``model.<name>``.
TRAIN_FIELDS = (
    "lr0", "momentum", "lr_decay_factor", "lr_decay_every", "epochs", "batch_size"
)
# Keys of removed ModelConfig fields, which earlier manifests still carry.
RETIRED_KEYS = ("model.gcn_layers", "model.allow_any_k", "model.modality")
_PARSERS = {
    "bool": lambda text: bool(("False", "True").index(text)),
    "int": int,
    "float": float,
    "str": str,
    "list[int]": lambda text: [int(v) for v in text.split(",")],
}


def _keyed_fields(cls):
    """(key, field) for each field of cls except ModelConfig.backbone."""
    for f in fields(cls):
        if cls is BackboneConfig:
            yield f"backbone.{f.name}", f
        elif f.name != "backbone":
            yield f"{'train' if f.name in TRAIN_FIELDS else 'model'}.{f.name}", f


def config_to_flat(config: ModelConfig) -> dict:
    """Each field of ``config`` and its backbone as text, keyed by ``_keyed_fields``."""
    flat = {}
    for obj in (config, config.backbone):
        for key, f in _keyed_fields(type(obj)):
            v = getattr(obj, f.name)
            flat[key] = ",".join(map(str, v)) if f.type == "list[int]" else str(v)
    return flat


def config_from_flat(flat: dict) -> ModelConfig:
    """Inverse of ``config_to_flat``: each value is parsed by its field's type.

    A missing key takes its field's dataclass default, and ``RETIRED_KEYS``
    are ignored. Any other unknown key, a missing key with no default, or a
    value that does not parse raises ConfigurationError naming the key.
    """
    known = {key for cls in (ModelConfig, BackboneConfig) for key, _ in _keyed_fields(cls)}
    for key in flat:
        if key not in known and key not in RETIRED_KEYS:
            raise ConfigurationError(f"unknown config key {key}")

    def build(cls, **given):
        for key, f in _keyed_fields(cls):
            if key in flat:
                try:
                    given[f.name] = _PARSERS[f.type](flat[key])
                except ValueError:
                    bad = f"config key {key}: cannot parse {flat[key]!r} as {f.type}"
                    raise ConfigurationError(bad) from None
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigurationError(f"missing config key {key}")
        return cls(**given)

    return build(ModelConfig, backbone=build(BackboneConfig))


def parse_config_text(text: str) -> dict:
    """`key = value` lines, each key once; blank lines and #-comments are skipped."""
    flat, seen = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected `key = value`")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in flat:
            raise ConfigurationError(f"line {lineno}: {key} repeats line {seen[key]}")
        flat[key], seen[key] = value, lineno
    return flat


def config_to_text(config: ModelConfig) -> str:
    return "".join(f"{k} = {v}\n" for k, v in config_to_flat(config).items())


def save_checkpoint(model: SceneModel, directory) -> None:
    """Directory of AGT1 tensors named by registry key, plus the config manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / CONFIG_FILENAME).write_text(
        config_to_text(model.config), encoding="utf-8"
    )
    for name, p in model.registry.items():
        write_agt1(directory / f"{name}.agt1", p.data)


def load_checkpoint(directory) -> SceneModel:
    """Rebuild the model from its config manifest and load every tensor.

    The model is float32, as ``SceneModel.build`` makes it, and AGT1 stores
    f32, so the weights of a float32 model come back bit for bit. Those of a
    model built with a float64 registry come back as the nearest f32, within
    a relative 2**-24. A missing, misshapen or non-finite tensor raises
    DataError naming it.
    """
    directory = Path(directory)
    manifest = directory / CONFIG_FILENAME
    if not manifest.is_file():
        raise DataError(f"{directory}: missing {CONFIG_FILENAME}")
    try:
        config = config_from_flat(parse_config_text(manifest.read_text("utf-8")))
    except (ConfigurationError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{manifest}: {exc}") from exc
    model = SceneModel.build(config)
    for name, p in model.registry.items():
        path = directory / f"{name}.agt1"
        if not path.is_file():
            raise DataError(f"{directory}: missing tensor {name}")
        value = read_agt1(path)
        if value.shape != p.data.shape:
            raise DataError(
                f"{name}: checkpoint shape {value.shape} != model shape {p.data.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(value))
        if bad.size:
            raise DataError(f"{path}: non-finite value at flat index {bad[0]}")
        p.data[...] = value
    return model
