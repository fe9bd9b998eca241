"""The benchmark's three workloads.

Each workload is one process with one caller in a closed loop: the next
operation starts when the previous one returns. A workload makes every input
from its seed (``make_inputs``), times operations for a given number of
seconds (``measure``), runs its output checks outside the timed region, and
gives a traced run (``measure_traced``) whose per-layer figures come from
``tracer.Tracer``. Package functions are looked up on their module at call
time (``M.train``, ``F.load_wav``) so that an installed tracer sees the call.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from avscene import frontend as F
from avscene import model as M
from avscene.backbone import he_uniform
from avscene.errors import ConfigurationError, DataError, NumericError
from avscene.tensor import Tensor, no_grad

from .tracer import Tracer

# What an operation may raise on bad input or a numeric fault; it then
# counts as failed and the run goes on.
OPERATION_ERRORS = (ConfigurationError, DataError, NumericError)
FEATURE_TOLERANCE = 1e-9


@dataclass
class Outcome:
    """What one measuring run saw."""

    step_s: list = field(default_factory=list)  # timed operations, seconds
    busy_s: float = 0.0  # wall time the timed work took
    samples: int = 0  # examples trained or clips served while timed
    attempted: int = 0
    failed: int = 0
    failed_checks: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # messages of failed operations
    digest: str = ""  # hash of the seed-determined predictions
    notes: dict = field(default_factory=dict)  # extra figures, name -> (value, unit)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed_checks.append(what)

    def fail(self, exc: Exception, operations: int = 1) -> None:
        self.failed += operations
        self.errors.append(f"{type(exc).__name__}: {exc}")

    @property
    def correct(self) -> bool:
        return not self.failed_checks and self.attempted > self.failed


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(a)))


def _traced_metrics(tracer: Tracer, traced: list, untraced: list, steps_per_op: int = 1) -> dict:
    """Per-layer metrics of traced operations that alternated with untraced ones.

    Alternating lets both sides see the same slices of a machine whose speed
    drifts; the overhead compares their medians.
    """
    metrics = tracer.metrics(steps_per_op * len(traced), sum(traced))
    base = statistics.median(untraced)
    overhead = (statistics.median(traced) - base) / base
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return metrics


@contextlib.contextmanager
def _tracemalloc():
    """Trace allocations; a tracer then records peaks at its top-level spans."""
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# tiny_train: the learning setting of the roadmap
# ---------------------------------------------------------------------------


class _AlternateEpochs:
    """``train`` progress callback that installs a tracer for every odd epoch.

    The even epochs are the untraced reference. Epoch 0 counts for neither
    side, because it also includes building the model.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.installed = contextlib.ExitStack()
        self.seconds = {True: [], False: []}  # traced? -> epoch times
        self.traced = False
        self.start = 0.0

    def __call__(self, stats) -> None:
        self.installed.close()
        if stats.epoch > 0:
            self.seconds[self.traced].append(time.perf_counter() - self.start)
        self.traced = stats.epoch % 2 == 0
        if self.traced:
            self.installed.enter_context(self.tracer.installed())
        self.start = time.perf_counter()


class TinyTrain:
    """``train`` on the tiny audio config and synthetic audio splits.

    Time goes to per-op Python and tape overhead, the per-sample graph and
    GCN loop, and small-conv backward. A run repeats the whole 30-epoch
    training on the same inputs; every repeat must reproduce the first.
    """

    def __init__(self, seed: int):
        self.seed = seed

    @staticmethod
    def make_inputs(seed: int):
        config = M.ModelConfig.tiny(
            modality="audio", k_nodes=8, epochs=30, lr_decay_every=12
        )
        return config, M.synth_splits("audio", 4, 96, 48, seed)

    def setup(self) -> None:
        self.config, self.dataset = self.make_inputs(self.seed)
        self.batches = -(-len(self.dataset.train) // self.config.batch_size)
        self.steps = self.config.epochs * self.batches
        self.test_x = Tensor(np.stack([e.x for e in self.dataset.test]))

    def _train(self, step_s=None, progress=None):
        """One ``train`` call; appends each SGD step's time to ``step_s``.

        A step runs from the end of the previous step, or of the previous
        epoch's evaluation, to the end of its ``SGD.step``.
        """
        if step_s is None:
            return M.train(self.config, self.dataset, progress=progress)
        mark = [0.0]
        sgd_step = M.SGD.step

        def timed_step(optimizer, lr):
            sgd_step(optimizer, lr)
            now = time.perf_counter()
            step_s.append(now - mark[0])
            mark[0] = now

        def end_of_epoch(_stats):
            mark[0] = time.perf_counter()

        M.SGD.step = timed_step
        try:
            mark[0] = time.perf_counter()
            return M.train(self.config, self.dataset, progress=end_of_epoch)
        finally:
            M.SGD.step = sgd_step

    def _one_training(self, out: Outcome, step_s=None, progress=None):
        """Train once, count its steps and check the result; returns wall s."""
        out.attempted += self.steps
        done = len(step_s) if step_s is not None else 0
        start = time.perf_counter()
        try:
            model, report = self._train(step_s, progress)
        except OPERATION_ERRORS as exc:
            completed = len(step_s) - done if step_s is not None else 0
            out.fail(exc, self.steps - completed)
            return None
        wall = time.perf_counter() - start
        with no_grad():
            logits = model.forward(self.test_x).data
        out.check(_finite(report.losses), "training loss is finite")
        out.check(_finite(logits), "test logits are finite")
        digest = _digest(report.losses, logits)
        out.check(out.digest in ("", digest), "training repeats are identical")
        out.digest = out.digest or digest
        out.notes["final_loss"] = (report.losses[-1], "nats")
        out.notes["test_accuracy"] = (report.final_test_accuracy, "fraction")
        return wall

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        start = time.perf_counter()
        while out.attempted == 0 or time.perf_counter() - start < seconds:
            wall = self._one_training(out, out.step_s)
            if wall is None:
                break
            out.busy_s += wall
            out.samples += self.config.epochs * len(self.dataset.train)
        return out

    def measure_traced(self, seconds: float):
        """Repeat the training for ``seconds``, with the tracer in odd epochs."""
        out = Outcome()
        tracer = Tracer()
        alternate = _AlternateEpochs(tracer)
        start = time.perf_counter()
        with alternate.installed:
            while out.attempted == 0 or time.perf_counter() - start < seconds:
                if self._one_training(out, progress=alternate) is None:
                    return out, {}
        metrics = _traced_metrics(
            tracer, alternate.seconds[True], alternate.seconds[False], self.batches
        )
        # Peak allocation of the same steps, from a one-epoch run under
        # tracemalloc, which would distort the timings above.
        alloc = Tracer()
        with _tracemalloc(), alloc.installed():
            M.train(replace(self.config, epochs=1), self.dataset)
        metrics.update(alloc.alloc_metrics())
        return out, metrics


# ---------------------------------------------------------------------------
# full_step and audio_infer: one operation at a time
# ---------------------------------------------------------------------------


class _ClosedLoop:
    """A workload whose operation is one call of ``_operation(out, tracer)``.

    ``_operation`` returns the operation's time in seconds, or None when it
    failed; with a tracer it installs it around the timed part only.
    """

    # A run stops early when this many operations failed and none succeeded.
    GIVE_UP = 16

    def _operation(self, out: Outcome, tracer=None):
        raise NotImplementedError

    def _warm_up(self, out: Outcome) -> None:
        raise NotImplementedError

    def _final_checks(self, out: Outcome) -> None:
        pass

    def _hopeless(self, out: Outcome, done: list) -> bool:
        return not done and out.failed >= self.GIVE_UP

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        self._warm_up(out)
        start = time.perf_counter()
        while not out.step_s or time.perf_counter() - start < seconds:
            elapsed = self._operation(out)
            if elapsed is not None:
                out.step_s.append(elapsed)
            elif self._hopeless(out, out.step_s):
                break
        out.busy_s = sum(out.step_s)
        out.samples = len(out.step_s)
        self._final_checks(out)
        return out

    def measure_traced(self, seconds: float):
        out = Outcome()
        self._warm_up(out)
        tracer = Tracer()
        traced, untraced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            elapsed = self._operation(out)
            elapsed_traced = self._operation(out, tracer)
            if elapsed is not None and elapsed_traced is not None:
                untraced.append(elapsed)
                traced.append(elapsed_traced)
            elif self._hopeless(out, traced):
                return out, {}
        metrics = _traced_metrics(tracer, traced, untraced)
        alloc = Tracer()
        with _tracemalloc():
            self._operation(out, alloc)
        metrics.update(alloc.alloc_metrics())
        self._final_checks(out)
        return out, metrics


class FullStep(_ClosedLoop):
    """Forward, backward and ``SGD.step`` of the full-width bottleneck model.

    One 3x128x128 image per step; backward is several times the forward.
    The image cycles through four seeded synthetic scenes.
    """

    IMAGE = 128
    CLASSES = 8
    K_NODES = 12
    # At the config's lr0 of 0.01 the unnormalised full-width model diverges
    # in its second step; 1e-6 keeps every step of a run finite.
    LR = 1e-6

    def __init__(self, seed: int):
        self.seed = seed

    @classmethod
    def make_inputs(cls, seed: int):
        config = M.ModelConfig.full(
            num_classes=cls.CLASSES, modality="visual", k_nodes=cls.K_NODES, seed=seed
        )
        images = M.synth_dataset(
            "visual", cls.CLASSES, 4, seed, height=cls.IMAGE, width=cls.IMAGE
        )
        return config, images

    def setup(self) -> None:
        self.model = self.optimizer = None  # free the previous model first
        self.config, self.images = self.make_inputs(self.seed)
        self.model = M.SceneModel.build(self.config)
        self.optimizer = M.SGD(self.model.registry, momentum=self.config.momentum)
        self.count = 0

    def _operation(self, out: Outcome, tracer=None):
        example = self.images[self.count % len(self.images)]
        self.count += 1
        out.attempted += 1
        x = Tensor(example.x[None])
        labels = np.array([example.label])
        try:
            with no_grad():
                reference = self.model.forward(x).data
            with tracer.installed() if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                logits = self.model.forward(x)
                loss = M.softmax_cross_entropy(logits, labels)
                self.model.registry.zero_grad()
                loss.backward()
                self.optimizer.step(self.LR)
                elapsed = time.perf_counter() - start
        except OPERATION_ERRORS as exc:
            out.fail(exc)
            return None
        out.check(_finite(loss.data) and _finite(logits.data), "loss and logits are finite")
        out.check(
            np.max(np.abs(logits.data - reference)) <= FEATURE_TOLERANCE,
            "taped and no_grad logits agree",
        )
        if not out.digest:
            out.digest = _digest(reference)
        return elapsed

    def _warm_up(self, out: Outcome) -> None:
        # The first two steps run slow while the allocator settles on how to
        # serve the tape's large blocks.
        for _ in range(2):
            self._operation(out)


class AudioInfer(_ClosedLoop):
    """``load_wav`` -> ``extract_logmel`` -> no-grad forward, one clip a request.

    Eight 10-s 16 kHz PCM16 clips are written in set-up and served round
    robin; the tiny audio model takes the 401x64 log-Mel input with k=20.
    """

    CLIPS = 8
    RATE = 16000
    CLIP_SECONDS = 10
    K_NODES = 20

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    @classmethod
    def make_inputs(cls, seed: int):
        """Seeded clips (tones over noise) and a model with a seeded head."""
        rng = np.random.default_rng(seed)
        t = np.arange(cls.RATE * cls.CLIP_SECONDS) / cls.RATE
        clips = []
        for _ in range(cls.CLIPS):
            tones = sum(
                rng.uniform(0.05, 0.2)
                * np.sin(2 * np.pi * rng.uniform(80.0, 6000.0) * t + rng.uniform(0, 6.3))
                * (1.0 + 0.5 * np.sin(2 * np.pi * rng.uniform(0.1, 2.0) * t))
                for _ in range(4)
            )
            clips.append(F.AudioClip(tones + rng.normal(0.0, 0.02, t.size), cls.RATE))
        config = M.ModelConfig.tiny(modality="audio", k_nodes=cls.K_NODES, seed=seed)
        model = M.SceneModel.build(config)
        # The built head is zero, which would predict class 0 for every clip.
        head = model.head_weight.data
        head[...] = he_uniform(rng, head.shape, head.shape[1])
        return clips, model

    def setup(self) -> None:
        clips, self.model = self.make_inputs(self.seed)
        self.paths = []
        for i, clip in enumerate(clips):
            path = self.workdir / f"clip{i}.wav"
            F.write_wav(path, clip)
            self.paths.append(path)
        self.count = 0
        self.served: dict = {}  # clip index -> logits of its first request
        self.inputs: dict = {}  # clip index -> log-Mel values

    def _operation(self, out: Outcome, tracer=None):
        i = self.count % len(self.paths)
        self.count += 1
        out.attempted += 1
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                mel = F.extract_logmel(F.load_wav(self.paths[i]))
                with no_grad():
                    logits = self.model.forward(Tensor(mel.values.data[None])).data[0]
                elapsed = time.perf_counter() - start
        except OPERATION_ERRORS as exc:
            out.fail(exc)
            return None
        out.check(_finite(logits), "logits are finite")
        first = self.served.setdefault(i, logits)
        out.check(np.array_equal(first, logits), "repeated requests agree")
        self.inputs.setdefault(i, mel.values.data)
        return elapsed

    def _warm_up(self, out: Outcome) -> None:
        for _ in self.paths:
            self._operation(out)

    def _final_checks(self, out: Outcome) -> None:
        """Per-clip features equal the rows of one batched forward."""
        if not self.inputs:
            return
        order = sorted(self.inputs)
        with no_grad():
            batch = np.stack([self.inputs[i] for i in order])
            rows, _ = self.model.features(Tensor(batch))
            for row, i in zip(rows.data, order):
                single, _ = self.model.features(Tensor(self.inputs[i][None]))
                out.check(
                    np.max(np.abs(single.data[0] - row)) <= FEATURE_TOLERANCE,
                    "one-clip and batched features agree",
                )
        out.digest = _digest(*(self.served[i] for i in order))


WORKLOADS = ("tiny_train", "full_step", "audio_infer")


def make_workload(name: str, seed: int, workdir):
    if name == "tiny_train":
        return TinyTrain(seed)
    if name == "full_step":
        return FullStep(seed)
    if name == "audio_infer":
        return AudioInfer(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
