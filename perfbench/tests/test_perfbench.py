"""Tests of the benchmark: seeded inputs, trace accounting, failure counting, smoke runs."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from avscene import frontend as F
from avscene import model as M
from perfbench.tracer import OP_KINDS, STAGES, Tracer
from perfbench.workloads import WORKLOADS, AudioInfer, FullStep, TinyTrain

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}


def _arrays(examples):
    return np.stack([e.x for e in examples]), [e.label for e in examples]


class TestInputs:
    def test_tiny_train_follows_seed(self):
        (_, a), (_, b), (_, c) = (TinyTrain.make_inputs(s) for s in (3, 3, 4))
        xa, ya = _arrays(a.train + a.test)
        xb, yb = _arrays(b.train + b.test)
        assert np.array_equal(xa, xb) and ya == yb
        assert not np.array_equal(xa, _arrays(c.train + c.test)[0])

    def test_full_step_follows_seed(self):
        (ca, a), (cb, b), (_, c) = (FullStep.make_inputs(s) for s in (3, 3, 4))
        assert ca == cb
        assert np.array_equal(_arrays(a)[0], _arrays(b)[0])
        assert not np.array_equal(_arrays(a)[0], _arrays(c)[0])

    def test_audio_infer_follows_seed(self):
        (clips_a, model_a), (clips_b, model_b), (clips_c, _) = (
            AudioInfer.make_inputs(s) for s in (3, 3, 4)
        )
        for x, y in zip(clips_a, clips_b):
            assert np.array_equal(x.samples, y.samples)
        for (_, p), (_, q) in zip(model_a.registry.items(), model_b.registry.items()):
            assert np.array_equal(p.data, q.data)
        assert not np.array_equal(clips_a[0].samples, clips_c[0].samples)
        assert np.any(model_a.head_weight.data != 0.0)


class TestTracer:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        wav = tmp_path_factory.mktemp("wav") / "clip.wav"
        F.write_wav(wav, F.AudioClip(0.5 * np.sin(np.arange(8000) / 5.0), 16000))
        config = M.ModelConfig.tiny(modality="audio", k_nodes=8, epochs=1)
        data = M.synth_splits("audio", 4, 16, 8, seed=0)
        tracer = Tracer()
        with tracer.installed():
            start = time.perf_counter()
            M.train(config, data)
            F.extract_logmel(F.load_wav(wav))
            wall = time.perf_counter() - start
        metrics = tracer.metrics(steps=2, wall_s=wall)
        return {name: value for name, (value, _) in metrics.items()}

    def test_directions_and_unattributed_add_up_to_the_step(self, traced):
        parts = (
            "model.fwd_ms",
            "model.bwd_ms",
            "model.sgd_ms",
            "model.evaluate_ms",
            "frontend.load_wav_ms",
            "frontend.logmel_ms",
            "trace.unattributed_ms",
        )
        assert all(traced[p] > 0.0 for p in parts)
        assert sum(traced[p] for p in parts) == pytest.approx(traced["trace.step_ms"])

    def test_layers_add_up_to_each_direction(self, traced):
        layers = [f"backbone.{s}" for s in STAGES] + ["fusion.afm", "gcn", "head", "model.glue"]
        fwd = [f"{layer}.fwd_ms" for layer in layers] + ["graphs.build_ms"]
        bwd = [f"{layer}.bwd_ms" for layer in layers]
        bwd += ["graphs.bwd_ms", "tensor.backward_walk_ms"]
        assert all(traced[name] > 0.0 for name in fwd + bwd)
        assert sum(traced[n] for n in fwd) == pytest.approx(traced["model.fwd_ms"])
        assert sum(traced[n] for n in bwd) == pytest.approx(traced["model.bwd_ms"])

    def test_op_kinds_cover_backward(self, traced):
        kinds = OP_KINDS + ("other",)
        closures = sum(traced[f"tensor.op.{k}.bwd_ms"] for k in kinds)
        assert closures + traced["tensor.backward_walk_ms"] == pytest.approx(
            traced["model.bwd_ms"]
        )
        assert sum(traced[f"tensor.op.{k}.fwd_ms"] for k in kinds) < traced["model.fwd_ms"]

    def test_counts_per_step(self, traced):
        # batch 8: one graph build and two propagation matrices per sample
        assert traced["graphs.calls"] == 8
        assert traced["gcn.propagation_calls"] == 16
        assert traced["tensor.tape_nodes"] > 0

    def test_reports_every_per_layer_metric(self, traced):
        tracer = Tracer()
        names = set(traced) | set(tracer.alloc_metrics()) | {"trace.overhead_pct"}
        assert names == PER_LAYER

    def test_originals_are_restored(self):
        before = (M.evaluate, M.SGD.step, M.SceneModel.forward, F.load_wav, M.concat)
        with Tracer().installed():
            assert M.evaluate is not before[0] and M.concat is not before[4]
        assert (M.evaluate, M.SGD.step, M.SceneModel.forward, F.load_wav, M.concat) == before


def test_corrupt_wav_counts_as_failed_operation(tmp_path):
    workload = AudioInfer(seed=2, workdir=tmp_path)
    workload.setup()
    workload.paths[1].write_bytes(b"RIFF\x00\x00\x00\x00JUNK")
    out = workload.measure(seconds=0.2)
    clip_one = sum(1 for k in range(out.attempted) if k % AudioInfer.CLIPS == 1)
    assert out.failed == clip_one >= 1
    assert "clip1.wav" in out.errors[0]
    assert out.correct and len(out.step_s) > 0


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module", params=WORKLOADS)
def smoke(request):
    """An untraced and a traced short run of one workload, same seed."""
    runs = []
    for trace in ("0", "1"):
        proc = _run("--workload", request.param, "--seed", "5", "--seconds", "0.5", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        digest = next(line.split()[1] for line in lines if line.startswith("predictions "))
        runs.append((json.loads(lines[-1]), digest))
    return runs


def test_smoke_run_is_correct_and_complete(smoke):
    (untraced, _), (traced, _) = smoke
    for result in (untraced, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(untraced["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    assert set(traced["metrics"]) == PER_LAYER


def test_predictions_repeat_across_runs(smoke):
    (_, first), (_, second) = smoke
    assert first == second


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "tiny_train", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
