"""Tests for the training loops, metrics logging, and evaluation."""

import os
import weakref

import numpy as np
import pytest

import layer_oracles
from cmvqa import model as model_module, train as train_module
from cmvqa.bundle import write_bundle
from cmvqa.config import RunConfig, load_config
from cmvqa.data import Split, build_vocabulary, generate_synthetic, save_dataset
from cmvqa.train import (
    METRICS_HEADER,
    MetricsWriter,
    _batch_indices,
    answer_metrics,
    run_eval,
    run_gradcheck,
    run_pretrain,
    run_vqa_train,
    type_acc,
)
from cmvqa.model import VqaModel, load_checkpoint
from cmvqa.numerics import Rng

TINY = dict(image_size=8, grid=2, c_v=8, d_q=8, d_emb=6, l_w=6,
            n_vqa=24, n_pretrain=8, steps=4, pretrain_steps=3,
            batch_size=4, pretrain_batch=4, log_every=2)


def make_run(tmp_path, **overrides):
    merged = {**TINY, **overrides}
    config = RunConfig(data_dir=str(tmp_path / "data"), **merged)
    vqa, pretrain, vocab = generate_synthetic(
        config.seed, {"vqa": config.n_vqa, "pretrain": config.n_pretrain},
        config.data_config(),
    )
    save_dataset(vqa, pretrain, vocab, config.data_config(), config.data_dir)
    return config


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    return header, rows


class TestMetricsWriter:
    def test_header_and_repr_floats(self, tmp_path):
        path = tmp_path / "m.csv"
        writer = MetricsWriter(path)
        writer.row(3, l_vqa=0.1, total=0.30000000000000004)
        header, rows = read_rows(path)
        assert header == METRICS_HEADER
        assert rows[0][0] == "3"
        assert rows[0][1] == repr(0.1)
        assert rows[0][5] == repr(0.30000000000000004)
        assert rows[0][2] == ""  # unset columns stay empty

    def test_roundtrip_floats_exactly(self, tmp_path):
        path = tmp_path / "m.csv"
        writer = MetricsWriter(path)
        value = 1.0 / 3.0
        writer.row(1, l_vqa=value)
        _, rows = read_rows(path)
        assert float(rows[0][1]) == value


class TestBatchOrder:
    def test_batches_cycle_fixed_permutation(self):
        batches = _batch_indices(Rng(0).child("x"), n=5, steps=4, batch=3)
        flat = [i for b in batches for i in b]
        # the same permutation is walked in order, wrapping at n
        perm = list(Rng(0).child("x").gen.permutation(5))
        expected = [int(perm[k % 5]) for k in range(12)]
        assert flat == expected

    def test_every_index_seen_within_one_epoch(self):
        batches = _batch_indices(Rng(3).child("x"), n=8, steps=2, batch=4)
        assert sorted(i for b in batches for i in b) == list(range(8))


def _split(answers, opens, types=None):
    """A VQA split holding only the columns the metrics read, as float64."""
    types = [0] * len(answers) if types is None else types
    return Split(answer=np.array(answers, np.float64), open=np.array(opens, np.float64),
                 type=np.array(types, np.float64))


def _counted_metrics(preds, answers, opens):
    """answer_metrics counted one sample at a time, as plain ints."""
    open_hits = open_n = closed_hits = closed_n = 0
    for pred, answer, is_open in zip(preds, answers, opens):
        hit = int(pred == answer)
        if is_open:
            open_hits, open_n = open_hits + hit, open_n + 1
        else:
            closed_hits, closed_n = closed_hits + hit, closed_n + 1
    total = open_n + closed_n
    return {"open_acc": open_hits / open_n if open_n else 0.0,
            "closed_acc": closed_hits / closed_n if closed_n else 0.0,
            "all_acc": (open_hits + closed_hits) / total if total else 0.0}


class TestAnswerMetrics:
    def test_open_closed_split(self):
        metrics = answer_metrics([2, 4, 0, 0], _split([2, 3, 0, 1], [1, 1, 0, 0]))
        assert metrics["open_acc"] == 0.5
        assert metrics["closed_acc"] == 0.5
        assert metrics["all_acc"] == 0.5

    def test_majority_predictor_scores_poorly(self):
        # constant "yes" answers only the yes half of closed questions
        metrics = answer_metrics([0, 0, 0, 0], _split([2, 0, 1, 4], [1, 0, 0, 1]))
        assert metrics["open_acc"] == 0.0
        assert metrics["closed_acc"] == 0.5
        assert metrics["all_acc"] == 0.25

    @pytest.mark.parametrize("kinds", ["mixed", "open-only", "closed-only"])
    @pytest.mark.parametrize("n", [1, 7, 75, 350])
    def test_array_counts_equal_per_sample_counts(self, kinds, n):
        """Exact float equality, since metrics.csv is compared byte for byte."""
        gen = np.random.default_rng(n)
        answers = gen.integers(0, 5, n)
        preds = np.where(gen.random(n) < 0.6, answers, gen.integers(0, 5, n))
        opens = {"mixed": gen.integers(0, 2, n), "open-only": np.ones(n, int),
                 "closed-only": np.zeros(n, int)}[kinds]
        types = gen.integers(0, 3, n)
        type_preds = np.where(gen.random(n) < 0.7, types, gen.integers(0, 3, n))
        split = _split(answers, opens, types)
        got = answer_metrics(list(preds), split)
        want = _counted_metrics([int(p) for p in preds], [int(a) for a in answers],
                                [bool(o) for o in opens])
        assert got == want and all(type(v) is float for v in got.values())
        assert type_acc(list(type_preds), split) == \
            sum(int(p == t) for p, t in zip(type_preds, types)) / n


class TestVqaTraining:
    def test_metrics_rows_and_checkpoint(self, tmp_path):
        config = make_run(tmp_path)
        model, final_eval = run_vqa_train(config, tmp_path / "run",
                                          config_text="seed = 0\n")
        header, rows = read_rows(tmp_path / "run" / "metrics.csv")
        assert header == METRICS_HEADER
        steps = [int(r[0]) for r in rows]
        assert steps == [2, 4]  # log_every=2 over 4 steps; final row included once
        # intermediate rows log losses only; the final row adds eval accuracy
        assert rows[0][6] == "" and rows[-1][6] != ""
        assert float(rows[-1][8]) == final_eval["all_acc"]
        arrays, step, text = load_checkpoint(tmp_path / "run" / "checkpoint.cmtb")
        assert step == config.steps
        assert text == "seed = 0\n"
        assert set(model.params()) == set(arrays)

    def test_total_column_composes_vqa_and_type(self, tmp_path):
        config = make_run(tmp_path, alpha=0.5)
        run_vqa_train(config, tmp_path / "run")
        _, rows = read_rows(tmp_path / "run" / "metrics.csv")
        for row in rows:
            l_vqa, l_type, total = float(row[1]), float(row[2]), float(row[5])
            assert total == l_vqa + config.alpha * l_type

    def test_zero_lr_logs_constant_losses(self, tmp_path):
        config = make_run(tmp_path, lr=0.0, steps=6)
        run_vqa_train(config, tmp_path / "run")
        _, rows = read_rows(tmp_path / "run" / "metrics.csv")
        totals = {row[5] for row in rows}
        assert len(totals) == 1  # monitor batch, frozen weights: identical text

    def test_identical_runs_are_bit_identical(self, tmp_path):
        config = make_run(tmp_path)
        run_vqa_train(config, tmp_path / "a")
        run_vqa_train(config, tmp_path / "b")
        with open(tmp_path / "a" / "metrics.csv", "rb") as fh:
            first = fh.read()
        with open(tmp_path / "b" / "metrics.csv", "rb") as fh:
            second = fh.read()
        assert first == second

    def test_layer_nodes_write_the_bytes_of_per_encoder_compositions(self, tmp_path,
                                                                      monkeypatch):
        """Training with the encoder-axis conv nodes, the stem node and the
        blend node, and again with the per-encoder conv2d and relu nodes,
        stack and sum of tests/layer_oracles in their place, writes the same
        checkpoint and metrics bytes."""
        config = make_run(tmp_path)
        run_vqa_train(config, tmp_path / "nodes")
        monkeypatch.setattr(model_module, "classify_type", layer_oracles.classify_type_composition)
        monkeypatch.setattr(model_module, "backbone_forward", layer_oracles.backbone_composition)
        monkeypatch.setattr(model_module, "blend", layer_oracles.blend_composition)
        run_vqa_train(config, tmp_path / "composed")
        for name in ("checkpoint.cmtb", "metrics.csv"):
            assert (tmp_path / "nodes" / name).read_bytes() == \
                (tmp_path / "composed" / name).read_bytes(), name

    def test_invariant_monitor_sees_every_forward(self, tmp_path):
        config = make_run(tmp_path)
        seen = []

        def monitor(gate, state):
            seen.append(gate.w.data.sum())
            for a in state.a:
                rows_sum = a.data.sum(axis=-1)
                assert np.allclose(rows_sum, 1.0, atol=1e-12)

        run_vqa_train(config, tmp_path / "run", invariant_monitor=monitor)
        assert len(seen) == config.steps * config.batch_size

    def test_step_graphs_released_before_next_batch(self, tmp_path):
        """No step's graphs are held while the next batch is built: at the
        first forward of each step, at most one forward of the previous step
        may still be alive."""
        config = make_run(tmp_path)
        refs, alive = [], []

        def monitor(gate, state):
            if refs and len(refs) % config.batch_size == 0:
                alive.append(sum(r() is not None for r in refs[-config.batch_size:]))
            refs.append(weakref.ref(gate.logits.data))   # Tensor has no weakref slot

        run_vqa_train(config, tmp_path / "run", invariant_monitor=monitor)
        assert len(alive) == config.steps - 1
        assert max(alive) <= 1, alive

    def test_empty_train_split_raises(self, tmp_path):
        config = make_run(tmp_path)
        bad = RunConfig(**{**TINY, "data_dir": config.data_dir, "eval_split": "val"})
        bad.steps = 1
        # point at a directory with no dataset
        bad.data_dir = str(tmp_path / "nowhere")
        with pytest.raises((FileNotFoundError, OSError)):
            run_vqa_train(bad, tmp_path / "run2")


class TestPretraining:
    def test_outputs_and_global_step(self, tmp_path):
        config = make_run(tmp_path)
        results = run_pretrain(config, tmp_path / "pre")
        assert set(results) == {"abdomen", "head", "chest"}
        for metrics in results.values():
            assert 0.0 <= metrics["task_acc"] <= 1.0
            assert 0.0 <= metrics["compat_acc"] <= 1.0
        header, rows = read_rows(tmp_path / "pre" / "metrics.csv")
        assert header == METRICS_HEADER
        steps = [int(r[0]) for r in rows]
        assert steps == sorted(steps)
        assert steps[-1] == 3 * config.pretrain_steps
        # losses land in the l_spe / l_com / total columns
        assert rows[0][3] != "" and rows[0][4] != "" and rows[0][5] != ""
        for name in ("abdomen", "head", "chest", "all"):
            assert os.path.exists(tmp_path / "pre" / f"pretrain_{name}.cmtb")

    def test_accuracy_csv_layout(self, tmp_path):
        config = make_run(tmp_path)
        run_pretrain(config, tmp_path / "pre")
        header, rows = read_rows(tmp_path / "pre" / "pretrain_accuracy.csv")
        assert header == "encoder,task_acc,compat_acc"
        assert [r[0] for r in rows] == ["abdomen", "head", "chest"]

    def test_single_mode_drops_compatibility(self, tmp_path):
        config = make_run(tmp_path, pretrain_mode="single")
        results = run_pretrain(config, tmp_path / "pre")
        for metrics in results.values():
            assert "compat_acc" not in metrics
        _, rows = read_rows(tmp_path / "pre" / "metrics.csv")
        for row in rows:
            assert row[4] == ""          # no l_com column
            assert row[3] == row[5]      # total reduces to l_spe

    def test_frozen_table_read_once_per_run(self, tmp_path, monkeypatch):
        config = make_run(tmp_path)
        size = build_vocabulary(config.data_config()).size
        path = tmp_path / "frozen.cmtb"
        write_bundle({"table": np.ones((size, config.d_emb // 2))}, path)
        config.frozen_embedding_path = str(path)
        reads = []
        load = model_module.load_frozen_half
        monkeypatch.setattr(model_module, "load_frozen_half",
                            lambda p: reads.append(p) or load(p))
        run_pretrain(config, tmp_path / "pre")
        assert reads == [str(path)]

    def test_transfer_bundle_covers_all_encoders(self, tmp_path):
        config = make_run(tmp_path)
        run_pretrain(config, tmp_path / "pre")
        arrays, _, _ = load_checkpoint(tmp_path / "pre" / "pretrain_all.cmtb")
        prefixes = {name.split("/")[1] for name in arrays if name.startswith("backbone/")}
        assert prefixes == {"abdomen", "head", "chest"}
        assert all(name.startswith("backbone/") for name in arrays)


class TestEvaluation:
    def test_run_eval_reports_type_accuracy(self, tmp_path):
        config = make_run(tmp_path)
        from cmvqa.data import load_dataset
        vqa, _, vocab, _ = load_dataset(config.data_dir)
        model = VqaModel(config, vocab.size)
        metrics = run_eval(model, vqa["val"])
        for key in ("open_acc", "closed_acc", "all_acc", "type_acc"):
            assert 0.0 <= metrics[key] <= 1.0

    def test_empty_split_raises(self, tmp_path):
        config = make_run(tmp_path)
        model = VqaModel(config, 10)
        with pytest.raises(ValueError, match="empty"):
            run_eval(model, [])


class TestModelGradCheck:
    def test_passes_on_tiny_model(self):
        config = RunConfig(image_size=8, grid=2, c_v=4, d_q=4, d_emb=4, l_w=6,
                           glimpses=1)
        report = run_gradcheck(config)
        assert report.passed, report.summary()

    def test_negative_control_names_corrupted_parameter(self):
        config = RunConfig(image_size=8, grid=2, c_v=4, d_q=4, d_emb=4, l_w=6,
                           glimpses=1)
        report = run_gradcheck(config, corrupt_param="lstm/b")
        assert not report.passed
        assert report.worst.name == "lstm/b"

    @pytest.mark.parametrize("name, computed", [
        ("lstm/w", {"question"}),
        ("backbone/head/layer1/w", {"image"}),
        ("cmsa/glimpse1/q_w", set()),
        ("unclaimed/w", {"image", "question"}),
    ])
    def test_probe_reruns_only_the_stages_its_parameter_feeds(self, monkeypatch, name,
                                                              computed):
        """With one coordinate nudged, the objective that reuses stages equals
        a full forward plus loss bit for bit, and runs only the stages the
        nudged parameter feeds, through VqaModel.forward."""
        config = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                                          "gradcheck.cfg"))
        calls = []
        for attr, stage in (("classify_type", "image"), ("encode_question", "question")):
            fn = getattr(model_module, attr)
            monkeypatch.setattr(model_module, attr,
                                lambda *a, _fn=fn, _s=stage: calls.append(_s) or _fn(*a))
        forward = VqaModel.forward
        monkeypatch.setattr(VqaModel, "forward",
                            lambda *a, **k: calls.append("forward") or forward(*a, **k))
        seen = {}

        def probe(f, params, h, tol, on_param):
            # a name no stage claims has no parameter; nudge lstm/b for it
            nudged = params.get(name, params["lstm/b"]).data.reshape(-1)
            nudged[0] += 1e-3
            on_param(name)
            calls.clear()
            seen["reused"] = f().item()
            seen["calls"] = list(calls)
            on_param("unclaimed/w")
            seen["full"] = f().item()
            return None

        monkeypatch.setattr(train_module, "grad_check", probe)
        run_gradcheck(config)
        assert seen["reused"] == seen["full"]
        assert seen["calls"].count("forward") == 1
        assert set(seen["calls"]) - {"forward"} == computed

    def test_negative_control_fails_at_a_kink(self):
        """At seed 21 backbone/head/layer0/b[0] sits at a ReLU kink; with the
        parameter corrupted neither one-sided difference matches, so it fails."""
        config = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                                          "gradcheck.cfg"))
        config.seed = 21
        report = run_gradcheck(config, corrupt_param="backbone/head/layer0/b")
        assert not report.passed
        assert report.worst.name == "backbone/head/layer0/b"
        assert [c.name for c in report.checks if c.max_rel_err > report.tol] == [report.worst.name]
