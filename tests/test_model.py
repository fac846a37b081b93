"""Tests for model assembly, parameter registries, and checkpoints."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cmvqa import question
from cmvqa.bundle import write_bundle
from cmvqa.config import RunConfig, load_config
from cmvqa.data import TYPE_NAMES, build_vocabulary, generate_vqa, generate_pretrain
from cmvqa.model import (
    PretrainModel,
    VqaModel,
    apply_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from cmvqa.numerics import ShapeError, lstm_sequence
from cmvqa.numerics import lstm as lstm_module, tensor as tensor_module

TINY = dict(image_size=8, grid=2, c_v=8, d_q=8, d_emb=6, l_w=6)


def tiny_config(**overrides) -> RunConfig:
    merged = {**TINY, **overrides}
    return RunConfig(**merged)


@pytest.fixture(scope="module")
def corpus():
    config = tiny_config()
    dc = config.data_config()
    vocab = build_vocabulary(dc)
    vqa = generate_vqa(0, 12, dc, vocab)
    pretrain = generate_pretrain(0, 6, dc, vocab)
    return config, vocab, vqa, pretrain


def expected_vqa_names(config: RunConfig) -> set:
    n_layers = (config.image_size // config.grid).bit_length() - 1
    names = {"embed/first", "embed/second", "lstm/w", "lstm/b",
             "gate/stem/w", "gate/stem/b", "gate/proj_w", "gate/proj_b",
             "cmsa/proj_w", "cmsa/proj_b",
             "answer/w0", "answer/b0", "answer/w1", "answer/b1"}
    for organ in TYPE_NAMES:
        for i in range(n_layers):
            names |= {f"backbone/{organ}/layer{i}/w", f"backbone/{organ}/layer{i}/b"}
    for g in range(config.glimpses):
        for part in ("q", "k", "v", "out"):
            names |= {f"cmsa/glimpse{g}/{part}_w", f"cmsa/glimpse{g}/{part}_b"}
    return names


class TestParameterRegistry:
    def test_vqa_param_name_inventory(self, corpus):
        config, vocab, _, _ = corpus
        model = VqaModel(config, vocab.size)
        assert set(model.params()) == expected_vqa_names(config)

    def test_pretrain_names_segmentation_task(self, corpus):
        config, vocab, _, _ = corpus
        names = set(PretrainModel(config, vocab.size, 0).params())
        assert {"task/w1", "task/b1", "task/w2", "task/b2"} <= names
        assert {"compat/w0", "compat/b0", "compat/w1", "compat/b1"} <= names
        assert any(n.startswith("backbone/abdomen/") for n in names)
        assert not any(n.startswith("backbone/head/") for n in names)

    def test_pretrain_names_classification_task(self, corpus):
        config, vocab, _, _ = corpus
        names = set(PretrainModel(config, vocab.size, 1).params())
        # three affine stages
        assert {"task/w0", "task/w1", "task/w2", "task/b2"} <= names
        assert any(n.startswith("backbone/head/") for n in names)

    def test_init_is_deterministic(self, corpus):
        config, vocab, _, _ = corpus
        a = VqaModel(config, vocab.size).params()
        b = VqaModel(config, vocab.size).params()
        for name in a:
            assert a[name].data.tobytes() == b[name].data.tobytes(), name

    def test_seed_changes_parameters(self, corpus):
        config, vocab, _, _ = corpus
        a = VqaModel(config, vocab.size).params()
        b = VqaModel(tiny_config(seed=1), vocab.size).params()
        assert any(a[n].data.tobytes() != b[n].data.tobytes() for n in a)


class TestForward:
    def test_vqa_forward_shapes(self, corpus):
        config, vocab, vqa, _ = corpus
        model = VqaModel(config, vocab.size)
        logits, gate, state = model.forward(vqa["train"][0])
        assert logits.shape == (5,)
        assert gate.w.shape == (3,)
        assert state.f_hat.shape == (config.l_w, config.d_q)

    def test_pretrain_forward_shapes(self, corpus):
        config, vocab, _, pretrain = corpus
        sample = pretrain[1]["train"][0]
        model = PretrainModel(config, vocab.size, 1)
        task_logits, com_logits = model.forward(sample)
        assert task_logits.shape == (3,)      # three shape classes
        assert com_logits.shape == (2,)
        seg = PretrainModel(config, vocab.size, 0)
        seg_sample = pretrain[0]["train"][0]
        pixel_logits = seg.forward(seg_sample)[0]
        assert pixel_logits.shape == (config.image_size, config.image_size, 2)

    @pytest.mark.parametrize("type_id", [0, 1, 2])
    def test_task_head_width_matches_drawn_classes(self, corpus, type_id, monkeypatch):
        """The task head scores exactly the classes the generator draws, in
        both pretrain modes; single mode runs no question pathway."""
        config, vocab, _, _ = corpus
        samples = generate_pretrain(1, 40, config.data_config(), vocab)[type_id]["train"]
        drawn = set()
        for s in samples:
            drawn |= {int(t) for t in np.unique(s.task_target)}
        assert drawn == set(range(len(drawn)))
        model = PretrainModel(config, vocab.size, type_id)
        task_logits, _ = model.forward(samples[0])
        assert task_logits.shape[-1] == len(drawn)

        lstm_calls = []
        monkeypatch.setattr(question, "lstm_sequence",
                            lambda *args: lstm_calls.append(args) or lstm_sequence(*args))
        single = PretrainModel(replace(config, pretrain_mode="single"), vocab.size, type_id)
        task_logits, com_logits = single.forward(samples[0])
        assert task_logits.shape[-1] == len(drawn)
        assert com_logits is None
        assert lstm_calls == []
        model.forward(samples[0])
        assert len(lstm_calls) == 1  # the patch sees the multi-mode question pathway

    def test_desk_forward_node_count(self, monkeypatch):
        """Op nodes one forward builds at desk.cfg dimensions: the question
        LSTM is one node, not 17 per word."""
        config = load_config(Path(__file__).parents[1] / "configs" / "desk.cfg")
        dc = config.data_config()
        vocab = build_vocabulary(dc)
        built = []
        node = tensor_module._node

        def counting(*args):
            built.append(args[-1])
            return node(*args)

        for module in (tensor_module, lstm_module):
            monkeypatch.setattr(module, "_node", counting)
        VqaModel(config, vocab.size).forward(generate_vqa(0, 4, dc, vocab)["train"][0])
        counts = [len(built)]
        pretrain = generate_pretrain(0, 4, dc, vocab)
        for type_id in range(len(TYPE_NAMES)):
            model = PretrainModel(config, vocab.size, type_id)
            built.clear()
            model.forward(pretrain[type_id]["train"][0])
            counts.append(len(built))
        assert counts == [72, 36, 38, 38]
        assert built.count("lstm_sequence") == 1


class TestCheckpoints:
    def test_roundtrip_is_bit_exact(self, corpus, tmp_path):
        config, vocab, _, _ = corpus
        model = VqaModel(config, vocab.size)
        params = model.params()
        path = tmp_path / "ck.cmtb"
        save_checkpoint(params, 41, "seed = 0\n", path)
        arrays, step, text = load_checkpoint(path)
        assert step == 41
        assert text == "seed = 0\n"
        assert set(arrays) == set(params)
        for name in params:
            assert arrays[name].tobytes() == params[name].data.tobytes()

    def test_restore_reproduces_forward_bitwise(self, corpus, tmp_path):
        config, vocab, vqa, _ = corpus
        sample = vqa["train"][0]
        source = VqaModel(config, vocab.size)
        ref = source.forward(sample)[0].data.copy()
        path = tmp_path / "ck.cmtb"
        save_checkpoint(source.params(), 1, "", path)

        target = VqaModel(tiny_config(seed=99), vocab.size)
        arrays, _, _ = load_checkpoint(path)
        copied = apply_checkpoint(target.params(), arrays)
        assert copied == len(source.params())
        out = target.forward(sample)[0].data
        assert out.tobytes() == ref.tobytes()

    def test_full_restore_skips_unknown_names(self, corpus):
        config, vocab, _, _ = corpus
        model = VqaModel(config, vocab.size)
        copied = apply_checkpoint(model.params(), {"not/a/param": np.zeros(3)})
        assert copied == 0

    def test_shape_mismatch_raises(self, corpus):
        config, vocab, _, _ = corpus
        model = VqaModel(config, vocab.size)
        with pytest.raises(ShapeError, match="shape"):
            apply_checkpoint(model.params(), {"lstm/b": np.zeros(1)})


class TestEncoderTransfer:
    def test_prefix_transfer_copies_backbone_bitwise(self, corpus, tmp_path):
        config, vocab, _, _ = corpus
        donor = PretrainModel(config, vocab.size, 0)
        path = tmp_path / "pre.cmtb"
        save_checkpoint(donor.params(), 5, "", path)
        arrays, _, _ = load_checkpoint(path)

        target = VqaModel(config, vocab.size)
        params = target.params()
        before_head = {n: params[n].data.copy() for n in params
                       if n.startswith("backbone/head/")}
        copied = apply_checkpoint(params, arrays, prefix="backbone/")
        donor_backbone = [n for n in donor.params() if n.startswith("backbone/")]
        assert copied == len(donor_backbone)
        for name in donor_backbone:
            assert params[name].data.tobytes() == arrays[name].tobytes()
        # untouched encoders keep their own initialization
        for name, arr in before_head.items():
            assert params[name].data.tobytes() == arr.tobytes()

    def test_prefix_transfer_requires_matching_names(self, corpus):
        config, vocab, _, _ = corpus
        model = VqaModel(config, vocab.size)
        with pytest.raises(ShapeError, match="no matching parameter"):
            apply_checkpoint(model.params(), {"backbone/liver/layer0/w": np.zeros(3)},
                             prefix="backbone/")


class TestFrozenEmbedding:
    def test_frozen_half_is_loaded_and_not_trainable(self, corpus, tmp_path):
        config, vocab, _, _ = corpus
        half = config.d_emb // 2
        table = np.arange(vocab.size * half, dtype=np.float64).reshape(vocab.size, half)
        path = tmp_path / "frozen.cmtb"
        write_bundle({"table": table}, path)
        frozen_config = tiny_config(frozen_embedding_path=str(path))
        model = VqaModel(frozen_config, vocab.size)
        params = model.params()
        assert "embed/first" not in params
        assert "embed/second" in params
        assert model.question.embedding.first.data.tobytes() == table.tobytes()
        assert not model.question.embedding.first.requires_grad
