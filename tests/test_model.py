"""Tests for model assembly, parameter registries, and checkpoints."""

import hashlib
import struct
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import layer_oracles
from cmvqa import model as model_module, question
from cmvqa.bundle import read_bundle, write_bundle
from cmvqa.config import RunConfig, load_config
from cmvqa.data import TYPE_NAMES, build_vocabulary, generate_vqa, generate_pretrain
from cmvqa.heads import pretrain_loss, vqa_loss
from cmvqa.model import (
    PretrainModel,
    VqaModel,
    apply_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from cmvqa.numerics import ShapeError, add, lstm_sequence, scale
from cmvqa.numerics import lstm as lstm_module, tensor as tensor_module

TINY = dict(image_size=8, grid=2, c_v=8, d_q=8, d_emb=6, l_w=6)
CONFIGS = Path(__file__).parents[1] / "configs"


def _record_ops(monkeypatch) -> list:
    """Patch the node constructor; the returned list collects each new node's op."""
    built = []
    node = tensor_module._node

    def counting(*args):
        built.append(args[-1])
        return node(*args)

    for module in (tensor_module, lstm_module):
        monkeypatch.setattr(module, "_node", counting)
    return built


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
        # the decoder's two 1x1 maps
        assert {n for n in names if n.startswith("task/")} == {"task/w0", "task/b0",
                                                               "task/w1", "task/b1"}
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

    def test_initial_parameter_bytes_are_pinned(self):
        """Every VqaModel and PretrainModel parameter at gradcheck.cfg, seed 0:
        any change to the Rng streams or the init draws changes this digest."""
        config = load_config(CONFIGS / "gradcheck.cfg")
        assert config.seed == 0
        size = build_vocabulary(config.data_config()).size
        digest = hashlib.sha256()
        for model in [VqaModel(config, size)] + [PretrainModel(config, size, t) for t in range(3)]:
            for name, param in sorted(model.params().items()):
                digest.update(name.encode())
                digest.update(param.data.tobytes())
        assert digest.hexdigest() == \
            "370e8726f28a548a49d97ca728d43359516b39f08b6b5bf96ccbe852df667deb"

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
        LSTM is one node, not 17 per word, each CMSA glimpse is two (its
        attention and its value side) and the fuse two more (F's factor and
        the readout), each conv with its ReLU is one, and so is the blend."""
        config = load_config(CONFIGS / "desk.cfg")
        dc = config.data_config()
        vocab = build_vocabulary(dc)
        built = _record_ops(monkeypatch)
        VqaModel(config, vocab.size).forward(generate_vqa(0, 4, dc, vocab)["train"][0])
        counts = [len(built)]
        pretrain = generate_pretrain(0, 4, dc, vocab)
        for type_id in range(len(TYPE_NAMES)):
            model = PretrainModel(config, vocab.size, type_id)
            built.clear()
            model.forward(pretrain[type_id]["train"][0])
            counts.append(len(built))
        assert counts == [29, 20, 22, 22]
        assert built.count("lstm_sequence") == 1
        # one glimpse: the grid attention, pooled, and the pooled value side
        assert built.count("grid_attention") == built.count("pooled_values") == 1
        assert built.count("attention_glimpse") == built.count("glimpse_values") == 0
        assert built.count("factor_rows") == built.count("factor_readout") == 1

    def test_gradcheck_objective_node_census(self, monkeypatch):
        """Op nodes, by op, of one grad-check objective (forward and loss) at
        configs/gradcheck.cfg dimensions, so a regression names the op."""
        config = load_config(CONFIGS / "gradcheck.cfg")
        dc = config.data_config()
        vocab = build_vocabulary(dc)
        sample = generate_vqa(config.seed, 4, dc, vocab)["train"][0]
        model = VqaModel(config, vocab.size)
        built = _record_ops(monkeypatch)
        logits, gate, _ = model.forward(sample)
        vqa_loss(logits, sample.answer_id, gate.logits, sample.type_id, config.alpha)
        assert Counter(built) == {
            "conv2d_relu": 7,            # the gate stem and 2 layers per backbone
            "weighted_sum": 1,           # the blend
            "grid_attention": 1, "glimpse_values": 1,      # glimpse 0
            "attention_glimpse": 1, "pooled_values": 1,    # the last glimpse, pooled
            "factor_rows": 1, "factor_readout": 1,         # two per fuse
            "lstm_sequence": 1,
            "rows": 2, "concat_last": 1,  # embedding lookup
            "pointwise_channel_map": 3,  # gate projection, answer MLP
            "mean_over_axes": 1, "softmax_rows": 1,  # gate pool and softmax
            "add": 2, "sum_over_axes": 1, "relu": 1,
            "cross_entropy": 2, "scale": 1,
        }
        assert len(built) == 30


def _batch_grads(model, losses) -> dict:
    """The mean loss over a batch and every parameter gradient."""
    params = model.params()
    for p in params.values():
        p.zero_grad()
    total = losses[0]
    for item in losses[1:]:
        total = add(total, item)
    total = scale(total, 1.0 / len(losses))
    total.backward()
    grads = {name: p.grad for name, p in params.items()}
    grads["loss"] = total.data
    return grads


def _bits(arrays: dict) -> dict:
    return {name: a.tobytes() for name, a in arrays.items()}


def _write_version1_bundle(arrays: dict, path) -> None:
    """The bundle format before dtype codes: float64 entries only."""
    header, payload = [b"CMTB", struct.pack("<II", 1, len(arrays))], b""
    for name, arr in arrays.items():
        arr, encoded = np.asarray(arr, "<f8"), name.encode("utf-8")
        header += [struct.pack("<I", len(encoded)), encoded, struct.pack("<I", arr.ndim),
                   struct.pack(f"<{arr.ndim}Q", *arr.shape), struct.pack("<Q", len(payload))]
        payload += arr.tobytes()
    path.write_bytes(b"".join(header) + struct.pack("<Q", len(payload)) + payload)


class TestLayerNodes:
    """A batch of three samples through the layer-level nodes.  The gate, conv
    and blend nodes give the bits of the primitive-op graphs they replace:
    loss and every parameter gradient.  The fuse in factor form reassociates
    the attention's products, so against the primitive-op fuse the loss and
    every gradient (where those of q and v from the glimpses, the residual and
    the heads meet) agree within a relative 1e-12."""

    @staticmethod
    def _compose_vision(patch):
        patch.setattr(model_module, "classify_type", layer_oracles.classify_type_composition)
        patch.setattr(model_module, "backbone_forward", layer_oracles.backbone_composition)
        patch.setattr(model_module, "blend", layer_oracles.blend_composition)

    def _check(self, monkeypatch, model, losses):
        fused = _batch_grads(model, losses())
        with monkeypatch.context() as patch:
            self._compose_vision(patch)
            assert _bits(fused) == _bits(_batch_grads(model, losses()))
        monkeypatch.setattr(model_module, "cmsa_fuse", layer_oracles.cmsa_fuse_composition)
        composed = _batch_grads(model, losses())
        # Q and K of a third glimpse act on rows that two glimpses have nearly
        # averaged, so their gradients cancel: against an 80-bit reference the
        # composition is ~1e-9 off there and the factor path ~1e-12 (see
        # test_fusion's TestFactorPath), so these three are held to 1e-8.
        loose = {f"cmsa/glimpse2/{name}" for name in ("q_w", "q_b", "k_w")}
        for name, got in fused.items():
            want = composed[name]
            if name.endswith("/k_b"):   # analytically zero; the factor path gives exact zeros
                assert not got.any() and np.abs(want).max() <= 1e-12, name
                continue
            rel = np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)
            assert rel <= (1e-8 if name in loose else 1e-12), (name, rel)

    @pytest.mark.parametrize("glimpses", [1, 2, 3])
    def test_vqa_batch_matches_compositions(self, corpus, monkeypatch, glimpses):
        config, vocab, vqa, _ = corpus
        model = VqaModel(replace(config, glimpses=glimpses), vocab.size)

        def losses():
            out = []
            for s in vqa["train"][:3]:
                logits, gate, _ = model.forward(s)
                out.append(vqa_loss(logits, s.answer_id, gate.logits, s.type_id, 0.5)[0])
            return out

        self._check(monkeypatch, model, losses)

    @pytest.mark.parametrize("type_id", [0, 1, 2])
    def test_pretrain_batch_matches_compositions(self, corpus, monkeypatch, type_id):
        config, vocab, _, pretrain = corpus
        model = PretrainModel(config, vocab.size, type_id)

        def losses():
            out = []
            for s in pretrain[type_id]["train"][:3]:
                task_logits, com_logits = model.forward(s)
                out.append(pretrain_loss(task_logits, s.task_target, com_logits,
                                         s.compat_label)[0])
            return out

        self._check(monkeypatch, model, losses)


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

    def test_version1_checkpoint_loads_and_echo_takes_a_byte_per_byte(self, corpus, tmp_path):
        config, vocab, _, _ = corpus
        params = VqaModel(config, vocab.size).params()
        text = "seed = 0\nlr = 0.001  # é\n"
        echo = text.encode("utf-8")
        arrays = {name: t.data for name, t in params.items()}
        arrays["__step__"] = np.array(7.0)
        arrays["__config__"] = np.frombuffer(echo, np.uint8).astype(np.float64)
        old = tmp_path / "v1.cmtb"
        _write_version1_bundle(arrays, old)
        new = tmp_path / "v2.cmtb"
        save_checkpoint(params, 7, text, new)
        for path in (old, new):
            loaded, step, back = load_checkpoint(path)
            assert (step, back) == (7, text)
            assert {n: a.tobytes() for n, a in loaded.items()} == \
                {n: t.data.tobytes() for n, t in params.items()}
        assert read_bundle(new)["__config__"].nbytes == len(echo)
        # a dtype code per entry, and 1 byte instead of 8 per echo byte
        assert old.stat().st_size - new.stat().st_size == 7 * len(echo) - len(arrays)

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
