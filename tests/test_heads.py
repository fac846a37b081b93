"""Head and loss-composition tests."""

import math

import numpy as np
import pytest

from cmvqa.fusion import CmsaConfig, cmsa_fuse, init_cmsa
from cmvqa.heads import (
    compatibility_head,
    image_task_head,
    init_answer_head,
    init_classification_head,
    init_compatibility_head,
    init_segmentation_head,
    mlp_forward,
    predict_answer,
    pretrain_loss,
    vqa_loss,
)
from cmvqa.numerics import Rng, ShapeError, Tensor, cross_entropy, grad_check, sum_over_axes
from cmvqa.question import QuestionEmbedding
from cmvqa.vision import spatial_map
from layer_oracles import segmentation_decoder_composition, segmentation_loss_composition


def answer_oracle(f_hat, q, head):
    """Scripted answer-scoring path: word sum, affine, ReLU, affine."""
    z = (f_hat + q).sum(axis=0)
    h = z @ head.weights[0].data + head.biases[0].data
    h = np.maximum(h, 0.0)
    return h @ head.weights[1].data + head.biases[1].data


class TestPredictAnswer:
    def test_matches_scripted_oracle(self, gen):
        head = init_answer_head(Rng(0).gen, 6, 5)
        f_hat = gen.standard_normal((3, 6))
        q = gen.standard_normal((3, 6))
        out = predict_answer(Tensor(f_hat), Tensor(q), head).data
        assert np.abs(out - answer_oracle(f_hat, q, head)).max() < 1e-12

    def test_cancelling_inputs_give_pure_bias_path(self, gen):
        head = init_answer_head(Rng(1).gen, 4, 3)
        q = gen.standard_normal((2, 4))
        out = predict_answer(Tensor(-q), Tensor(q), head).data
        zero_path = answer_oracle(np.zeros((2, 4)), np.zeros((2, 4)), head)
        assert np.abs(out - zero_path).max() < 1e-12

    def test_doubling_doubles_mlp_input(self, gen):
        head = init_answer_head(Rng(2).gen, 4, 3)
        f_hat = gen.standard_normal((2, 4))
        q = gen.standard_normal((2, 4))
        z1 = (f_hat + q).sum(axis=0)
        z2 = (2 * f_hat + 2 * q).sum(axis=0)
        assert np.abs(z2 - 2 * z1).max() < 1e-12
        out2 = predict_answer(Tensor(2 * f_hat), Tensor(2 * q), head).data
        assert np.abs(out2 - answer_oracle(2 * f_hat, 2 * q, head)).max() < 1e-12

    def test_word_permutation_invariance(self, gen):
        head = init_answer_head(Rng(3).gen, 5, 4)
        f_hat = gen.standard_normal((4, 5))
        q = gen.standard_normal((4, 5))
        base = predict_answer(Tensor(f_hat), Tensor(q), head).data
        perm = gen.permutation(4)
        out = predict_answer(Tensor(f_hat[perm]), Tensor(q[perm]), head).data
        assert np.array_equal(out, base)

    def test_shape_mismatch(self, gen):
        head = init_answer_head(Rng(4).gen, 4, 3)
        with pytest.raises(ShapeError):
            predict_answer(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))), head)


class TestCompatibilityHead:
    def test_two_logits(self, gen):
        head = init_compatibility_head(Rng(5).gen, 8)
        out = compatibility_head(Tensor(gen.standard_normal((3, 8))),
                                 Tensor(gen.standard_normal((3, 8))), head)
        assert out.shape == (2,)

    def test_deterministic(self, gen):
        head = init_compatibility_head(Rng(6).gen, 8)
        f_hat = Tensor(gen.standard_normal((3, 8)))
        q = Tensor(gen.standard_normal((3, 8)))
        a = compatibility_head(f_hat, q, head).data.copy()
        b = compatibility_head(f_hat, q, head).data
        assert np.array_equal(a, b)

    def test_gradient_through_cmsa(self, gen):
        config = CmsaConfig(l_w=2, g=2, c_v=2, d_q=3, glimpses=1)
        cmsa = init_cmsa(Rng(7).gen, config)
        head = init_compatibility_head(Rng(8).gen, 3)
        v = Tensor(gen.standard_normal((2, 2, 2)), requires_grad=True)
        q_t = Tensor(gen.standard_normal((2, 3)), requires_grad=True)

        def objective():
            q = QuestionEmbedding(q=q_t, true_length=2)
            f_hat, _ = cmsa_fuse(v, spatial_map(2), q, cmsa, config)
            logits = compatibility_head(f_hat, q_t, head)
            return cross_entropy(logits, 1)

        report = grad_check(
            objective,
            {
                "v": v, "q": q_t,
                "head.w0": head.weights[0], "head.w1": head.weights[1],
                "cmsa.q_w": cmsa.glimpses[0].q_w, "cmsa.proj_w": cmsa.proj_w,
            },
            h=1e-5,
            tol=1e-4,
        )
        assert report.passed, report.summary()


class TestImageTaskHead:
    def test_classification_shape(self, gen):
        head = init_classification_head(Rng(9).gen, 8, 3)
        out = image_task_head(Tensor(gen.standard_normal((4, 4, 8))), "classification", head, 4)
        assert out.shape == (3,)
        assert len(head.weights) == 3  # 3 affine layers

    def test_segmentation_restores_image_size(self, gen):
        head = init_segmentation_head(Rng(10).gen, 8)
        out = image_task_head(Tensor(gen.standard_normal((4, 4, 8))), "segmentation", head, 4)
        assert out.shape == (16, 16, 2)
        assert [w.shape for w in head.weights] == [(8, 8), (8, 2)]

    @pytest.mark.parametrize("g, c_v, factor, k", [(4, 8, 4, 2), (2, 5, 2, 3), (3, 4, 8, 2)])
    def test_segmentation_matches_decoder_composition(self, gen, g, c_v, factor, k):
        """The per-cell MLP, upsampled, and its loss on the (H, W, K) map give
        the value and every gradient of the decoder whose second 1x1 map runs
        on every pixel, with the loss on its (H * W, K) rows, within a
        relative 1e-12."""
        head = init_segmentation_head(Rng(13).gen, c_v, k)
        for b in head.biases:
            b.data[...] = gen.standard_normal(b.shape)
        features = Tensor(np.maximum(gen.standard_normal((g, g, c_v)), 0.0), requires_grad=True)
        mask = gen.integers(0, k, size=(g * factor, g * factor))
        tensors = [features] + head.weights + head.biases

        def run(decoder, loss):
            for t in tensors:
                t.zero_grad()
            logits = decoder(features, "segmentation", head, factor)
            total = loss(logits, mask)
            total.backward()
            return [logits.data, total.data] + [t.grad for t in tensors]

        got = run(image_task_head, cross_entropy)
        want = run(segmentation_decoder_composition, segmentation_loss_composition)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_unknown_kind(self, gen):
        head = init_classification_head(Rng(11).gen, 8, 3)
        with pytest.raises(ValueError, match="unknown image task"):
            image_task_head(Tensor(np.zeros((4, 4, 8))), "detection", head, 4)

    def test_saturated_segmentation_loss_near_zero(self):
        # logits strongly favoring class 1 everywhere, all-ones mask
        logits = np.zeros((4, 4, 2))
        logits[:, :, 1] = 30.0
        logits[:, :, 0] = -30.0
        mask = np.ones((4, 4), dtype=int)
        loss, report = pretrain_loss(
            Tensor(logits), mask, Tensor([0.0, 30.0]), 1
        )
        assert report.l_spe < 1e-12
        with pytest.raises(ShapeError):
            pretrain_loss(Tensor(logits), mask[:, :3], Tensor([0.0, 30.0]), 1)


class TestLossCompositions:
    def test_vqa_total_formula(self):
        # force exact component values via saturated two-logit constructions
        # l_vqa = 1.0 and l_type = 0.4 are checked through the formula directly
        t, report = vqa_loss(Tensor([0.0, 0.0]), 0, Tensor([0.0, 0.0, 0.0]), 1, alpha=0.5)
        assert report.total == report.l_vqa + 0.5 * report.l_type
        assert abs(report.l_vqa - math.log(2)) < 1e-12
        assert abs(report.l_type - math.log(3)) < 1e-12
        assert abs(t.item() - report.total) < 1e-15

    def test_eq2_example_values(self):
        # composition with l_vqa=1.0, l_type=0.4 gives 1.2
        assert 1.0 + 0.5 * 0.4 == 1.2

    def test_alpha_zero_drops_type_term(self, gen):
        z_a = Tensor(gen.standard_normal(5))
        z_t = Tensor(gen.standard_normal(3))
        total, report = vqa_loss(z_a, 2, z_t, 1, alpha=0.0)
        assert report.total == report.l_vqa
        assert total.item() == report.l_vqa

    def test_perfect_predictions_near_zero(self):
        z_a = Tensor([40.0, -40.0, -40.0])
        z_t = Tensor([-40.0, 40.0, -40.0])
        _, report = vqa_loss(z_a, 0, z_t, 1)
        assert report.total < 1e-12

    def test_pretrain_plain_sum(self, gen):
        z_spe = Tensor(gen.standard_normal(3))
        z_com = Tensor(gen.standard_normal(2))
        total, report = pretrain_loss(z_spe, 1, z_com, 0)
        assert report.total == report.l_spe + report.l_com
        assert abs(total.item() - report.total) < 1e-15

    def test_pretrain_without_compat_is_task_loss(self, gen):
        z_spe = Tensor(gen.standard_normal(3))
        total, report = pretrain_loss(z_spe, 1, None, 0)
        assert total.item() == cross_entropy(z_spe, 1).item()
        assert report.total == report.l_spe == total.item()
        assert report.l_com is None

    def test_uniform_compat_is_ln2(self, gen):
        _, report = pretrain_loss(Tensor(gen.standard_normal(3)), 0, Tensor([0.0, 0.0]), 1)
        assert abs(report.l_com - math.log(2)) < 1e-12

    def test_both_heads_perfect(self):
        _, report = pretrain_loss(Tensor([40.0, -40.0]), 0, Tensor([-40.0, 40.0]), 1)
        assert report.total < 1e-12

    def test_invalid_binary_target(self, gen):
        with pytest.raises(ValueError):
            pretrain_loss(Tensor(gen.standard_normal(3)), 0, Tensor([0.0, 0.0]), 2)

    def test_report_total_bit_exact_recompute(self, gen):
        for _ in range(20):
            z_a = Tensor(gen.standard_normal(5) * 3)
            z_t = Tensor(gen.standard_normal(3) * 3)
            _, report = vqa_loss(z_a, int(gen.integers(0, 5)), z_t, int(gen.integers(0, 3)))
            assert report.total == report.l_vqa + 0.5 * report.l_type
            z_s = Tensor(gen.standard_normal(4) * 3)
            z_c = Tensor(gen.standard_normal(2) * 3)
            _, report = pretrain_loss(z_s, int(gen.integers(0, 4)), z_c, int(gen.integers(0, 2)))
            assert report.total == report.l_spe + report.l_com

    def test_cross_entropy_shift_invariance(self, gen):
        z = gen.standard_normal(6)
        for c in [-5.0, 0.25, 100.0]:
            a = cross_entropy(Tensor(z), 3).item()
            b = cross_entropy(Tensor(z + c), 3).item()
            assert abs(a - b) < 1e-12


class TestMlp:
    def test_relu_between_but_not_after_last(self, gen):
        from cmvqa.heads import init_mlp

        mlp = init_mlp(Rng(12).gen, [3, 4, 2])
        x = gen.standard_normal(3)
        out = mlp_forward(Tensor(x), mlp).data
        # logits may be negative; hidden activations may not
        h = np.maximum(x @ mlp.weights[0].data + mlp.biases[0].data, 0.0)
        expected = h @ mlp.weights[1].data + mlp.biases[1].data
        assert np.abs(out - expected).max() < 1e-12
