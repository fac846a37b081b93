"""Image-side tests: backbones, type gate, blend, spatial map."""

import numpy as np
import pytest

from cmvqa.numerics import Rng, ShapeError, Tensor, add, grad_check, mul, sum_over_axes
from cmvqa.vision import (
    TypeGate,
    backbone_forward,
    blend,
    classify_type,
    init_backbone,
    init_type_classifier,
    spatial_map,
)
from layer_oracles import (
    backbone_composition,
    blend_composition,
    classify_type_composition,
    spatial_map_loops,
)


class TestBackbone:
    def test_desk_shape_32_to_4(self, gen):
        params = init_backbone(gen, 32, 1, 4, 32)
        assert len(params.layers) == 3
        out = backbone_forward(Tensor(gen.standard_normal((32, 32, 1))), [params] * 3)
        assert out.shape == (3, 4, 4, 32)

    def test_grid_7_from_56(self, gen):
        params = init_backbone(gen, 56, 1, 7, 16)
        out = backbone_forward(Tensor(gen.standard_normal((56, 56, 1))), [params])
        assert out.shape == (1, 7, 7, 16)

    def test_zero_image_zero_bias_gives_zero(self, gen):
        params = init_backbone(gen, 16, 2, 4, 8)
        out = backbone_forward(Tensor(np.zeros((16, 16, 2))), [params])
        assert np.array_equal(out.data, np.zeros((1, 4, 4, 8)))

    def test_indivisible_size_rejected(self, gen):
        with pytest.raises(ShapeError):
            init_backbone(gen, 30, 1, 4, 8)
        with pytest.raises(ShapeError):
            init_backbone(gen, 32, 1, 5, 8)  # 32/5 not integral

    def test_nonnegative_output(self, gen):
        params = init_backbone(gen, 16, 1, 4, 8)
        out = backbone_forward(Tensor(gen.standard_normal((16, 16, 1))), [params])
        assert (out.data >= 0).all()

    def test_encoders_of_other_depths_rejected(self, gen):
        # layer 0 of both maps 1 channel to 4, so only the depths differ
        deep, shallow = init_backbone(gen, 16, 1, 4, 8), init_backbone(gen, 16, 1, 8, 4)
        with pytest.raises(ValueError, match="zip"):
            backbone_forward(Tensor(np.zeros((16, 16, 1))), [deep, shallow])


class TestTypeGate:
    def test_equal_logits_uniform(self):
        from cmvqa.numerics import softmax_rows

        w = softmax_rows(Tensor(np.zeros(3)))
        assert np.allclose(w.data, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_saturated_logits(self, gen):
        params = init_type_classifier(gen, 1)
        gate = classify_type(Tensor(gen.standard_normal((8, 8, 1))), params)
        # build the saturation case directly on the softmax contract
        from cmvqa.numerics import softmax_rows

        w = softmax_rows(Tensor([30.0, -30.0, -30.0]))
        assert np.abs(w.data - np.array([1.0, 0.0, 0.0])).max() < 1e-9
        # and the classifier output is a valid simplex point
        assert abs(gate.w.data.sum() - 1.0) <= 1e-9
        assert (gate.w.data >= 0).all()

    def test_simplex_invariant_random_images(self, gen):
        params = init_type_classifier(gen, 1)
        for _ in range(20):
            img = Tensor(gen.standard_normal((8, 8, 1)) * 5)
            gate = classify_type(img, params)
            assert abs(gate.w.data.sum() - 1.0) <= 1e-9
            assert (gate.w.data >= 0).all()


class TestBlend:
    def _features(self, gen, shape=(2, 2, 3)):
        return Tensor(gen.standard_normal((3,) + shape))

    def _gate(self, w):
        wt = Tensor(np.asarray(w, dtype=float))
        return TypeGate(logits=wt, w=wt)

    def test_one_hot_selects_exactly(self, gen):
        v = self._features(gen)
        out = blend(v, self._gate([1.0, 0.0, 0.0]))
        assert np.array_equal(out.data, v.data[0])

    def test_uniform_on_identical_inputs_is_identity(self, gen):
        x = gen.standard_normal((2, 2, 3))
        out = blend(Tensor(np.stack([x] * 3)), self._gate([1 / 3, 1 / 3, 1 / 3]))
        assert np.abs(out.data - x).max() < 1e-12

    def test_against_scalar_loop_oracle(self, gen):
        v = self._features(gen)
        w = np.array([0.2, 0.5, 0.3])
        out = blend(v, self._gate(w)).data
        for idx in np.ndindex(2, 2, 3):
            direct = w[0] * v.data[0][idx] + w[1] * v.data[1][idx] + w[2] * v.data[2][idx]
            assert abs(out[idx] - direct) < 1e-12

    def test_bit_identical_to_composition_with_a_dead_encoder(self, gen):
        """Three blends sharing the gate weights, one encoder all zeros under
        negative loss weights, so every term of its weight's gradient is -0.0."""
        w = Tensor(np.array([0.2, 0.5, 0.3]), requires_grad=True)
        gate = TypeGate(logits=w, w=w)
        batch = []
        for _ in range(3):
            v = self._features(gen)
            v.data[1] = 0.0
            v.requires_grad = True
            batch.append((v, Tensor(-np.abs(gen.standard_normal((2, 2, 3))))))

        def bits(combine):
            total = None
            for v, coeffs in batch:
                term = sum_over_axes(mul(combine(v, gate), coeffs), (0, 1, 2))
                total = term if total is None else add(total, term)
            leaves = [w] + [v for v, _ in batch]
            for leaf in leaves:
                leaf.zero_grad()
            total.backward()
            return [total.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves]

        fused = bits(blend)
        assert fused == bits(blend_composition)
        assert np.signbit(w.grad[1]) == 0.0 and w.grad[1] == 0.0

    def test_shape_mismatch(self):
        for shape in ((2, 2, 2, 3), (4, 2, 2, 3), (3,)):
            with pytest.raises(ShapeError, match=rf"weighted_sum of \({shape[0]},"):
                blend(Tensor(np.zeros(shape)), self._gate([1, 0, 0]))


class TestSpatialMap:
    def test_g7_corner_cell(self):
        s = spatial_map(7).data
        expected = [-1, -1, -6 / 7, -6 / 7, -5 / 7, -5 / 7, 2 / 7, 2 / 7]
        assert np.abs(s[0, 0] - expected).max() < 1e-15

    def test_g1_single_cell(self):
        s = spatial_map(1).data
        assert np.array_equal(s[0, 0], [-1, -1, 0, 0, 1, 1, 2, 2])

    def test_centers_average_to_origin(self):
        for g in [1, 2, 3, 7, 8]:
            s = spatial_map(g).data
            assert abs(s[:, :, 2].mean()) < 1e-12
            assert abs(s[:, :, 3].mean()) < 1e-12

    def test_coordinates_in_unit_box_and_constant_wh(self):
        for g in [2, 5, 7]:
            s = spatial_map(g).data
            assert (s[:, :, :6] >= -1 - 1e-15).all() and (s[:, :, :6] <= 1 + 1e-15).all()
            assert np.allclose(s[:, :, 6], 2.0 / g)
            assert np.allclose(s[:, :, 7], 2.0 / g)

    def test_pure_function_of_g(self):
        assert np.array_equal(spatial_map(5).data, spatial_map(5).data)

    def test_x_varies_with_column_y_with_row(self):
        s = spatial_map(4).data
        assert (np.diff(s[0, :, 0]) > 0).all()  # x_tl increases along a row
        assert (np.diff(s[:, 0, 1]) > 0).all()  # y_tl increases down a column
        assert np.allclose(s[0, :, 1], -1.0)    # y_tl constant across a row


    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 7, 12, 14, 56])
    def test_bit_identical_to_cell_loops(self, g):
        assert spatial_map(g).data.tobytes() == spatial_map_loops(g).data.tobytes()


class TestEncodeImage:
    """The image half of VqaModel.forward: type gate, three backbones, blend."""

    def test_gradient_flows_through_gate_into_classifier(self, gen):
        """A loss on v alone must reach the type-classifier parameters."""
        rng = Rng(4)
        backbones = {
            name: init_backbone(rng.child(name).gen, 8, 1, 2, 4)
            for name in ("abdomen", "head", "chest")
        }
        gate_params = init_type_classifier(rng.child("gate").gen, 1)
        image = Tensor(np.random.default_rng(0).standard_normal((8, 8, 1)))
        coeffs = Tensor(np.arange(1.0, 17.0).reshape(2, 2, 4))

        def objective():
            gate = classify_type(image, gate_params)
            v = blend(backbone_forward(image, list(backbones.values())), gate)
            return sum_over_axes(mul(v, coeffs), (0, 1, 2))

        report = grad_check(
            objective,
            {
                "stem.w": gate_params.stem.weight,
                "proj_w": gate_params.proj_w,
                "proj_b": gate_params.proj_b,
                "bb_a.w0": backbones["abdomen"].layers[0].weight,
            },
            h=1e-5,
            tol=1e-4,
        )
        assert report.passed, report.summary()

    def test_all_features_share_shape(self, gen):
        rng = Rng(4)
        backbones = {
            name: init_backbone(rng.child(name).gen, 16, 1, 4, 8)
            for name in ("abdomen", "head", "chest")
        }
        gate_params = init_type_classifier(rng.child("gate").gen, 1)
        image = Tensor(gen.standard_normal((16, 16, 1)))
        gate = classify_type(image, gate_params)
        stack = backbone_forward(image, list(backbones.values()))
        v = blend(stack, gate)
        assert stack.shape == (3,) + v.shape == (3, 4, 4, 8)
        assert gate.w.shape == (3,)

    def test_batch_of_three_bit_identical_to_compositions(self, gen):
        """Gate, backbones and blend on three images sharing the parameters:
        one conv2d_relu node per layer over the encoder axis and one
        weighted_sum node give the value and every parameter gradient of the
        per-encoder conv2d and relu nodes, the stack, and the broadcast, mul
        and sum nodes they replace.  The last image is tracked to a gradient,
        which feeds the gate and the backbones; the first layer's node sums
        the encoders' gradients before its col2im, so the image's gradient
        agrees within a relative 1e-12."""
        rng = Rng(5)
        backbones = [init_backbone(rng.child(name).gen, 16, 1, 2, 6)
                     for name in ("abdomen", "head", "chest")]
        gate_params = init_type_classifier(rng.child("gate").gen, 1)
        images = [Tensor(gen.standard_normal((16, 16, 1)), requires_grad=i == 2)
                  for i in range(3)]
        coeffs = [Tensor(gen.standard_normal((2, 2, 6))) for _ in images]
        params = [gate_params.stem.weight, gate_params.stem.bias, gate_params.proj_w,
                  gate_params.proj_b]
        params += [t for bb in backbones for layer in bb.layers for t in (layer.weight, layer.bias)]

        def run(classify, encode, combine):
            total = None
            for image, c in zip(images, coeffs):
                v = combine(encode(image, backbones), classify(image, gate_params))
                term = sum_over_axes(mul(v, c), (0, 1, 2))
                total = term if total is None else add(total, term)
            for leaf in params + images[2:]:
                leaf.zero_grad()
            total.backward()
            return [total.data.tobytes()] + [p.grad.tobytes() for p in params], images[2].grad

        got, got_image = run(classify_type, backbone_forward, blend)
        want, want_image = run(classify_type_composition, backbone_composition, blend_composition)
        assert got == want
        assert np.abs(got_image - want_image).max() <= 1e-12 * np.abs(want_image).max()
