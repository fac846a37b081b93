"""Fusion tests: the multimodal map, attention passes, and the full fuse."""

import numpy as np
import pytest

from cmvqa import fusion
from cmvqa.fusion import (
    CmsaConfig,
    CmsaState,
    build_multimodal_map,
    cmsa_fuse,
    init_cmsa,
    self_attention_pass,
)
from cmvqa.numerics import NonFiniteError, Rng, ShapeError, Tensor, grad_check, mul, sum_over_axes
from cmvqa.question import QuestionEmbedding
from cmvqa.vision import spatial_map


def small_config(**kw):
    base = dict(l_w=2, g=2, c_v=3, d_q=4, glimpses=2)
    base.update(kw)
    return CmsaConfig(**base)


def random_inputs(gen, config):
    v = Tensor(gen.standard_normal((config.g, config.g, config.c_v)))
    s = spatial_map(config.g)
    q = QuestionEmbedding(
        q=Tensor(gen.standard_normal((config.l_w, config.d_q))), true_length=config.l_w
    )
    return v, s, q


# -- attention loop oracle -------------------------------------------------------


def attention_oracle(f_flat, qw, qb, kw, kb, vw, vb, ow, ob, scaled=False):
    """Naive per-pair attention: explicit dot products and weighted sums."""
    n = f_flat.shape[0]
    q = np.array([f_flat[i] @ qw + qb for i in range(n)])
    k = np.array([f_flat[i] @ kw + kb for i in range(n)])
    v = np.array([f_flat[i] @ vw + vb for i in range(n)])
    d = q.shape[1]
    out = np.zeros((n, f_flat.shape[1]))
    for i in range(n):
        logits = np.array([q[i] @ k[j] for j in range(n)])
        if scaled:
            logits = logits / np.sqrt(d)
        logits -= logits.max()
        weights = np.exp(logits)
        weights /= weights.sum()
        mixed = np.zeros(d)
        for j in range(n):
            mixed += weights[j] * v[j]
        out[i] = mixed @ ow + ob
    return out


class TestSelfAttentionPass:
    def test_matches_loop_oracle_20_instances(self):
        for trial in range(20):
            gen = np.random.default_rng(trial)
            # N = l_w * g * g <= 16
            l_w = int(gen.integers(1, 5))
            g = int(gen.integers(1, 3))
            if l_w * g * g > 16:
                l_w = 1
            c_v = int(gen.integers(1, 4))
            d_q = int(gen.integers(1, 4))
            config = CmsaConfig(l_w=l_w, g=g, c_v=c_v, d_q=d_q, glimpses=1)
            params = init_cmsa(Rng(trial).gen, config).glimpses[0]
            f = gen.standard_normal((l_w, g, g, config.d_f))

            out = self_attention_pass(Tensor(f), params, config).data
            expected = attention_oracle(
                f.reshape(-1, config.d_f),
                params.q_w.data, params.q_b.data,
                params.k_w.data, params.k_b.data,
                params.v_w.data, params.v_b.data,
                params.out_w.data, params.out_b.data,
            ).reshape(out.shape)
            assert np.abs(out - expected).max() <= 1e-9

    def test_zero_qk_weights_give_uniform_attention(self, gen):
        config = small_config(glimpses=1)
        params = init_cmsa(Rng(0).gen, config).glimpses[0]
        params.q_w.data[:] = 0.0
        params.q_b.data[:] = 0.0
        params.k_w.data[:] = 0.0
        f = gen.standard_normal((config.l_w, config.g, config.g, config.d_f))

        state = CmsaState()
        out = self_attention_pass(Tensor(f), params, config, collect=state).data
        n = config.n_positions
        a = state.a[0].data
        assert np.abs(a - 1.0 / n).max() < 1e-12
        # every output position is the affine image of the mean V row
        v = state.v[0].data
        expected_row = v.mean(axis=0) @ params.out_w.data + params.out_b.data
        flat = out.reshape(n, config.d_f)
        assert np.abs(flat - expected_row).max() < 1e-9

    def test_identical_v_rows_make_attention_irrelevant(self, gen):
        config = small_config(glimpses=1)
        params = init_cmsa(Rng(1).gen, config).glimpses[0]
        # force V constant: zero map, constant bias
        params.v_w.data[:] = 0.0
        params.v_b.data[:] = gen.standard_normal(config.qkv_channels)
        f = gen.standard_normal((config.l_w, config.g, config.g, config.d_f))
        out = self_attention_pass(Tensor(f), params, config).data
        flat = out.reshape(config.n_positions, config.d_f)
        assert np.abs(flat - flat[0]).max() < 1e-9

    def test_nonfinite_logits_suggest_scaling(self):
        config = small_config(glimpses=1)
        params = init_cmsa(Rng(2).gen, config).glimpses[0]
        f = np.full((config.l_w, config.g, config.g, config.d_f), 1e160)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="scaled_attention"):
            self_attention_pass(Tensor(f), params, config)

    def test_row_stochastic_attention(self, gen):
        config = small_config(glimpses=1)
        params = init_cmsa(Rng(3).gen, config).glimpses[0]
        state = CmsaState()
        f = gen.standard_normal((config.l_w, config.g, config.g, config.d_f)) * 3
        self_attention_pass(Tensor(f), params, config, collect=state)
        a = state.a[0].data
        assert np.abs(a.sum(axis=1) - 1.0).max() <= 1e-9
        assert (a >= 0).all()

    def test_scaled_variant_divides_logits(self, gen):
        config = small_config(glimpses=1, scaled_attention=True)
        params = init_cmsa(Rng(4).gen, config).glimpses[0]
        f = gen.standard_normal((config.l_w, config.g, config.g, config.d_f))
        out_scaled = self_attention_pass(Tensor(f), params, config).data
        expected = attention_oracle(
            f.reshape(-1, config.d_f),
            params.q_w.data, params.q_b.data,
            params.k_w.data, params.k_b.data,
            params.v_w.data, params.v_b.data,
            params.out_w.data, params.out_b.data,
            scaled=True,
        ).reshape(out_scaled.shape)
        assert np.abs(out_scaled - expected).max() <= 1e-9


# -- multimodal map ----------------------------------------------------------------


class TestBuildMultimodalMap:
    def test_paper_dims_shape(self):
        config = CmsaConfig(l_w=12, g=7, c_v=512, d_q=1024, glimpses=1)
        assert config.d_f == 1544
        gen = np.random.default_rng(0)
        v = Tensor(gen.standard_normal((7, 7, 512)))
        q = QuestionEmbedding(q=Tensor(gen.standard_normal((12, 1024))), true_length=12)
        f = build_multimodal_map(v, spatial_map(7), q, config)
        assert f.shape == (12, 7, 7, 1544)

    def test_channel_order_and_values(self, gen):
        config = small_config()
        v, s, q = random_inputs(gen, config)
        f = build_multimodal_map(v, s, q, config).data
        c_v = config.c_v
        for i in range(config.l_w):
            for r in range(config.g):
                for c in range(config.g):
                    assert np.array_equal(f[i, r, c, :c_v], v.data[r, c])
                    assert np.array_equal(f[i, r, c, c_v : c_v + 8], s.data[r, c])
                    assert np.array_equal(f[i, r, c, c_v + 8 :], q.q.data[i])

    def test_q_slice_constant_over_grid(self, gen):
        config = small_config()
        v, s, q = random_inputs(gen, config)
        f = build_multimodal_map(v, s, q, config).data
        q_slice = f[:, :, :, config.c_v + 8 :]
        for i in range(config.l_w):
            assert np.ptp(q_slice[i].reshape(-1, config.d_q), axis=0).max() == 0.0

    def test_v_slice_constant_over_words(self, gen):
        config = small_config()
        v, s, q = random_inputs(gen, config)
        f = build_multimodal_map(v, s, q, config).data
        v_slice = f[:, :, :, : config.c_v]
        assert np.ptp(v_slice, axis=0).max() == 0.0

    def test_dimension_mismatch(self, gen):
        config = small_config()
        v, s, q = random_inputs(gen, config)
        with pytest.raises(ShapeError):
            build_multimodal_map(Tensor(np.zeros((3, 3, config.c_v))), s, q, config)


# -- full fuse ---------------------------------------------------------------------


class TestCmsaFuse:
    def test_composition_matches_scripted_oracle(self, gen):
        """glimpses=2 fuse == pass∘pass + residual mean-pool + projection, scripted."""
        config = small_config(glimpses=2)
        params = init_cmsa(Rng(7).gen, config)
        v, s, q = random_inputs(gen, config)

        f_hat, state = cmsa_fuse(v, s, q, params, config)

        f0 = build_multimodal_map(v, s, q, config)
        f1 = self_attention_pass(f0, params.glimpses[0], config)
        f2 = self_attention_pass(f1, params.glimpses[1], config)
        pooled = (f2.data + f0.data).mean(axis=(1, 2))
        expected = pooled @ params.proj_w.data + params.proj_b.data
        assert np.abs(f_hat.data - expected).max() < 1e-12

    def test_zero_final_map_reduces_to_spatial_mean(self, gen):
        """With the last out-map zeroed, pre-projection rows are mean(v)+mean(s)+q_i."""
        config = small_config(glimpses=1)
        params = init_cmsa(Rng(8).gen, config)
        params.glimpses[0].out_w.data[:] = 0.0
        params.glimpses[0].out_b.data[:] = 0.0
        # identity projection exposes the pooled vector directly
        params.proj_w.data[:] = 0.0
        params.proj_b.data[:] = 0.0
        v, s, q = random_inputs(gen, config)
        _, state = cmsa_fuse(v, s, q, params, config)
        pooled = (state.f_prime.data + state.f.data).mean(axis=(1, 2))
        for i in range(config.l_w):
            expected = np.concatenate(
                [v.data.mean(axis=(0, 1)), s.data.mean(axis=(0, 1)), q.q.data[i]]
            )
            assert np.abs(pooled[i] - expected).max() < 1e-12

    def test_fuse_and_backward_never_build_f(self, gen, monkeypatch):
        config = small_config(glimpses=2)
        params = init_cmsa(Rng(11).gen, config)
        v, s, q = random_inputs(gen, config)
        v.requires_grad = q.q.requires_grad = True

        def refuse(*args, **kwargs):
            raise AssertionError("build_multimodal_map called")

        with monkeypatch.context() as patch:
            patch.setattr(fusion, "build_multimodal_map", refuse)
            f_hat, state = cmsa_fuse(v, s, q, params, config)
            sum_over_axes(f_hat, (0, 1)).backward()
        assert v.grad is not None and q.q.grad is not None

        g, l_w = config.g, config.l_w
        oracle = np.concatenate([
            np.broadcast_to(v.data, (l_w, g, g, config.c_v)),
            np.broadcast_to(s.data, (l_w, g, g, 8)),
            np.broadcast_to(q.q.data[:, None, None, :], (l_w, g, g, config.d_q)),
        ], axis=-1)
        assert np.array_equal(state.f.data, oracle)

    def test_output_shape_paper_dims(self):
        config = CmsaConfig(l_w=12, g=7, c_v=512, d_q=1024, glimpses=1)
        assert config.qkv_channels == 772
        gen = np.random.default_rng(1)
        params = init_cmsa(gen, config)
        v = Tensor(gen.standard_normal((7, 7, 512)) * 0.1)
        q = QuestionEmbedding(q=Tensor(gen.standard_normal((12, 1024)) * 0.1), true_length=12)
        f_hat, state = cmsa_fuse(v, spatial_map(7), q, params, config)
        assert f_hat.shape == (12, 1024)
        assert state.q[0].shape == (588, 772)
        assert state.a[0].shape == (588, 588)

    def test_grid_permutation_leaves_f_hat_unchanged(self, gen):
        """Permuting grid cells of v and s together permutes A and preserves F̂."""
        config = small_config(glimpses=2)
        params = init_cmsa(Rng(9).gen, config)
        v, s, q = random_inputs(gen, config)
        base, _ = cmsa_fuse(v, s, q, params, config)

        # flatten grid, permute, reshape back
        g = config.g
        perm = np.random.default_rng(3).permutation(g * g)
        v_p = Tensor(v.data.reshape(g * g, -1)[perm].reshape(g, g, config.c_v))
        s_p = Tensor(s.data.reshape(g * g, 8)[perm].reshape(g, g, 8))
        out, _ = cmsa_fuse(v_p, s_p, q, params, config)
        assert np.abs(out.data - base.data).max() < 1e-9

    def test_attention_rows_stochastic_every_glimpse(self, gen):
        config = small_config(glimpses=2)
        params = init_cmsa(Rng(10).gen, config)
        v, s, q = random_inputs(gen, config)
        _, state = cmsa_fuse(v, s, q, params, config)
        assert len(state.a) == 2
        for a in state.a:
            assert np.abs(a.data.sum(axis=1) - 1.0).max() <= 1e-9

    def test_full_gradient_check(self, gen):
        config = CmsaConfig(l_w=2, g=2, c_v=2, d_q=2, glimpses=2)
        params = init_cmsa(Rng(12).gen, config)
        v = Tensor(gen.standard_normal((2, 2, 2)), requires_grad=True)
        s = spatial_map(2)
        q_t = Tensor(gen.standard_normal((2, 2)), requires_grad=True)
        coeffs = Tensor(np.arange(1.0, 5.0).reshape(2, 2))

        def objective():
            q = QuestionEmbedding(q=q_t, true_length=2)
            f_hat, _ = cmsa_fuse(v, s, q, params, config)
            return sum_over_axes(mul(f_hat, coeffs), (0, 1))

        named = {"v": v, "q": q_t, "proj_w": params.proj_w, "proj_b": params.proj_b}
        for gi, gl in enumerate(params.glimpses):
            named.update({
                f"g{gi}.q_w": gl.q_w, f"g{gi}.k_w": gl.k_w, f"g{gi}.v_w": gl.v_w,
                f"g{gi}.out_w": gl.out_w, f"g{gi}.q_b": gl.q_b, f"g{gi}.k_b": gl.k_b,
                f"g{gi}.v_b": gl.v_b, f"g{gi}.out_b": gl.out_b,
            })
        report = grad_check(objective, named, h=1e-5, tol=1e-4)
        assert report.passed, report.summary()
