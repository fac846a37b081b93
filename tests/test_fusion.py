"""Fusion tests: the multimodal map, attention passes, and the full fuse."""

import tracemalloc

import numpy as np
import pytest

from cmvqa import fusion
from cmvqa.fusion import (
    CmsaConfig,
    CmsaState,
    OneHotGrid,
    build_multimodal_map,
    cmsa_fuse,
    init_cmsa,
    self_attention_pass,
)
from cmvqa.numerics import (
    NonFiniteError,
    Rng,
    ShapeError,
    Tensor,
    add,
    attention_glimpse,
    factor_rows,
    glimpse_values,
    grad_check,
    grid_attention,
    mean_over_axes,
    mul,
    pooled_values,
    reshape,
    sum_over_axes,
)
from cmvqa.question import QuestionEmbedding
from cmvqa.vision import spatial_map
from layer_oracles import (
    Collected,
    cmsa_fuse_composition,
    full_map_composition,
    map_pair,
    one_hot_basis,
    pair_map,
    phi0_blocks,
    self_attention_composition,
    self_attention_map,
)


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


def attention_oracle(f_flat, qw, qb, kw, kb, vw, vb, ow, ob):
    """Naive per-pair attention: explicit dot products and weighted sums."""
    n = f_flat.shape[0]
    q = np.array([f_flat[i] @ qw + qb for i in range(n)])
    k = np.array([f_flat[i] @ kw + kb for i in range(n)])
    v = np.array([f_flat[i] @ vw + vb for i in range(n)])
    d = q.shape[1]
    out = np.zeros((n, f_flat.shape[1]))
    for i in range(n):
        logits = np.array([q[i] @ k[j] for j in range(n)])
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

            out = self_attention_map(Tensor(f), params, config).data
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
        out = self_attention_map(Tensor(f), params, config, collect=state).data
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
        out = self_attention_map(Tensor(f), params, config).data
        flat = out.reshape(config.n_positions, config.d_f)
        assert np.abs(flat - flat[0]).max() < 1e-9

    def test_nonfinite_logits_named(self):
        config = small_config(glimpses=1)
        params = init_cmsa(Rng(2).gen, config).glimpses[0]
        f = np.full((config.l_w, config.g, config.g, config.d_f), 1e160)
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteError, match="attention logits overflowed"):
            self_attention_map(Tensor(f), params, config)

    def test_row_stochastic_attention(self, gen):
        config = small_config(glimpses=1)
        params = init_cmsa(Rng(3).gen, config).glimpses[0]
        state = CmsaState()
        f = gen.standard_normal((config.l_w, config.g, config.g, config.d_f)) * 3
        self_attention_map(Tensor(f), params, config, collect=state)
        a = state.a[0].data
        assert np.abs(a.sum(axis=1) - 1.0).max() <= 1e-9
        assert (a >= 0).all()


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
        f1 = self_attention_map(f0, params.glimpses[0], config)
        f2 = self_attention_map(f1, params.glimpses[1], config)
        pooled = (f2.data + f0.data).mean(axis=(1, 2))
        expected = pooled @ params.proj_w.data + params.proj_b.data
        assert np.abs(f_hat.data - expected).max() < 1e-12

    def test_zero_final_map_reduces_to_spatial_mean(self, gen):
        """With the last out-map zeroed, the pooled output is zero and the
        pre-projection rows are [mean v | mean s | q_i]."""
        config = small_config(glimpses=1)
        params = init_cmsa(Rng(8).gen, config)
        params.glimpses[0].out_w.data[:] = 0.0
        params.glimpses[0].out_b.data[:] = 0.0
        v, s, q = random_inputs(gen, config)
        f_hat, state = cmsa_fuse(v, s, q, params, config)
        assert state.f_prime.shape == (config.l_w, config.d_f)
        assert not state.f_prime.data.any()
        grid_mean = np.concatenate([v.data.mean(axis=(0, 1)), s.data.mean(axis=(0, 1))])
        rows = state.f_prime.data + np.concatenate(
            [np.broadcast_to(grid_mean, (config.l_w, grid_mean.size)), q.q.data], axis=1)
        for i in range(config.l_w):
            assert np.abs(rows[i] - np.concatenate([grid_mean, q.q.data[i]])).max() < 1e-12
        expected = rows @ params.proj_w.data + params.proj_b.data
        assert np.abs(f_hat.data - expected).max() < 1e-12

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


# -- pooled last glimpse -----------------------------------------------------------


def _leaves(out):
    """Every leaf tensor under ``out`` that takes a gradient."""
    seen, stack, leaves = set(), [out], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.requires_grad and not node._parents:
            leaves.append(node)
        stack.extend(node._parents)
    return leaves


def _grads(objective, leaves):
    for leaf in leaves:
        leaf.zero_grad()
    objective().backward()
    return [leaf.grad for leaf in leaves]


def _rel(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


# every comparison of the factor path with a composition of primitive ops
REL_TOL = 1e-12


def _assert_grads_close(leaves, got, want, k_bs):
    for leaf, g, w in zip(leaves, got, want):
        if any(leaf is k_b for k_b in k_bs):   # analytically zero, so roundoff on both sides
            assert np.abs(g).max() <= 1e-12 and np.abs(w).max() <= 1e-12
        else:
            assert _rel(g, w) <= REL_TOL, leaf.shape


def _glimpse_input(gen, config, factors):
    """The glimpse's input as (pair for self_attention_pass, input of the composition)."""
    if factors:
        v, s, q = random_inputs(gen, config)
        v.requires_grad = q.q.requires_grad = True
        return (OneHotGrid(config.l_w), factor_rows(v, s, q.q)), (v, s, q.q)
    shape = (config.l_w, config.g, config.g, config.d_f)
    x = Tensor(gen.standard_normal(shape), requires_grad=True)
    return map_pair(x), x


class TestPooledPass:
    """pool=True equals the grid mean of the full pass, in value and gradient."""

    @pytest.mark.parametrize("factors", [False, True], ids=["map", "factors"])
    def test_matches_mean_of_full_pass(self, gen, factors):
        config = CmsaConfig(l_w=3, g=2, c_v=3, d_q=4, glimpses=1)
        params = init_cmsa(Rng(20).gen, config).glimpses[0]
        for p in vars(params).values():
            p.data += gen.standard_normal(p.shape) * 0.1   # nonzero biases
        pair, _ = _glimpse_input(gen, config, factors)
        coeffs = Tensor(gen.standard_normal((config.l_w, config.d_f)))
        full_shape = (config.l_w, config.g, config.g, config.d_f)

        def pooled():
            return self_attention_pass(pair, params, config, pool=True)

        def full():
            return mean_over_axes(pair_map(self_attention_pass(pair, params, config),
                                           full_shape), (1, 2))

        assert pooled().shape == (config.l_w, config.d_f)
        assert _rel(pooled().data, full().data) <= REL_TOL

        leaves = _leaves(full())
        assert len(leaves) == (10 if factors else 9)
        got = _grads(lambda: sum_over_axes(mul(pooled(), coeffs), (0, 1)), leaves)
        want = _grads(lambda: sum_over_axes(mul(full(), coeffs), (0, 1)), leaves)
        _assert_grads_close(leaves, got, want, [params.k_b])

    @pytest.mark.parametrize("glimpses", [1, 2])
    def test_fuse_matches_full_path_composition(self, gen, glimpses):
        config = small_config(glimpses=glimpses)
        params = init_cmsa(Rng(21).gen, config)
        v, s, q = random_inputs(gen, config)
        v.requires_grad = q.q.requires_grad = True
        coeffs = Tensor(gen.standard_normal((config.l_w, config.d_q)))

        def composed():
            return full_map_composition(v, s, q, params, config)

        f_hat = cmsa_fuse(v, s, q, params, config)[0]
        assert _rel(f_hat.data, composed().data) <= REL_TOL

        leaves = _leaves(f_hat)
        assert len(leaves) == 4 + 8 * glimpses
        got = _grads(lambda: sum_over_axes(mul(
            cmsa_fuse(v, s, q, params, config)[0], coeffs), (0, 1)), leaves)
        want = _grads(lambda: sum_over_axes(mul(composed(), coeffs), (0, 1)), leaves)
        _assert_grads_close(leaves, got, want, [gl.k_b for gl in params.glimpses])

    @pytest.mark.parametrize("glimpses", [1, 2])
    def test_last_glimpse_builds_no_full_v_or_output(self, gen, glimpses):
        """At gradcheck dims no glimpse builds an (N, qkv) or (N, D_f) map,
        forward or backward: every product with a glimpse's weights runs on
        the r = L_w + G * G rows of the factor, or on those and the constant
        row, except the last glimpse's value and out maps, which run on its
        L_w pooled rows, and glimpse 0's unpooled Q, K and V maps, which run
        on Phi_0's word block and cell block only; recorded by shape."""
        config = CmsaConfig(l_w=3, g=2, c_v=8, d_q=8, glimpses=glimpses)
        params = init_cmsa(Rng(22).gen, config)
        v, s, q = random_inputs(gen, config)
        v.requires_grad = True
        products = []
        for i, gl in enumerate(params.glimpses):
            for name in ("q_w", "k_w", "v_w", "out_w"):
                w = getattr(gl, name)
                w.data = _Spy.of(w.data, (i, name), products)
        f_hat, state = cmsa_fuse(v, s, q, params, config)
        sum_over_axes(f_hat, (0, 1)).backward()

        l_w, cells = config.l_w, config.g ** 2
        r, c = l_w + cells, config.c_v + 8
        qkv, d_f = config.qkv_channels, config.d_f
        # K's map skips the constant row; forward X W and backward g W^T
        shapes = {"q_w": ((d_f, qkv), (qkv, d_f)), "k_w": ((d_f, qkv), (qkv, d_f)),
                  "v_w": ((d_f, qkv), (qkv, d_f)), "out_w": ((qkv, d_f), (d_f, qkv))}
        # the word rows by W's last D_q rows, the cell rows by its first C_v + 8
        blocks = {((l_w, d_f - c), (d_f - c, qkv)), ((cells, c), (c, qkv)),
                  ((l_w, qkv), (qkv, d_f - c)), ((cells, qkv), (qkv, c))}
        blocked = 3 if glimpses > 1 else 2   # Q, K, and V unless glimpse 0 is pooled
        assert len(products) == 4 * 2 * glimpses + 2 * blocked
        for tags, operands in products:
            (i, name), = tags - {None}
            pooled = i == glimpses - 1 and name in ("v_w", "out_w")
            allowed = {((rows, w[0]), w) for w in shapes[name]
                       for rows in ((l_w,) if pooled else (r, r + 1))}
            if i == 0 and name != "out_w" and not pooled:
                allowed = blocks
            assert operands in allowed, (i, name, operands)
        assert len(state.a) == len(state.q) == len(state.v) == glimpses


class _Spy(np.ndarray):
    """An array, and its views, that log the operand shapes of each matmul
    they enter, with the tags of the spied operands."""

    @classmethod
    def of(cls, data, tag, log):
        spy = data.view(cls)
        spy.tag, spy.log = tag, log
        return spy

    def __array_finalize__(self, obj):
        self.tag, self.log = getattr(obj, "tag", None), getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.log.append(({getattr(x, "tag", None) for x in inputs},
                             tuple(np.shape(x) for x in inputs)))
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _Spy) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


# -- two nodes per glimpse -----------------------------------------------------------


class TestGlimpseNode:
    """self_attention_pass on the pair of F's factors, or on a map as the pair
    (identity, [X; 0]), gives the primitive-op composition's output, Q, K, V,
    A and gradients within a relative 1e-12."""

    @pytest.mark.parametrize("factors", [False, True], ids=["map", "factors"])
    @pytest.mark.parametrize("pool", [False, True], ids=["full", "pooled"])
    @pytest.mark.parametrize("dims", [dict(l_w=3, g=2, c_v=3, d_q=4),
                                      dict(l_w=4, g=5, c_v=40, d_q=52)], ids=["small", "wide"])
    def test_batch_of_three_bit_identical_to_composition(self, gen, factors, pool, dims):
        config = CmsaConfig(**dims, glimpses=1)
        params = init_cmsa(Rng(30).gen, config).glimpses[0]
        for p in vars(params).values():
            p.data += gen.standard_normal(p.shape) * 0.1   # nonzero biases
        inputs = [_glimpse_input(gen, config, factors) for _ in range(3)]
        out_shape = (config.l_w, config.d_f) if pool else (config.l_w, config.g, config.g,
                                                           config.d_f)
        coeffs = [Tensor(gen.standard_normal(out_shape)) for _ in inputs]
        leaves = list(vars(params).values())
        leaves += [t for _, f_in in inputs for t in (f_in if factors else (f_in,))
                   if t.requires_grad]

        def arrays(attend, state):
            outs = [attend(f_in, state) for f_in in inputs]
            total = None
            for out, c in zip(outs, coeffs):
                term = sum_over_axes(mul(out, c), tuple(range(len(out_shape))))
                total = term if total is None else add(total, term)
            for leaf in leaves:
                leaf.zero_grad()
            total.backward()
            return [t.data for t in outs], state, [leaf.grad for leaf in leaves]

        def attend(f_in, state):
            out = self_attention_pass(f_in[0], params, config, collect=state, pool=pool)
            return out if pool else pair_map(out, out_shape)

        got = arrays(attend, CmsaState())
        want = arrays(lambda f_in, state: self_attention_composition(
            f_in[1], params, config, collect=state, pool=pool), Collected())
        for g, w in zip(got[0], want[0]):
            assert _rel(g, w) <= REL_TOL
        for name in ("q", "k", "v", "a"):
            collected = getattr(want[1], name)
            assert len(collected) == (0 if name == "v" and pool and not factors else 3)
            for g, w in zip(getattr(got[1], name), collected):
                assert _rel(g.data, w.data) <= REL_TOL, name
        _assert_grads_close(leaves, got[2], want[2], [params.k_b])

    def test_names_the_stage_of_a_non_finite_map(self):
        config = small_config(glimpses=1)
        params = init_cmsa(Rng(2).gen, config).glimpses[0]
        params.k_w.data[0, 0] = 1e308
        f = np.full((config.l_w, config.g, config.g, config.d_f), 1e10)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="k map") as err:
            self_attention_pass(map_pair(Tensor(f)), params, config)
        assert err.value.op == "attention_glimpse"


# -- the factor path against the primitive-op fuse -----------------------------------


GRADCHECK_DIMS = dict(l_w=3, g=2, c_v=8, d_q=8)
DESK_DIMS = dict(l_w=6, g=4, c_v=32, d_q=32)
PAPER_DIMS = dict(l_w=12, g=7, c_v=512, d_q=1024)


def _fuse_case(config, seed=0):
    """Initial parameters, model-like inputs (v >= 0 as after a ReLU, q in
    (-1, 1) as LSTM states) and the coefficients of a scalar objective; the
    leaves are named as in the model's registry."""
    gen = np.random.default_rng(seed)
    params = init_cmsa(gen, config)
    v = Tensor(np.maximum(gen.standard_normal((config.g, config.g, config.c_v)), 0.0),
               requires_grad=True)
    q = Tensor(np.tanh(gen.standard_normal((config.l_w, config.d_q))), requires_grad=True)
    coeffs = gen.standard_normal((config.l_w, config.d_q))
    leaves = {"v": v, "q": q, "proj_w": params.proj_w, "proj_b": params.proj_b}
    for i, gl in enumerate(params.glimpses):
        leaves.update({f"glimpse{i}/{name}": t for name, t in vars(gl).items()})
    return params, v, q, coeffs, leaves


def _fuse_grads(fuse, config, case, dtype=np.float64):
    """f_hat and every leaf gradient of sum(f_hat * coeffs), computed in ``dtype``."""
    params, v, q, coeffs, leaves = case
    saved = {name: t.data for name, t in leaves.items()}
    try:
        for t in leaves.values():
            t.data = t.data.astype(dtype)
            t.zero_grad()
        s = spatial_map(config.g)
        s.data = s.data.astype(dtype)
        f_hat = fuse(v, s, QuestionEmbedding(q=q), params, config)[0]
        sum_over_axes(mul(f_hat, Tensor(coeffs.astype(dtype))), (0, 1)).backward()
        return f_hat.data, {name: t.grad for name, t in leaves.items()}
    finally:
        for name, t in leaves.items():
            t.data = saved[name]


def _assert_fuse_matches_composition(config):
    case = _fuse_case(config)
    f_hat, grads = _fuse_grads(cmsa_fuse, config, case)
    f_want, want = _fuse_grads(cmsa_fuse_composition, config, case)
    assert _rel(f_hat, f_want) <= REL_TOL
    assert len(grads) == 4 + 8 * config.glimpses
    for name, g in grads.items():
        if name.endswith("/k_b"):   # analytically zero: exact zeros on the factor path
            assert g is not None and not g.any() and np.abs(want[name]).max() <= 1e-12
        else:
            assert _rel(g, want[name]) <= REL_TOL, name


class TestFactorPath:
    @pytest.mark.parametrize("glimpses", [1, 2])
    @pytest.mark.parametrize("dims", [GRADCHECK_DIMS, DESK_DIMS], ids=["gradcheck", "desk"])
    def test_fuse_matches_composition(self, dims, glimpses):
        _assert_fuse_matches_composition(CmsaConfig(**dims, glimpses=glimpses))

    def test_paper_dims_match_composition(self):
        """f_hat, the 18 parameter gradients and those of v and q at N = 588,
        D_f = 1544; the two key biases' gradients are zeros, not None."""
        _assert_fuse_matches_composition(CmsaConfig(**PAPER_DIMS, glimpses=2))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("dims", [GRADCHECK_DIMS, DESK_DIMS], ids=["gradcheck", "desk"])
    def test_three_glimpses_at_least_as_accurate_as_composition(self, dims):
        """A third glimpse attends over rows two glimpses have nearly averaged,
        so the gradients of its Q and K maps cancel and float64 loses digits.
        Against the composition run in 80-bit long double, every gradient of
        the factor path is within 1e-12, or no further off than the float64
        composition."""
        config = CmsaConfig(**dims, glimpses=3)
        case = _fuse_case(config)
        ref = _fuse_grads(cmsa_fuse_composition, config, case, np.longdouble)[1]
        got = _fuse_grads(cmsa_fuse, config, case)[1]
        composed = _fuse_grads(cmsa_fuse_composition, config, case)[1]
        for name, g in got.items():
            if not name.endswith("/k_b"):
                err = float(_rel(g, ref[name]))
                assert err <= max(REL_TOL, float(_rel(composed[name], ref[name]))), name


# -- glimpse 0 on the one-hot grid ---------------------------------------------------


def _peak_bytes(run):
    """The most bytes ``run`` held at once beyond what was held before it."""
    tracemalloc.start()
    try:
        run()   # a first run, so later ones allocate only what they need
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestGridGlimpse:
    """grid_attention against attention_glimpse on the one-hot basis it never
    builds, pooled_values against glimpse_values and the grid mean, and no
    (N, N) array in glimpse 0."""

    @pytest.mark.parametrize("pool", [False, True], ids=["full", "pooled"])
    @pytest.mark.parametrize("dims", [GRADCHECK_DIMS, dict(l_w=4, g=5, c_v=40, d_q=52)],
                             ids=["gradcheck", "wide"])
    def test_grid_attention_matches_attention_glimpse_on_one_hot_basis(self, gen, dims, pool):
        config = CmsaConfig(**dims, glimpses=1)
        params = init_cmsa(Rng(40).gen, config).glimpses[0]
        weights = [params.q_w, params.q_b, params.k_w, params.k_b]
        for w in weights:
            w.data += gen.standard_normal(w.shape) * 0.1   # nonzero biases
        r = config.l_w + config.g ** 2
        blocks = (config.l_w, config.c_v + 8)
        in_blocks = phi0_blocks((r + 1, config.d_f), blocks)
        phi = Tensor(np.where(in_blocks, gen.standard_normal(in_blocks.shape) * 0.5, 0.0),
                     requires_grad=True)
        rows = config.l_w if pool else config.n_positions
        coeffs = Tensor(gen.standard_normal((rows, r)))
        leaves = [phi] + weights

        out, ab = grid_attention(phi, weights, blocks, pool)
        want, a = attention_glimpse(one_hot_basis(config), phi, weights,
                                    config.l_w if pool else 0)
        assert out.shape == want.shape == (rows, r)
        assert _rel(out.data, want.data) <= REL_TOL
        l_w = config.l_w
        grid_a = (ab[:, :l_w, None] * ab[:, None, l_w:]).reshape(config.n_positions, -1)
        assert _rel(grid_a, a) <= REL_TOL
        got_grads = _grads(lambda: sum_over_axes(mul(out, coeffs), (0, 1)), leaves)
        want_grads = _grads(lambda: sum_over_axes(mul(want, coeffs), (0, 1)), leaves)
        # Phi_0's gradient only where factor_rows reads it, zero elsewhere
        assert _rel(got_grads[0][in_blocks], want_grads[0][in_blocks]) <= REL_TOL
        assert not got_grads[0][~in_blocks].any()
        for g, w in zip(got_grads[1:], want_grads[1:]):
            assert _rel(g, w) <= REL_TOL
        assert not got_grads[-1].any()   # b_k's gradient: zeros, not None

    @pytest.mark.parametrize("pool", [False, True], ids=["full", "pooled"])
    @pytest.mark.parametrize("dims", [GRADCHECK_DIMS, dict(l_w=1, g=3, c_v=4, d_q=5),
                                      dict(l_w=4, g=1, c_v=4, d_q=5)],
                             ids=["gradcheck", "one-word", "one-cell"])
    def test_glimpse0_never_reads_phi0_zeros(self, gen, dims, pool):
        """With NaN in every entry of Phi_0 that factor_rows leaves zero, glimpse
        0's attention and values, Phi_0's gradient and every weight's keep the
        bytes of the clean run."""
        config = CmsaConfig(**dims, glimpses=1)
        params = init_cmsa(Rng(43).gen, config).glimpses[0]
        for p in vars(params).values():
            p.data += gen.standard_normal(p.shape) * 0.1   # nonzero biases
        v, s, q = random_inputs(gen, config)
        clean = factor_rows(v, s, q.q).data
        blocks = (config.l_w, config.c_v + 8)
        dirty = np.where(phi0_blocks(clean.shape, blocks), clean, np.nan)
        weights = list(vars(params).values())
        r = clean.shape[0] - 1
        coeffs = (Tensor(gen.standard_normal((config.l_w if pool else config.n_positions, r))),
                  Tensor(gen.standard_normal((r + 1, config.d_f))))

        def run(data):
            phi = Tensor(data, requires_grad=True)
            for w in weights:
                w.zero_grad()
            rows, ab = grid_attention(phi, weights[:4], blocks, pool)
            values = glimpse_values(phi, weights[4:], blocks)
            add(sum_over_axes(mul(rows, coeffs[0]), (0, 1)),
                sum_over_axes(mul(values, coeffs[1]), (0, 1))).backward()
            return [rows.data, ab, values.data, phi.grad] + [w.grad for w in weights]

        for got, want in zip(run(dirty), run(clean)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("g", [4, 5])
    def test_glimpse0_key_rows_of_cell_constant_channels_get_exact_zeros(self, g):
        """The spatial channels 6 and 7, the cell width and height, are 2/G at
        every cell, so the cell softmax cancels them: their rows of glimpse 0's
        W_k get exact zeros, not roundoff, and the other rows do not."""
        config = CmsaConfig(l_w=3, g=g, c_v=6, d_q=5, glimpses=2)
        k_w = _fuse_grads(cmsa_fuse, config, _fuse_case(config))[1]["glimpse0/k_w"]
        wh = config.c_v + 6
        assert not k_w[wh:wh + 2].any()
        assert np.abs(np.delete(k_w, [wh, wh + 1], axis=0)).min(axis=1).all()

    @pytest.mark.parametrize("dims", [GRADCHECK_DIMS, DESK_DIMS], ids=["gradcheck", "desk"])
    def test_pooled_values_match_glimpse_values_then_grid_mean(self, gen, dims):
        config = CmsaConfig(**dims, glimpses=1)
        params = init_cmsa(Rng(41).gen, config).glimpses[0]
        weights = [params.v_w, params.v_b, params.out_w, params.out_b]
        for w in weights:
            w.data += gen.standard_normal(w.shape) * 0.1
        l_w, cells = config.l_w, config.g ** 2
        r = l_w + cells
        rows = Tensor(gen.random((config.n_positions, r)), requires_grad=True)
        phi = Tensor(gen.standard_normal((r + 1, config.d_f)), requires_grad=True)
        coeffs = Tensor(gen.standard_normal((l_w, config.d_f)))
        leaves = [rows, phi] + weights

        pooled_rows = mean_over_axes(reshape(rows, (l_w, cells, r)), (1,))
        got = pooled_values(pooled_rows, phi, weights)
        full = pair_map((rows, glimpse_values(phi, weights)), (l_w, cells, config.d_f))
        want = mean_over_axes(full, (1,))
        assert _rel(got.data, want.data) <= REL_TOL
        for g, w in zip(_grads(lambda: sum_over_axes(mul(got, coeffs), (0, 1)), leaves),
                        _grads(lambda: sum_over_axes(mul(want, coeffs), (0, 1)), leaves)):
            assert _rel(g, w) <= REL_TOL

    def test_glimpse0_builds_no_n_by_n_array(self, gen):
        """With 24 words on a 7 x 7 grid, N = 1176 and an (N, N) float64 array
        is 11 MB, while glimpse 0's own arrays are (N, r), r = 73: forward and
        backward of glimpse 0, and the whole fuse and backward with one
        glimpse, never hold 11 MB at once.  The same glimpse on the built
        basis B_0 does."""
        config = CmsaConfig(l_w=24, g=7, c_v=2, d_q=2, glimpses=1)
        n_by_n = config.n_positions ** 2 * 8
        params = init_cmsa(Rng(42).gen, config)
        v, s, q = random_inputs(gen, config)
        v.requires_grad = q.q.requires_grad = True
        coeffs = Tensor(gen.standard_normal((config.n_positions, config.d_f)))

        def glimpse0(b):
            def run():
                phi = factor_rows(v, s, q.q)
                pair = self_attention_pass((b, phi), params.glimpses[0], config)
                out = pair_map(pair, (config.n_positions, config.d_f))
                sum_over_axes(mul(out, coeffs), (0, 1)).backward()
            return run

        def fuse():
            sum_over_axes(cmsa_fuse(v, s, q, params, config)[0], (0, 1)).backward()

        assert _peak_bytes(glimpse0(OneHotGrid(config.l_w))) < n_by_n
        assert _peak_bytes(fuse) < n_by_n
        assert _peak_bytes(glimpse0(one_hot_basis(config))) > n_by_n
