"""Question pathway tests: vocabulary, padding, embedding, LSTM encoding."""

import numpy as np
import pytest

from cmvqa.bundle import write_bundle
from cmvqa.numerics import Rng, Tensor, grad_check, init_lstm, sum_over_axes
from cmvqa.question import (
    PAD_ID,
    UNK_ID,
    Vocabulary,
    embed,
    encode_question,
    init_embedding,
    init_question_encoder,
    load_frozen_half,
    tokenize_pad,
)


@pytest.fixture
def vocab():
    return Vocabulary(["are", "lungs", "normal", "what", "shape", "in"])


class TestVocabulary:
    def test_reserved_ids(self, vocab):
        assert vocab.id_of("<pad>") == PAD_ID == 0
        assert vocab.id_of("never-seen") == UNK_ID == 1

    def test_ids_dense(self, vocab):
        ids = sorted(vocab.id_of(vocab.token_of(i)) for i in range(vocab.size))
        assert ids == list(range(vocab.size))


class TestTokenizePad:
    def test_short_question(self, vocab):
        ids = tokenize_pad(["are", "lungs", "normal"], vocab, 12)
        assert len(ids) == 12
        assert ids[3:] == [PAD_ID] * 9
        assert PAD_ID not in ids[:3]

    def test_trim_to_twelve(self, vocab):
        ids = tokenize_pad(["are"] * 14, vocab, 12)
        assert len(ids) == 12
        assert all(i == vocab.id_of("are") for i in ids)

    def test_empty_question(self, vocab):
        assert tokenize_pad([], vocab, 12) == [PAD_ID] * 12


class TestEmbed:
    def test_pad_maps_to_zero(self, gen, vocab):
        params = init_embedding(gen, vocab.size, 8)
        out = embed([PAD_ID, 2, PAD_ID], params)
        assert np.array_equal(out.data[0], np.zeros(8))
        assert np.array_equal(out.data[2], np.zeros(8))
        assert not np.array_equal(out.data[1], np.zeros(8))

    def test_repeated_id_identical_rows(self, gen, vocab):
        params = init_embedding(gen, vocab.size, 8)
        out = embed([3, 3], params)
        assert np.array_equal(out.data[0], out.data[1])

    def test_id_out_of_range(self, gen, vocab):
        params = init_embedding(gen, vocab.size, 8)
        with pytest.raises(IndexError):
            embed([vocab.size], params)

    def test_width_is_two_halves(self, gen, vocab):
        params = init_embedding(gen, vocab.size, 10)
        assert params.first.shape == (vocab.size, 5)
        assert params.second.shape == (vocab.size, 5)
        assert embed([2], params).shape == (1, 10)

    def test_table_gradient_on_two_word_question(self, gen, vocab):
        params = init_embedding(gen, vocab.size, 6)
        coeffs = Tensor(np.arange(1.0, 13.0).reshape(2, 6))

        def objective():
            from cmvqa.numerics import mul

            return sum_over_axes(mul(embed([2, 4], params), coeffs), (0, 1))

        report = grad_check(
            objective, {"first": params.first, "second": params.second}, h=1e-5, tol=1e-4
        )
        assert report.passed, report.summary()

    def test_frozen_first_half(self, gen, vocab, tmp_path):
        table = gen.standard_normal((vocab.size, 4))
        write_bundle({"table": table}, tmp_path / "emb.cmtb")
        loaded = load_frozen_half(tmp_path / "emb.cmtb")
        params = init_embedding(gen, vocab.size, 8, frozen_first=loaded)
        assert not params.first.requires_grad
        assert params.second.requires_grad
        assert np.array_equal(params.first.data, table)


class TestEncodeQuestion:
    def test_all_pad_zero_weights_gives_zero_q(self, gen, vocab):
        params = init_embedding(gen, vocab.size, 6)
        lstm = init_lstm(gen, 6, 5, forget_bias=0.0)
        lstm.w.data[:] = 0.0
        lstm.b.data[:] = 0.0
        out = encode_question(embed([PAD_ID] * 4, params), lstm)
        assert np.allclose(out.q.data, np.zeros((4, 5)), atol=1e-15)

    def test_output_shape_fixed(self, gen, vocab):
        emb, lstm = init_question_encoder(Rng(5), vocab.size, 6, 64)
        for n_words in [0, 3, 6]:
            ids = tokenize_pad(["are"] * n_words, vocab, 6)
            out = encode_question(embed(ids, emb), lstm)
            assert out.q.shape == (6, 64)

    def test_paper_scale_shape(self, vocab):
        emb, lstm = init_question_encoder(Rng(5), vocab.size, 400, 1024)
        ids = tokenize_pad(["are", "lungs", "normal"], vocab, 12)
        out = encode_question(embed(ids, emb), lstm)
        assert out.q.shape == (12, 1024)

    def test_deterministic(self, vocab):
        def run():
            emb, lstm = init_question_encoder(Rng(9), vocab.size, 6, 8)
            ids = tokenize_pad(["what", "shape"], vocab, 5)
            return encode_question(embed(ids, emb), lstm).q.data.copy()

        assert np.array_equal(run(), run())

    def test_vocab_permutation_leaves_q_unchanged(self, gen, vocab):
        """Relabeling ids while permuting table rows identically is a no-op."""
        emb, lstm = init_question_encoder(Rng(9), vocab.size, 6, 8)
        ids = tokenize_pad(["what", "shape", "in"], vocab, 5)
        base = encode_question(embed(ids, emb), lstm).q.data.copy()

        # permute the non-reserved ids (keep pad/unk fixed so pad stays 0)
        perm = np.arange(vocab.size)
        perm[2:] = np.roll(perm[2:], 1)
        from cmvqa.question import EmbeddingParams

        permuted = EmbeddingParams(
            first=Tensor(emb.first.data[np.argsort(perm)]),
            second=Tensor(emb.second.data[np.argsort(perm)]),
        )
        new_ids = [int(perm[i]) for i in ids]
        out = encode_question(embed(new_ids, permuted), lstm).q.data
        assert np.array_equal(out, base)

    def test_gradient_through_encoder(self, gen, vocab):
        emb, lstm = init_question_encoder(Rng(2), vocab.size, 4, 3)
        ids = tokenize_pad(["are", "lungs"], vocab, 3)

        def objective():
            out = encode_question(embed(ids, emb), lstm)
            return sum_over_axes(out.q, (0, 1))

        report = grad_check(
            objective,
            {"emb.second": emb.second, "lstm.w": lstm.w, "lstm.b": lstm.b},
            h=1e-5,
            tol=1e-4,
        )
        assert report.passed, report.summary()
