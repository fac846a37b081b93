"""Question side: vocabulary, token embedding, and the LSTM encoder.

A question is trimmed/padded to exactly L_w tokens, each token looked up in
two concatenated embedding tables (halves of D_emb), and the sequence run
through an LSTM from zero state.  All L_w hidden states are kept, one row
per word, giving q of shape (L_w, D_q).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .bundle import read_bundle
from .numerics import (
    LstmParams,
    ShapeError,
    Tensor,
    concat_last,
    init_lstm,
    lstm_sequence,
    lstm_step,
    rows,
    uniform_init,
)

__all__ = [
    "PAD_ID",
    "UNK_ID",
    "EmbeddingParams",
    "QuestionEmbedding",
    "Vocabulary",
    "embed",
    "encode_question",
    "init_embedding",
    "init_question_encoder",
    "load_frozen_half",
    "tokenize_pad",
    # Not called here since encode_question runs lstm_sequence; the benchmark's
    # span tracer (bench/spans.py) wraps this name and stops without it.
    "lstm_step",
]

PAD_ID = 0
UNK_ID = 1


class Vocabulary:
    """Token <-> dense-id map with reserved pad (0) and unknown (1) slots."""

    def __init__(self, tokens: Sequence[str]):
        ordered = ["<pad>", "<unk>"] + [t for t in tokens if t not in ("<pad>", "<unk>")]
        self._id = {tok: i for i, tok in enumerate(ordered)}
        self._tok = ordered

    @property
    def size(self) -> int:
        return len(self._tok)

    def id_of(self, token: str) -> int:
        return self._id.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        return self._tok[idx]


def tokenize_pad(tokens: Sequence[str], vocab: Vocabulary, l_w: int) -> List[int]:
    """Map tokens to ids, trim to l_w, right-pad with the pad id."""
    ids = [vocab.id_of(t) for t in tokens[:l_w]]
    return ids + [PAD_ID] * (l_w - len(ids))


@dataclass
class EmbeddingParams:
    """Two concatenated tables; `first` may be a frozen externally loaded half."""

    first: Tensor   # (V, D_emb/2)
    second: Tensor  # (V, D_emb - D_emb/2)


def init_embedding(gen, vocab_size: int, d_emb: int,
                   frozen_first: np.ndarray = None) -> EmbeddingParams:
    """Random tables. Pass a (V, d_emb//2) array to freeze the first half."""
    half = d_emb // 2
    if frozen_first is not None:
        if frozen_first.shape != (vocab_size, half):
            raise ShapeError(
                f"frozen table shape {frozen_first.shape}, expected {(vocab_size, half)}"
            )
        first = Tensor(frozen_first, requires_grad=False)
    else:
        first = uniform_init(gen, (vocab_size, half), half, half)
    second = uniform_init(gen, (vocab_size, d_emb - half), d_emb - half, d_emb - half)
    return EmbeddingParams(first=first, second=second)


def load_frozen_half(path) -> np.ndarray:
    """Read the frozen first-half table (entry name 'table') from a bundle file."""
    data = read_bundle(path)
    if "table" not in data:
        raise ValueError("embedding bundle missing 'table' entry")
    return data["table"]


def embed(ids: Sequence[int], params: EmbeddingParams) -> Tensor:
    """Look up ids in both halves and concatenate; pad rows come out zero."""
    a = rows(params.first, ids, zero_id=PAD_ID)
    b = rows(params.second, ids, zero_id=PAD_ID)
    return concat_last([a, b])


@dataclass
class QuestionEmbedding:
    q: Tensor  # (L_w, D_q)
    # Unread: the LSTM runs over the pad positions too.  Kept only so callers
    # that still pass it keep working.
    true_length: Optional[int] = None


def encode_question(embeddings: Tensor, lstm: LstmParams) -> QuestionEmbedding:
    """Run the LSTM over every position from zero state, keeping all hidden rows."""
    d_emb = embeddings.shape[-1]
    if d_emb != lstm.input_size:
        raise ShapeError(f"embedding width {d_emb} != LSTM input size {lstm.input_size}")
    return QuestionEmbedding(q=lstm_sequence(embeddings, lstm))


def init_question_encoder(gen, vocab_size: int, d_emb: int, d_q: int,
                          frozen_first: np.ndarray = None):
    """Embedding tables plus LSTM parameters for the question pathway."""
    emb = init_embedding(gen.child("embed").gen, vocab_size, d_emb, frozen_first)
    lstm = init_lstm(gen.child("lstm").gen, d_emb, d_q, forget_bias=1.0)
    return emb, lstm
