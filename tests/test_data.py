"""Synthetic-data tests: determinism, probes, pairing, splits, on-disk layout."""

import hashlib
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from cmvqa import data as data_module
from cmvqa.bundle import read_bundle
from cmvqa.config import load_config
from cmvqa.data import (
    ANSWERS,
    DataConfig,
    K_ANSWERS,
    PRETRAIN_COLUMNS,
    TYPE_NAMES,
    VQA_COLUMNS,
    build_vocabulary,
    compatible_types,
    closed_question,
    compatibility_sampler,
    draw_image,
    generate_pretrain,
    generate_synthetic,
    generate_vqa,
    load_dataset,
    open_question,
    pretrain_task_kind,
    question_pool,
    save_dataset,
    split_indices,
)


@pytest.fixture(scope="module")
def config():
    return DataConfig()


@pytest.fixture(scope="module")
def vocab(config):
    return build_vocabulary(config)


def flatten(splits, column):
    """One column of every split, stacked in split order."""
    return np.concatenate([getattr(split, column) for split in splits.values()])


def assert_same_columns(a, b):
    """Splits a and b hold equal columns of the same names, dtype and shape."""
    assert list(vars(a)) == list(vars(b))
    assert len(a) == len(b)
    for name, column in vars(a).items():
        other = getattr(b, name)
        assert (column.dtype, column.shape) == (other.dtype, other.shape), name
        assert column.tobytes() == other.tobytes(), name


class TestDeterminism:
    def test_same_seed_bit_identical(self, config, vocab):
        a = generate_vqa(5, 40, config, vocab)
        b = generate_vqa(5, 40, config, vocab)
        for split in a:
            assert_same_columns(a[split], b[split])

    def test_different_seed_differs(self, config, vocab):
        a = generate_vqa(5, 40, config, vocab)
        b = generate_vqa(6, 40, config, vocab)
        assert not np.array_equal(flatten(a, "image"), flatten(b, "image"))

    def test_pretrain_deterministic(self, config, vocab):
        a = generate_pretrain(7, 20, config, vocab)
        b = generate_pretrain(7, 20, config, vocab)
        for t in a:
            for split in a[t]:
                assert_same_columns(a[t][split], b[t][split])


class TestTypeRecoverability:
    def test_linear_probe_reaches_95_percent(self, config, vocab):
        """Least-squares one-vs-rest probe on raw pixels must separate types."""
        splits = generate_vqa(11, 300, config, vocab)
        train, test = splits["train"], splits["test"]
        x_tr, x_te = train.image.reshape(len(train), -1), test.image.reshape(len(test), -1)
        y_tr, y_te = train.type.astype(int), test.type
        onehot = np.eye(3)[y_tr]
        design = np.hstack([x_tr, np.ones((len(x_tr), 1))])
        coef, *_ = np.linalg.lstsq(design, onehot, rcond=None)
        pred = np.argmax(np.hstack([x_te, np.ones((len(x_te), 1))]) @ coef, axis=1)
        assert (pred == y_te).mean() >= 0.95


class TestQuestionOnlyCeiling:
    def test_majority_predictor_at_most_60_percent(self, config, vocab):
        """Per-template majority vote from train transfers poorly to test."""
        splits = generate_vqa(13, 600, config, vocab)
        train, test = splits["train"], splits["test"]
        table = defaultdict(Counter)
        for tokens, answer in zip(train.tokens, train.answer):
            table[tuple(tokens)][answer] += 1
        default = Counter(train.answer).most_common(1)[0][0]
        hits = 0
        for tokens, answer in zip(test.tokens, test.answer):
            counts = table.get(tuple(tokens))
            guess = counts.most_common(1)[0][0] if counts else default
            hits += guess == answer
        assert hits / len(test) <= 0.60


class TestAnswersAndKinds:
    def test_answer_ids_in_range(self, config, vocab):
        splits = generate_vqa(3, 60, config, vocab)
        assert set(flatten(splits, "answer")) <= set(range(K_ANSWERS))
        assert set(flatten(splits, "type")) <= {0, 1, 2}
        assert set(flatten(splits, "open")) <= {0, 1}

    def test_open_answers_are_shapes_closed_are_yes_no(self, config, vocab):
        splits = generate_vqa(3, 100, config, vocab)
        for answer, is_open in zip(flatten(splits, "answer"), flatten(splits, "open")):
            if is_open:
                assert ANSWERS[int(answer)] in ("square", "circle", "cross")
            else:
                assert ANSWERS[int(answer)] in ("yes", "no")

    def test_closed_yes_answers_match_drawn_shape(self, config, vocab):
        """On 'yes' samples, the asked shape's pixels must be bright."""
        splits = generate_vqa(21, 80, config, vocab)
        columns = [flatten(splits, c) for c in ("image", "tokens", "answer", "open")]
        for image, ids, answer, is_open in zip(*columns):
            if is_open or answer != 0:
                continue
            tokens = [vocab.token_of(int(t)) for t in ids if t != 0]
            cell = (int(tokens[4][1:]), int(tokens[5][1:]))
            cs = config.image_size // config.grid
            patch = image[cell[0] * cs : (cell[0] + 1) * cs,
                          cell[1] * cs : (cell[1] + 1) * cs, 0]
            assert patch.max() > config.shape_gain * 0.8


class TestCompatibilityPairing:
    def test_matching_type_label_one(self, config, vocab):
        tokens = open_question(1, (0, 0))
        assert compatible_types(tokens) == {1}

    def test_non_matching_type_label_zero(self, config, vocab):
        tokens = closed_question(0, 1, (0, 0))  # head question
        assert 2 not in compatible_types(tokens)

    def test_labels_follow_invariant(self, config, vocab):
        pool = question_pool(config, vocab)
        gen = np.random.default_rng(0)
        for _ in range(200):
            type_id = int(gen.integers(0, 3))
            ids, label = compatibility_sampler(type_id, pool)(gen)
            tokens = [vocab.token_of(t) for t in ids if t != 0]
            assert label == int(type_id in compatible_types(tokens))

    def test_positive_fraction_near_half(self, config, vocab):
        pool = question_pool(config, vocab)
        gen = np.random.default_rng(1)
        draws = [compatibility_sampler(t, pool) for t in range(3)]
        labels = [draws[i % 3](gen)[1] for i in range(10_000)]
        assert 0.45 <= np.mean(labels) <= 0.55

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            compatibility_sampler(0, [])


class TestSplits:
    def test_disjoint_and_exhaustive(self):
        splits = split_indices(100, {"train": 0.7, "val": 0.15, "test": 0.15})
        all_ids = sorted(i for idx in splits.values() for i in idx)
        assert all_ids == list(range(100))
        assert len(splits["train"]) == 70

    def test_stable_across_calls(self):
        a = split_indices(50, {"train": 0.8, "val": 0.2})
        b = split_indices(50, {"train": 0.8, "val": 0.2})
        assert a == b

    def test_a_caller_cannot_change_a_later_split(self):
        """The order is ranked once per n; each call gets lists of its own."""
        fractions = {"train": 0.8, "val": 0.2}
        want = split_indices(50, fractions)
        got = split_indices(50, fractions)
        got["train"].reverse()
        got["val"].clear()
        assert split_indices(50, fractions) == want


class TestPretrainCorpora:
    def test_task_targets_by_type(self, config, vocab):
        corpora = generate_pretrain(9, 20, config, vocab)
        assert pretrain_task_kind(0) == "segmentation"
        train = corpora[0]["train"]
        assert train.target.shape == (len(train), config.image_size, config.image_size)
        assert set(np.unique(train.target)) <= {0.0, 1.0}
        assert corpora[1]["train"].target.shape == (len(corpora[1]["train"]),)
        assert set(corpora[1]["train"].target) <= {0, 1, 2}
        assert set(corpora[2]["train"].target) <= {0, 1}

    def test_single_type_per_corpus(self, config, vocab):
        """Every image of corpus t lies nearest to type t's background texture."""
        corpora = generate_pretrain(9, 20, config, vocab)
        textures = data_module._textures(config.image_size)
        for type_id in corpora:
            for split in corpora[type_id].values():
                images = split.image[:, None, :, :, 0]
                nearest = ((images - textures) ** 2).sum(axis=(2, 3)).argmin(axis=1)
                assert (nearest == type_id).all()

    def test_drawing_tables_cannot_leak(self, config, vocab):
        """The cached textures and shape masks are read-only, and no split
        column shares memory with a table or with another column."""
        vqa = generate_vqa(3, 30, config, vocab)
        pretrain = generate_pretrain(3, 12, config, vocab)
        splits = list(vqa.values()) + [s for t in pretrain for s in pretrain[t].values()]
        cell = config.image_size // config.grid
        tables = [data_module._textures(config.image_size)]
        tables += [data_module._shape_mask(shape, cell) for shape in range(3)]
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1
        arrays = [column for split in splits for column in vars(split).values()]
        for i, a in enumerate(arrays):
            assert a.flags.writeable
            assert not any(np.shares_memory(a, table) for table in tables)
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    def test_mask_marks_brightened_pixels(self, config, vocab):
        gen = np.random.default_rng(4)
        image, mask = draw_image(gen, 0, 0, (1, 2), config)
        img = image[:, :, 0]
        assert mask.sum() > 0
        # masked pixels got the +shape_gain bump over the shared texture
        lift = img[mask == 1.0].mean() - img[mask == 0.0].mean()
        assert abs(lift - config.shape_gain) < 0.5


class TestOnDiskLayout:
    def test_save_load_roundtrip(self, tmp_path):
        config = DataConfig(val_frac=0.0)
        vqa, pretrain, vocab = generate_synthetic(17, {"vqa": 40, "pretrain": 12}, config)
        assert len(vqa["val"]) == 0
        save_dataset(vqa, pretrain, vocab, config, tmp_path / "ds")
        vqa2, pretrain2, vocab2, config2 = load_dataset(tmp_path / "ds")

        assert config2 == config
        want = build_vocabulary(config)
        assert [vocab2.token_of(i) for i in range(vocab2.size)] == \
            [want.token_of(i) for i in range(want.size)]
        assert vqa2.keys() == vqa.keys()
        for split in vqa:
            assert_same_columns(vqa[split], vqa2[split])
        assert pretrain2.keys() == pretrain.keys()
        for t in pretrain:
            assert pretrain2[t].keys() == pretrain[t].keys()
            for split in pretrain[t]:
                assert_same_columns(pretrain[t][split], pretrain2[t][split])

    def test_desk_splits_load_as_generated(self, tmp_path):
        """For the desk data settings, every split load_dataset returns equals
        the generated one column for column, with the columns data.cmtb names."""
        desk = load_config(Path(__file__).parents[1] / "configs" / "desk.cfg")
        config = desk.data_config()
        vqa, pretrain, vocab = generate_synthetic(
            desk.seed, {"vqa": desk.n_vqa, "pretrain": desk.n_pretrain}, config)
        save_dataset(vqa, pretrain, vocab, config, tmp_path / "ds")
        vqa2, pretrain2, _, _ = load_dataset(tmp_path / "ds")
        pairs = [(vqa[s], vqa2[s], VQA_COLUMNS) for s in vqa]
        pairs += [(pretrain[t][s], pretrain2[t][s], PRETRAIN_COLUMNS)
                  for t in range(len(TYPE_NAMES)) for s in pretrain[t]]
        assert len(pairs) == 9
        for generated, loaded, columns in pairs:
            assert tuple(vars(loaded)) == columns
            assert_same_columns(generated, loaded)
            assert all(c.dtype == np.float64 for c in vars(loaded).values())

    def test_desk_corpus_bytes_are_pinned(self, tmp_path):
        """data.cmtb for the desk data settings, seed 0: any change to the
        draw order, the drawing tables or the Rng streams changes this digest."""
        config = load_config(Path(__file__).parents[1] / "configs" / "desk.cfg").data_config()
        vqa, pretrain, vocab = generate_synthetic(0, {"vqa": 40, "pretrain": 12}, config)
        save_dataset(vqa, pretrain, vocab, config, tmp_path / "ds")
        digest = hashlib.sha256((tmp_path / "ds" / "data.cmtb").read_bytes()).hexdigest()
        assert digest == "476b2dbc7c2b6a5c7a8e3bc0ad3c529a2be737ef2efc5dd7386c2256d080b40b"

    def test_one_bundle_of_stacked_entries(self, tmp_path, config):
        vqa, pretrain, vocab = generate_synthetic(17, {"vqa": 10, "pretrain": 6}, config)
        save_dataset(vqa, pretrain, vocab, config, tmp_path / "ds")
        assert [p.name for p in (tmp_path / "ds").iterdir()] == ["data.cmtb"]
        entries = read_bundle(tmp_path / "ds" / "data.cmtb")
        assert list(entries)[-1] == "__config__"
        size = config.image_size
        train = len(vqa["train"])
        assert entries["vqa/train/image"].shape == (train, size, size, 1)
        assert entries["vqa/train/tokens"].shape == (train, config.l_w)
        assert entries["pretrain/abdomen/val/target"].shape == \
            (len(pretrain[0]["val"]), size, size)
        assert entries["pretrain/chest/train/target"].shape == (len(pretrain[2]["train"]),)
