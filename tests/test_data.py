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


def flatten(splits):
    return [s for split in splits.values() for s in split]


class TestDeterminism:
    def test_same_seed_bit_identical(self, config, vocab):
        a = generate_vqa(5, 40, config, vocab)
        b = generate_vqa(5, 40, config, vocab)
        for split in a:
            assert len(a[split]) == len(b[split])
            for x, y in zip(a[split], b[split]):
                assert np.array_equal(x.image, y.image)
                assert x.token_ids == y.token_ids
                assert x.answer_id == y.answer_id

    def test_different_seed_differs(self, config, vocab):
        a = generate_vqa(5, 40, config, vocab)
        b = generate_vqa(6, 40, config, vocab)
        assert any(
            not np.array_equal(x.image, y.image)
            for x, y in zip(flatten(a), flatten(b))
        )

    def test_pretrain_deterministic(self, config, vocab):
        a = generate_pretrain(7, 20, config, vocab)
        b = generate_pretrain(7, 20, config, vocab)
        for t in a:
            for split in a[t]:
                for x, y in zip(a[t][split], b[t][split]):
                    assert np.array_equal(x.image, y.image)
                    assert x.compat_label == y.compat_label


class TestTypeRecoverability:
    def test_linear_probe_reaches_95_percent(self, config, vocab):
        """Least-squares one-vs-rest probe on raw pixels must separate types."""
        splits = generate_vqa(11, 300, config, vocab)
        train, test = splits["train"], splits["test"]
        x_tr = np.stack([s.image.ravel() for s in train])
        x_te = np.stack([s.image.ravel() for s in test])
        y_tr = np.array([s.type_id for s in train])
        y_te = np.array([s.type_id for s in test])
        onehot = np.eye(3)[y_tr]
        design = np.hstack([x_tr, np.ones((len(x_tr), 1))])
        coef, *_ = np.linalg.lstsq(design, onehot, rcond=None)
        pred = np.argmax(np.hstack([x_te, np.ones((len(x_te), 1))]) @ coef, axis=1)
        assert (pred == y_te).mean() >= 0.95


class TestQuestionOnlyCeiling:
    def test_majority_predictor_at_most_60_percent(self, config, vocab):
        """Per-template majority vote from train transfers poorly to test."""
        splits = generate_vqa(13, 600, config, vocab)
        table = defaultdict(Counter)
        for s in splits["train"]:
            table[tuple(s.token_ids)][s.answer_id] += 1
        overall = Counter(s.answer_id for s in splits["train"])
        default = overall.most_common(1)[0][0]
        hits = 0
        for s in splits["test"]:
            counts = table.get(tuple(s.token_ids))
            guess = counts.most_common(1)[0][0] if counts else default
            hits += guess == s.answer_id
        assert hits / len(splits["test"]) <= 0.60


class TestAnswersAndKinds:
    def test_answer_ids_in_range(self, config, vocab):
        for s in flatten(generate_vqa(3, 60, config, vocab)):
            assert 0 <= s.answer_id < K_ANSWERS
            assert s.type_id in (0, 1, 2)
            assert s.question_kind in ("open", "closed")

    def test_open_answers_are_shapes_closed_are_yes_no(self, config, vocab):
        for s in flatten(generate_vqa(3, 100, config, vocab)):
            if s.question_kind == "open":
                assert ANSWERS[s.answer_id] in ("square", "circle", "cross")
            else:
                assert ANSWERS[s.answer_id] in ("yes", "no")

    def test_closed_yes_answers_match_drawn_shape(self, config, vocab):
        """On 'yes' samples, the asked shape's pixels must be bright."""
        for s in flatten(generate_vqa(21, 80, config, vocab)):
            if s.question_kind != "closed" or s.answer_id != 0:
                continue
            tokens = [vocab.token_of(t) for t in s.token_ids if t != 0]
            cell = (int(tokens[4][1:]), int(tokens[5][1:]))
            cs = config.image_size // config.grid
            patch = s.image[cell[0] * cs : (cell[0] + 1) * cs,
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
        for s in corpora[0]["train"]:
            assert isinstance(s.task_target, np.ndarray)
            assert s.task_target.shape == (config.image_size, config.image_size)
            assert set(np.unique(s.task_target)) <= {0.0, 1.0}
        for s in corpora[1]["train"]:
            assert s.task_target in (0, 1, 2)
        for s in corpora[2]["train"]:
            assert s.task_target in (0, 1)

    def test_single_type_per_corpus(self, config, vocab):
        corpora = generate_pretrain(9, 20, config, vocab)
        for type_id in corpora:
            for s in corpora[type_id]["train"] + corpora[type_id]["val"]:
                assert s.type_id == type_id

    def test_drawing_tables_cannot_leak(self, config, vocab):
        """The cached textures and shape masks are read-only, no image shares
        memory with a table or another image, and each mask target is its own."""
        vqa = flatten(generate_vqa(3, 30, config, vocab))
        pretrain = generate_pretrain(3, 12, config, vocab)
        samples = vqa + [s for t in pretrain for s in flatten(pretrain[t])]
        cell = config.image_size // config.grid
        tables = [data_module._textures(config.image_size)]
        tables += [data_module._shape_mask(shape, cell) for shape in range(3)]
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1
        arrays = [s.image for s in samples]
        arrays += [s.task_target for s in flatten(pretrain[0])]
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
        assert vqa["val"] == []
        save_dataset(vqa, pretrain, vocab, config, tmp_path / "ds")
        vqa2, pretrain2, vocab2, config2 = load_dataset(tmp_path / "ds")

        assert config2 == config
        want = build_vocabulary(config)
        assert [vocab2.token_of(i) for i in range(vocab2.size)] == \
            [want.token_of(i) for i in range(want.size)]
        assert vqa2.keys() == vqa.keys()
        for split in vqa:
            assert len(vqa2[split]) == len(vqa[split])
            for a, b in zip(vqa[split], vqa2[split]):
                assert a.image.tobytes() == b.image.tobytes() and a.image.shape == b.image.shape
                assert a.token_ids == b.token_ids
                assert (a.answer_id, a.type_id, a.question_kind) == \
                    (b.answer_id, b.type_id, b.question_kind)
        assert pretrain2.keys() == pretrain.keys()
        for t in pretrain:
            assert pretrain2[t].keys() == pretrain[t].keys()
            for split in pretrain[t]:
                assert len(pretrain2[t][split]) == len(pretrain[t][split])
                for a, b in zip(pretrain[t][split], pretrain2[t][split]):
                    assert a.image.tobytes() == b.image.tobytes() and a.image.shape == b.image.shape
                    assert a.type_id == b.type_id == t
                    assert a.paired_token_ids == b.paired_token_ids
                    assert a.compat_label == b.compat_label
                    if isinstance(a.task_target, np.ndarray):
                        assert a.task_target.tobytes() == b.task_target.tobytes()
                        assert a.task_target.shape == b.task_target.shape
                    else:
                        assert type(b.task_target) is int and a.task_target == b.task_target

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
