"""Synthetic corpora: images whose global texture gives the type and whose
local shape at a question-named cell gives the answer.

Type is easy (a linear probe on raw pixels suffices); the answer requires
reading the shape at the grid cell the question names, so the model must
actually fuse words, pixels, and positions.  Pre-training corpora are
single-type with per-type understanding tasks plus question-compatibility
pairs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .bundle import read_bundle, write_bundle
from .numerics import Rng
from .question import Vocabulary, tokenize_pad

TYPE_NAMES = ("abdomen", "head", "chest")
SHAPE_NAMES = ("square", "circle", "cross")
ANSWERS = ("yes", "no", "square", "circle", "cross")
K_ANSWERS = len(ANSWERS)
IMAGE_CHANNELS = 1            # draw_image renders (H, W, 1) images

# The pre-training task generate_pretrain draws for each type, with the number
# of target classes: a shape-vs-background pixel mask (abdomen), which shape
# (head), and whether the shape is a cross (chest).  Task heads are sized here.
_PRETRAIN_TASKS = (("segmentation", 2), ("classification", len(SHAPE_NAMES)),
                   ("classification", 2))


@dataclass
class DataConfig:
    """The settings a dataset is generated under, recorded in its data.cmtb."""

    image_size: int = 32
    grid: int = 4             # questions address cells of this grid
    l_w: int = 6
    noise: float = 0.1
    shape_gain: float = 2.0
    train_frac: float = 0.7   # val_frac follows; test takes the remainder
    val_frac: float = 0.15

    def vqa_fractions(self) -> Dict[str, float]:
        return {"train": self.train_frac, "val": self.val_frac,
                "test": 1.0 - self.train_frac - self.val_frac}


PRETRAIN_SPLITS = {"train": 0.85, "val": 0.15}


@dataclass
class VqaSample:
    image: np.ndarray          # (H, W, 1)
    token_ids: List[int]
    answer_id: int
    type_id: int
    question_kind: str         # "open" | "closed"


@dataclass
class PretrainSample:
    image: np.ndarray
    type_id: int
    task_target: object        # class id (int) or (H, W) mask
    paired_token_ids: List[int]
    compat_label: int


def build_vocabulary(config: DataConfig) -> Vocabulary:
    tokens = ["what", "shape", "in", "is"]
    tokens += list(TYPE_NAMES) + list(SHAPE_NAMES)
    tokens += [f"r{i}" for i in range(config.grid)]
    tokens += [f"c{i}" for i in range(config.grid)]
    return Vocabulary(tokens)


# -- image drawing ---------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _textures(size: int) -> np.ndarray:
    """Read-only (3, size, size) background per type: stripes that vary down
    the rows (abdomen), stripes that vary along the columns (head), flat (chest)."""
    wave = np.sin(2 * np.pi * 3 * np.arange(size) / size)
    textures = np.stack([*np.broadcast_arrays(wave[:, None], wave[None, :]), np.zeros((size, size))])
    textures.flags.writeable = False
    return textures


@functools.lru_cache(maxsize=None)
def _shape_mask(shape_id: int, cell_size: int) -> np.ndarray:
    """Read-only boolean mask of one shape in a cell_size x cell_size cell."""
    s = cell_size
    mask = np.zeros((s, s), dtype=bool)
    if shape_id == 0:   # square block with a 1-pixel margin
        mask[1 : s - 1, 1 : s - 1] = True
    elif shape_id == 1:  # disk
        rr, cc = np.mgrid[0:s, 0:s]
        center = (s - 1) / 2.0
        mask[(rr - center) ** 2 + (cc - center) ** 2 <= (0.42 * s) ** 2] = True
    elif shape_id == 2:  # plus sign
        w = max(1, s // 4)
        lo = (s - w) // 2
        mask[lo : lo + w, 1 : s - 1] = True
        mask[1 : s - 1, lo : lo + w] = True
    else:
        raise ValueError(f"unknown shape id {shape_id}")
    mask.flags.writeable = False
    return mask


def draw_image(gen, type_id: int, shape_id: int, cell: Tuple[int, int],
               config: DataConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Render texture + noise + one bright shape; return (image, pixel mask)."""
    size = config.image_size
    cs = size // config.grid
    img = _textures(size)[type_id] + gen.normal(0.0, config.noise, (size, size))
    mask = np.zeros((size, size))
    r0, c0 = cell[0] * cs, cell[1] * cs
    local = _shape_mask(shape_id, cs)
    img[r0 : r0 + cs, c0 : c0 + cs][local] += config.shape_gain
    mask[r0 : r0 + cs, c0 : c0 + cs][local] = 1.0
    return img[:, :, None], mask


# -- question construction ---------------------------------------------------------


def open_question(type_id: int, cell: Tuple[int, int]) -> List[str]:
    return ["what", "shape", "in", TYPE_NAMES[type_id], f"r{cell[0]}", f"c{cell[1]}"]


def closed_question(shape_id: int, type_id: int, cell: Tuple[int, int]) -> List[str]:
    return ["is", SHAPE_NAMES[shape_id], "in", TYPE_NAMES[type_id], f"r{cell[0]}", f"c{cell[1]}"]


def compatible_types(tokens: Sequence[str]) -> set:
    """A question is compatible exactly with the type its organ word names."""
    return {i for i, name in enumerate(TYPE_NAMES) if name in tokens}


# -- split assignment ---------------------------------------------------------------


def split_sizes(n: int, fractions: Dict[str, float]) -> Dict[str, int]:
    """Each split but the last gets its rounded share of n; the last the rest."""
    sizes = {name: int(round(n * share)) for name, share in list(fractions.items())[:-1]}
    sizes[list(fractions)[-1]] = max(0, n - sum(sizes.values()))
    return sizes


@functools.lru_cache(maxsize=None)
def _ranked(n: int) -> Tuple[int, ...]:
    """range(n) ordered by a hash of each index, once per n: the three
    pre-training corpora share one n."""
    return tuple(sorted(range(n), key=lambda i: hashlib.sha256(f"split:{i}".encode()).hexdigest()))


def split_indices(n: int, fractions: Dict[str, float]) -> Dict[str, List[int]]:
    """Deterministic disjoint splits: order indices by a hash, slice exact counts."""
    ranked = _ranked(n)
    out, start = {}, 0
    for name, count in split_sizes(n, fractions).items():
        out[name] = list(ranked[start : start + count])
        start += count
    return out


# -- generation ----------------------------------------------------------------------


def generate_vqa(seed: int, n: int, config: DataConfig,
                 vocab: Vocabulary) -> Dict[str, List[VqaSample]]:
    """n samples split train/val/test; alternating open/closed questions."""
    gen = Rng(seed).child("vqa").gen
    samples = []
    g = config.grid
    for i in range(n):
        type_id = int(gen.integers(0, 3))
        shape_id = int(gen.integers(0, 3))
        cell = (int(gen.integers(0, g)), int(gen.integers(0, g)))
        image, _ = draw_image(gen, type_id, shape_id, cell, config)
        if i % 2 == 0:
            tokens = open_question(type_id, cell)
            answer = 2 + shape_id
            kind = "open"
        else:
            if gen.random() < 0.5:
                asked = shape_id
                answer = 0  # yes
            else:
                asked = int((shape_id + 1 + gen.integers(0, 2)) % 3)
                answer = 1  # no
            tokens = closed_question(asked, type_id, cell)
            kind = "closed"
        samples.append(
            VqaSample(image=image, token_ids=tokenize_pad(tokens, vocab, config.l_w),
                      answer_id=answer, type_id=type_id, question_kind=kind)
        )

    splits = split_indices(n, config.vqa_fractions())
    return {name: [samples[i] for i in idx] for name, idx in splits.items()}


def question_pool(config: DataConfig, vocab: Vocabulary):
    """Every open/closed template instance, with token ids and compat sets."""
    pool = []
    g = config.grid
    for type_id in range(3):
        for r in range(g):
            for c in range(g):
                variants = [open_question(type_id, (r, c))]
                variants += [closed_question(s, type_id, (r, c)) for s in range(3)]
                for tokens in variants:
                    pool.append((tokenize_pad(tokens, vocab, config.l_w),
                                 compatible_types(tokens)))
    return pool


def compatibility_sampler(type_id: int, pool) -> Callable[..., Tuple[List[int], int]]:
    """draw(gen) -> (token_ids, compat_label): a question for an image of type_id,
    rebalanced to ~50% positive labels.  The pool is partitioned here, once."""
    if not pool:
        raise ValueError("question pool is empty")
    positives = [p for p in pool if type_id in p[1]]
    negatives = [p for p in pool if type_id not in p[1]]

    def draw(gen) -> Tuple[List[int], int]:
        if positives and negatives:
            subset = positives if gen.random() < 0.5 else negatives
        else:
            subset = positives or negatives
        ids, compat = subset[int(gen.integers(0, len(subset)))]
        return ids, int(type_id in compat)
    return draw


def pretrain_task_kind(type_id: int) -> str:
    """Abdomen images carry masks; head and chest carry class labels."""
    return _PRETRAIN_TASKS[type_id][0]


def pretrain_task_classes(type_id: int) -> int:
    """Number of classes the type's pre-training targets take."""
    return _PRETRAIN_TASKS[type_id][1]


def generate_pretrain(seed: int, n_per_type: int, config: DataConfig,
                      vocab: Vocabulary) -> Dict[int, Dict[str, List[PretrainSample]]]:
    """Single-type corpora: segmentation for type 0, classification for 1 and 2."""
    pool = question_pool(config, vocab)
    out = {}
    g = config.grid
    for type_id in range(3):
        gen = Rng(seed).child(f"pretrain{type_id}").gen
        draw_pair = compatibility_sampler(type_id, pool)
        samples = []
        for _ in range(n_per_type):
            shape_id = int(gen.integers(0, 3))
            cell = (int(gen.integers(0, g)), int(gen.integers(0, g)))
            image, mask = draw_image(gen, type_id, shape_id, cell, config)
            if type_id == 0:
                target = mask                       # per-pixel shape mask
            elif type_id == 1:
                target = shape_id                   # which shape
            else:
                target = int(shape_id == 2)         # contains a cross?
            ids, label = draw_pair(gen)
            samples.append(
                PretrainSample(image=image, type_id=type_id, task_target=target,
                               paired_token_ids=ids, compat_label=label)
            )
        splits = split_indices(n_per_type, PRETRAIN_SPLITS)
        out[type_id] = {name: [samples[i] for i in idx] for name, idx in splits.items()}
    return out


def generate_synthetic(seed: int, counts: Dict[str, int], config: DataConfig):
    """Umbrella generator: VQA splits, pretrain corpora, and the vocabulary."""
    vocab = build_vocabulary(config)
    vqa = generate_vqa(seed, counts["vqa"], config, vocab)
    pretrain = generate_pretrain(seed, counts["pretrain"], config, vocab)
    return vqa, pretrain, vocab


# -- on-disk layout -----------------------------------------------------------------


def save_dataset(vqa, pretrain, vocab: Vocabulary, config: DataConfig, out_dir) -> None:
    """Write out_dir/data.cmtb, one bundle of float64 entries stacked on a
    leading sample axis:

        vqa/<split>/{image, tokens, answer, type, open}
        pretrain/<type name>/<split>/{image, tokens, target, compat}

    `target` is (n, H, W) for the segmentation type and (n,) otherwise; a
    split with no samples stores zero-length arrays.  The last entry,
    `__config__`, is the UTF-8 JSON of the data settings as uint8.  `vocab`
    is not stored: it follows from the settings (build_vocabulary).
    """
    os.makedirs(out_dir, exist_ok=True)
    tensors = {}
    for split, samples in vqa.items():
        columns = {"image": [s.image for s in samples],
                   "tokens": [s.token_ids for s in samples],
                   "answer": [s.answer_id for s in samples],
                   "type": [s.type_id for s in samples],
                   "open": [s.question_kind == "open" for s in samples]}
        tensors.update({f"vqa/{split}/{k}": np.array(v, np.float64) for k, v in columns.items()})
    for type_id in sorted(pretrain):
        for split, samples in pretrain[type_id].items():
            columns = {"image": [s.image for s in samples],
                       "tokens": [s.paired_token_ids for s in samples],
                       "target": [s.task_target for s in samples],
                       "compat": [s.compat_label for s in samples]}
            prefix = f"pretrain/{TYPE_NAMES[type_id]}/{split}"
            tensors.update({f"{prefix}/{k}": np.array(v, np.float64) for k, v in columns.items()})
    tensors["__config__"] = np.frombuffer(json.dumps(vars(config)).encode("utf-8"), np.uint8)
    write_bundle(tensors, os.path.join(out_dir, "data.cmtb"))


def load_dataset(out_dir):
    """Inverse of save_dataset: (vqa, pretrain, vocab, config)."""
    path = os.path.join(out_dir, "data.cmtb")
    tensors = read_bundle(path)
    regenerate = "regenerate the dataset with cmvqa gen-data"
    if "__config__" not in tensors:
        raise ValueError(f"{path} records no data settings, so an older version wrote it; "
                         + regenerate)
    saved = json.loads(tensors["__config__"].tobytes().decode("utf-8"))
    if not isinstance(saved, dict):
        raise ValueError(f"{path} records data settings that are not a JSON object; "
                         + regenerate)
    want = [f.name for f in fields(DataConfig)]
    diffs = [f"unknown key {k!r}" for k in sorted(set(saved) - set(want))]
    diffs += [f"missing key {k!r}" for k in want if k not in saved]
    if diffs:
        raise ValueError(f"{path} does not hold this version's data settings "
                         f"({', '.join(diffs)}); {regenerate}")
    config = DataConfig(**saved)

    def rows(prefix: str, *keys: str):
        names = [f"{prefix}/{k}" for k in keys]
        for name in names:
            if name not in tensors:
                raise ValueError(f"{path} has no entry {name!r}; {regenerate}")
        if len({tensors[n].shape[:1] for n in names}) > 1:
            raise ValueError(f"{path} holds different sample counts under {prefix!r}; "
                             + regenerate)
        return zip(*(tensors[n] for n in names))

    vqa = {split: [VqaSample(image=image, token_ids=[int(t) for t in tokens],
                             answer_id=int(answer), type_id=int(type_id),
                             question_kind="open" if is_open else "closed")
                   for image, tokens, answer, type_id, is_open
                   in rows(f"vqa/{split}", "image", "tokens", "answer", "type", "open")]
           for split in config.vqa_fractions()}
    pretrain = {}
    for type_id, name in enumerate(TYPE_NAMES):
        mask = pretrain_task_kind(type_id) == "segmentation"
        pretrain[type_id] = {
            split: [PretrainSample(image=image, type_id=type_id,
                                   task_target=target if mask else int(target),
                                   paired_token_ids=[int(t) for t in tokens],
                                   compat_label=int(compat))
                    for image, tokens, target, compat
                    in rows(f"pretrain/{name}/{split}", "image", "tokens", "target", "compat")]
            for split in PRETRAIN_SPLITS}
    return vqa, pretrain, build_vocabulary(config), config
