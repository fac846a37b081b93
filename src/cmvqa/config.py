"""Plain-text run configuration: `key = value` lines with # comments.

Every tunable lives here; unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import get_type_hints

from .data import PRETRAIN_SPLITS, DataConfig, split_sizes
from .fusion import CmsaConfig


class ConfigError(Exception):
    """Unparseable file, unknown key, or invalid value."""


@dataclass
class RunConfig(DataConfig):
    """Every settable value.  The data settings (image_size, grid, l_w, noise,
    shape_gain, train_frac, val_frac) are DataConfig's; grid and l_w also
    size the model."""

    # reproducibility
    seed: int = 0

    # model dimensions
    c_v: int = 32
    d_q: int = 32
    d_emb: int = 16
    glimpses: int = 2

    # optimizer
    lr: float = 1e-3

    # schedules
    steps: int = 500
    batch_size: int = 8
    alpha: float = 0.5
    pretrain_steps: int = 300
    pretrain_batch: int = 8
    pretrain_mode: str = "multi"   # multi | single (drops the compatibility task)
    log_every: int = 10

    # data
    n_vqa: int = 300
    n_pretrain: int = 120
    data_dir: str = "data"
    eval_split: str = "test"
    frozen_embedding_path: str = ""

    def data_config(self) -> DataConfig:
        return DataConfig(**{f.name: getattr(self, f.name) for f in fields(DataConfig)})

    def check_dataset(self, found: DataConfig) -> None:
        """Reject a dataset generated under other data settings than this config."""
        want = vars(self.data_config())
        have = vars(found)
        diffs = [f"{k} = {have[k]} in the dataset, {want[k]} in the config"
                 for k in want if have[k] != want[k]]
        if diffs:
            raise ConfigError(f"dataset in {self.data_dir} was generated under other "
                              "settings: " + "; ".join(diffs))

    def cmsa_config(self, glimpses: int = None) -> CmsaConfig:
        return CmsaConfig(
            l_w=self.l_w,
            g=self.grid,
            c_v=self.c_v,
            d_q=self.d_q,
            glimpses=self.glimpses if glimpses is None else glimpses,
        )

    def validate(self) -> None:
        for key in ("steps", "pretrain_steps", "batch_size", "pretrain_batch", "log_every",
                    "image_size", "grid", "c_v", "d_q", "l_w", "glimpses", "n_vqa", "n_pretrain"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.d_emb < 2:
            raise ConfigError(f"d_emb must be >= 2, one column per embedding half, got {self.d_emb}")
        # the backbone reaches the grid by stride-2 layers, at least one
        ratio, rest = divmod(self.image_size, self.grid)
        if rest or ratio < 2 or ratio & (ratio - 1):
            raise ConfigError(f"image_size / grid must be a power of two >= 2, got "
                              f"image_size = {self.image_size}, grid = {self.grid}")
        if ratio == 2:   # a 2-pixel cell draws no square and no cross
            raise ConfigError(f"image_size / grid = 2 draws no square or cross; each shape needs "
                              f"4-pixel cells, got image_size = {self.image_size}, grid = {self.grid}")
        # every float key: NaN fails each comparison, so it is rejected with its key
        inf = float("inf")
        for key, ok, want in (("lr", 0.0 < self.lr < inf, "finite and > 0"),
                              ("alpha", 0.0 <= self.alpha < inf, "finite and >= 0"),
                              ("noise", 0.0 <= self.noise < inf, "finite and >= 0"),
                              ("shape_gain", -inf < self.shape_gain < inf, "finite"),
                              ("train_frac", 0.0 < self.train_frac < 1.0, "in (0, 1)"),
                              ("val_frac", 0.0 <= self.val_frac < 1.0, "in [0, 1)")):
            if not ok:
                raise ConfigError(f"{key} must be {want}, got {getattr(self, key)}")
        if self.train_frac + self.val_frac >= 1.0:
            raise ConfigError("train_frac + val_frac must leave room for a test split")
        if self.pretrain_mode not in ("multi", "single"):
            raise ConfigError(f"pretrain_mode must be multi or single, got {self.pretrain_mode!r}")
        if self.eval_split not in ("train", "val", "test"):
            raise ConfigError(f"eval_split must be train/val/test, got {self.eval_split!r}")
        # every split a run reads must draw at least one sample
        for key, fractions, read in (("n_vqa", self.vqa_fractions(), {"train", self.eval_split}),
                                     ("n_pretrain", PRETRAIN_SPLITS, {"train", "val"})):
            n = getattr(self, key)
            if n > 2 ** 53:   # a split's share of n is a float product
                raise ConfigError(f"{key} must be at most 2**53, got {n}")
            empty = " and ".join(sorted(s for s in read if not split_sizes(n, fractions)[s]))
            if empty:
                raise ConfigError(f"{key} = {n} leaves the {empty} split empty")


_FIELD_TYPES = get_type_hints(RunConfig)   # every field's type, resolved once


def parse_config(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _FIELD_TYPES[key](raw)
        except ValueError as err:
            raise ConfigError(f"bad value for {key}: {raw!r}") from err
    config = RunConfig(**values)
    config.validate()
    return config


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_config(text)


def dump_config(config: RunConfig) -> str:
    """Canonical key = value text; parse_config(dump_config(c)) == c."""
    return "".join(f"{f.name} = {getattr(config, f.name)}\n" for f in fields(RunConfig))
