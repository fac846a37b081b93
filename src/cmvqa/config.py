"""Plain-text run configuration: `key = value` lines with # comments.

Every tunable lives here; unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import get_type_hints

from .data import DataConfig
from .fusion import CmsaConfig


class ConfigError(Exception):
    """Unparseable file, unknown key, or invalid value."""


@dataclass
class RunConfig:
    # reproducibility
    seed: int = 0

    # model dimensions
    image_size: int = 32
    grid: int = 4
    c_v: int = 32
    d_q: int = 32
    d_emb: int = 16
    l_w: int = 6
    glimpses: int = 2
    scaled_attention: bool = False

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
    noise: float = 0.1
    texture_amp: float = 1.0
    shape_gain: float = 2.0
    train_frac: float = 0.7
    val_frac: float = 0.15
    data_dir: str = "data"
    eval_split: str = "test"
    frozen_embedding_path: str = ""

    def data_config(self) -> DataConfig:
        return DataConfig(
            image_size=self.image_size,
            cell_grid=self.grid,
            l_w=self.l_w,
            noise=self.noise,
            texture_amp=self.texture_amp,
            shape_gain=self.shape_gain,
            train_frac=self.train_frac,
            val_frac=self.val_frac,
        )

    def check_dataset(self, found: DataConfig) -> None:
        """Reject a dataset generated under other data settings than this config."""
        want = vars(self.data_config())
        have = vars(found)
        diffs = [f"{'grid' if k == 'cell_grid' else k} = {have[k]} in the dataset, "
                 f"{want[k]} in the config" for k in want if have[k] != want[k]]
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
            scaled_attention=self.scaled_attention,
        )

    def validate(self) -> None:
        if self.steps < 1 or self.pretrain_steps < 1:
            raise ConfigError("step counts must be >= 1")
        if self.batch_size < 1 or self.pretrain_batch < 1:
            raise ConfigError("batch sizes must be >= 1")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if not (0.0 < self.train_frac < 1.0) or not (0.0 <= self.val_frac < 1.0):
            raise ConfigError("split fractions must lie in (0, 1)")
        if self.train_frac + self.val_frac >= 1.0:
            raise ConfigError("train_frac + val_frac must leave room for a test split")
        if self.pretrain_mode not in ("multi", "single"):
            raise ConfigError(f"pretrain_mode must be multi or single, got {self.pretrain_mode!r}")
        if self.eval_split not in ("train", "val", "test"):
            raise ConfigError(f"eval_split must be train/val/test, got {self.eval_split!r}")


def _coerce(key: str, raw: str, target_type) -> object:
    raw = raw.strip()
    try:
        if target_type is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return target_type(raw)
    except ValueError as err:
        raise ConfigError(f"bad value for {key}: {raw!r}") from err


def parse_config(text: str) -> RunConfig:
    hints = get_type_hints(RunConfig)
    valid = {f.name for f in fields(RunConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in valid:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw, hints[key])
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
    lines = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
