"""Tests for the key = value run-configuration parser."""

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from cmvqa.config import (
    ConfigError,
    RunConfig,
    dump_config,
    load_config,
    parse_config,
)


class TestParsing:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_values_comments_and_whitespace(self):
        text = """
        # optimizer block
        lr = 0.01   # inline comment
        steps=25

        glimpses = 1
        data_dir = runs/foo
        """
        config = parse_config(text)
        assert config.lr == 0.01
        assert config.steps == 25
        assert config.glimpses == 1
        assert config.data_dir == "runs/foo"
        # untouched keys keep their defaults
        assert config.batch_size == RunConfig().batch_size

    # attention logits are never scaled, so the old switch is an unknown key
    @pytest.mark.parametrize("key", ["learning_rate", "scaled_attention"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"{key} = true")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("lr = 0.1\nlr = 0.2")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("steps = many")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words")


class TestValidation:
    @pytest.mark.parametrize("line", [
        "steps = 0",
        "batch_size = 0",
        "alpha = -0.5",
        "pretrain_mode = both",
        "task_head = detection",
        "eval_split = holdout",
        "train_frac = 0.9\nval_frac = 0.2",
        "n_vqa = -5\neval_split = val",
        "n_pretrain = " + "1" + "0" * 400,
    ])
    def test_invalid_settings_rejected(self, line):
        with pytest.raises(ConfigError):
            parse_config(line)

    def test_zero_val_frac_allowed(self):
        config = parse_config("train_frac = 0.5\nval_frac = 0.0")
        assert config.val_frac == 0.0


class TestRoundTrip:
    def test_dump_then_parse_is_identity(self):
        config = parse_config(
            "seed = 7\nlr = 0.0005\nglimpses = 3\n"
            "pretrain_mode = single\nnoise = 0.25\ntrain_frac = 0.5"
        )
        assert parse_config(dump_config(config)) == config

    def test_dump_covers_every_field(self):
        text = dump_config(RunConfig())
        from dataclasses import fields
        for f in fields(RunConfig):
            assert f"{f.name} = " in text


class TestFiles:
    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\nsteps = 12\n")
        config = load_config(path)
        assert (config.seed, config.steps) == (3, 12)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")


class TestDerivedConfigs:
    def test_data_config_plumbs_fields(self):
        config = parse_config("image_size = 16\ngrid = 2\nnoise = 0.3\ntrain_frac = 0.6")
        dc = config.data_config()
        assert dc.image_size == 16
        assert dc.grid == 2
        assert dc.noise == 0.3
        assert dc.train_frac == 0.6

    def test_check_dataset_accepts_own_data_config(self):
        config = parse_config("image_size = 16\ngrid = 2\nnoise = 0.3")
        config.check_dataset(config.data_config())

    def test_check_dataset_names_every_differing_key(self):
        built = parse_config("grid = 2\nnoise = 0.3").data_config()
        config = parse_config("grid = 4\nshape_gain = 1.2\nnoise = 0.3")
        with pytest.raises(ConfigError) as err:
            config.check_dataset(built)
        message = str(err.value)
        assert "grid = 2 in the dataset, 4 in the config" in message
        assert "shape_gain = 2.0 in the dataset, 1.2 in the config" in message
        assert "noise" not in message

    def test_cmsa_config_glimpse_override(self):
        config = parse_config("glimpses = 2")
        assert config.cmsa_config().glimpses == 2
        assert config.cmsa_config(glimpses=1).glimpses == 1


# -- property tests: every bad text is a ConfigError --------------------------------

_KEYS = sorted(f.name for f in fields(RunConfig)) + ["", "nope", "=", "#"]
_VALUES = st.one_of(
    st.integers(min_value=-(10 ** 500), max_value=10 ** 500).map(str),
    st.integers(min_value=0, max_value=500).map(lambda k: "-" * (k % 2) + "1" + "0" * k),
    st.floats().map(repr),
    st.sampled_from(["true", "no", "multi", "single", "test", "nan", "-inf", "1e999", ""]),
    st.text(max_size=12),
)
_LINES = st.lists(st.tuples(st.sampled_from(_KEYS), _VALUES).map(" = ".join), max_size=6)
_PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


def _parses_or_config_error(text):
    try:
        config = parse_config(text)
    except ConfigError:
        return
    assert isinstance(config, RunConfig)


@_PROPERTY
@given(text=st.text(max_size=200))
def test_random_text_parses_or_raises_config_error(text):
    _parses_or_config_error(text)


@_PROPERTY
@given(lines=_LINES)
def test_random_key_value_lines_parse_or_raise_config_error(lines):
    _parses_or_config_error("\n".join(lines))


@_PROPERTY
@given(key=st.sampled_from(_KEYS), value=_VALUES)
def test_one_random_value_over_the_defaults_parses_or_raises_config_error(key, value):
    _parses_or_config_error(f"{key} = {value}")
