"""End-to-end tests for the command-line interface."""

import json
import os
import struct

import numpy as np
import pytest

from cmvqa.bundle import read_bundle, write_bundle
from cmvqa.cli import main
from cmvqa.model import load_checkpoint

TINY_CFG = """
image_size = 8
grid = 2
c_v = 8
d_q = 8
d_emb = 6
l_w = 6
n_vqa = 24
n_pretrain = 8
steps = 4
pretrain_steps = 3
batch_size = 4
pretrain_batch = 4
log_every = 2
data_dir = {data_dir}
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(TINY_CFG.format(data_dir=root / "data"))
    assert main(["gen-data", "--config", str(cfg)]) == 0
    return root, cfg


@pytest.fixture(scope="module")
def pretrained(workspace):
    """The workspace's pre-training output directory."""
    root, cfg = workspace
    assert main(["pretrain", "--config", str(cfg), "--out", str(root / "pre-init")]) == 0
    return root / "pre-init"


def _flags(command, out, root):
    """The --out and --init flags `command` takes: an output directory `out`
    and a checkpoint path under `root` that does not exist."""
    flags = {"gen-data": ["--out"], "pretrain": ["--out"], "train": ["--out", "--init"],
             "eval": ["--init"]}[command]
    values = {"--out": str(out), "--init": str(root / "any.cmtb")}
    return [arg for flag in flags for arg in (flag, values[flag])]


def _without_chest_layer1_weight(pre, tmp_path):
    """pretrain_all.cmtb less one weight of one encoder layer."""
    arrays = read_bundle(pre / "pretrain_all.cmtb")
    del arrays["backbone/chest/layer1/w"]
    write_bundle(arrays, tmp_path / "short.cmtb")
    return tmp_path / "short.cmtb"


def _set_first(name, value):
    """An edit of a data.cmtb entry dict that sets the first value of name."""
    def edit(arrays):
        arrays[name].flat[0] = value
    return edit


def _every_column(prefix, value):
    """An edit of a data.cmtb entry dict that sets every column under prefix."""
    def edit(arrays):
        arrays.update({name: value for name in list(arrays) if name.startswith(prefix + "/")})
    return edit


ALL = ("train", "pretrain", "eval")


def _assert_dataset_rejected(tmp_path, cfg, capsys, named, commands=ALL):
    """Each command exits 2 naming the problem and gen-data, prints nothing
    to stdout and creates no output directory."""
    for command in commands:
        out = tmp_path / command
        assert main([command, "--config", str(cfg), *_flags(command, out, tmp_path)]) == 2
        captured = capsys.readouterr()
        assert named in captured.err and "gen-data" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestGenData:
    def test_writes_dataset_files(self, workspace):
        root, _ = workspace
        assert [p.name for p in (root / "data").iterdir()] == ["data.cmtb"]

    def test_reports_split_sizes(self, workspace, capsys):
        root, cfg = workspace
        main(["gen-data", "--config", str(cfg), "--out", str(root / "data2")])
        out = capsys.readouterr().out
        assert "train" in out and "test" in out


class TestPipeline:
    def test_pretrain_train_eval_chain(self, workspace, capsys):
        root, cfg = workspace
        assert main(["pretrain", "--config", str(cfg), "--out", str(root / "pre")]) == 0
        out = capsys.readouterr().out
        assert "task_acc" in out and "compat_acc" in out
        assert (root / "pre" / "pretrain_all.cmtb").exists()

        assert main(["train", "--config", str(cfg), "--out", str(root / "tr"),
                     "--init", str(root / "pre" / "pretrain_all.cmtb")]) == 0
        out = capsys.readouterr().out
        assert "all_acc=" in out
        ckpt = root / "tr" / "checkpoint.cmtb"
        assert ckpt.exists()

        assert main(["eval", "--config", str(cfg), "--init", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "type_acc=" in out

    def test_seed_override_recorded_in_checkpoint(self, workspace):
        root, cfg = workspace
        assert main(["train", "--config", str(cfg), "--seed", "5",
                     "--out", str(root / "tr5")]) == 0
        _, _, text = load_checkpoint(root / "tr5" / "checkpoint.cmtb")
        assert "seed = 5" in text


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        assert main(["gen-data", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_eval_requires_init(self, workspace, capsys):
        _, cfg = workspace
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", "--config", str(cfg)])
        assert exit_info.value.code == 2
        assert "--init" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--out"), ("pretrain", "--init"), ("gen-data", "--init"),
        ("gradcheck", "--out"), ("gradcheck", "--init"),
    ])
    def test_flag_the_command_does_not_read_rejected_before_output(
            self, workspace, tmp_path, capsys, command, flag):
        root, cfg = workspace
        argv = [command, "--config", str(cfg), flag, str(tmp_path / "x")]
        if command == "eval":
            argv += ["--init", str(root / "any.cmtb")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag}" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_eval_rejects_encoder_only_checkpoint(self, workspace, capsys):
        root, cfg = workspace
        assert main(["pretrain", "--config", str(cfg), "--out", str(root / "pre-eval")]) == 0
        capsys.readouterr()
        ckpt = root / "pre-eval" / "pretrain_all.cmtb"
        assert main(["eval", "--config", str(cfg), "--init", str(ckpt)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        for group in ("lstm", "answer", "cmsa/glimpse0", "gate"):
            assert group in captured.err

    def test_removed_task_key_rejected_before_output(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG.format(data_dir=tmp_path / "data")
                       + "task_abdomen = classification\n")
        out = tmp_path / "pre"
        assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown key 'task_abdomen'" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_built_under_other_dimensions_rejected_before_output(self, tmp_path, capsys):
        built = tmp_path / "built.cfg"
        built.write_text(TINY_CFG.format(data_dir=tmp_path / "data")
                         .replace("image_size = 8", "image_size = 16"))
        assert main(["gen-data", "--config", str(built)]) == 0
        run = tmp_path / "run.cfg"
        run.write_text(built.read_text().replace("grid = 2", "grid = 4"))
        capsys.readouterr()
        for command in ("train", "pretrain"):
            out = tmp_path / command
            assert main([command, "--config", str(run), "--out", str(out)]) == 2
            assert "grid = 2 in the dataset, 4 in the config" in capsys.readouterr().err
            assert not out.exists()
        assert main(["eval", "--config", str(run), "--init", str(tmp_path / "any.cmtb")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid = 2 in the dataset" in captured.err

    @pytest.mark.parametrize("edit, named", [
        (lambda saved: {**saved, "texture_amp": 1.0}, "unknown key 'texture_amp'"),
        (lambda saved: {k: v for k, v in saved.items() if k != "noise"}, "missing key 'noise'"),
        (lambda saved: list(saved), "not a JSON object"),
    ], ids=["extra-key", "missing-key", "not-an-object"])
    def test_dataset_config_with_other_keys_rejected_before_output(self, tmp_path, capsys,
                                                                  edit, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG.format(data_dir=tmp_path / "data"))
        assert main(["gen-data", "--config", str(cfg)]) == 0
        path = tmp_path / "data" / "data.cmtb"
        arrays = read_bundle(path)
        saved = json.loads(arrays["__config__"].tobytes())
        arrays["__config__"] = np.frombuffer(json.dumps(edit(saved)).encode(), np.uint8)
        write_bundle(arrays, path)
        capsys.readouterr()
        _assert_dataset_rejected(tmp_path, cfg, capsys, named)

    def test_dataset_in_older_layout_rejected_before_output(self, tmp_path, capsys):
        """A data.cmtb of one entry per image beside a manifest, a vocabulary
        and a settings file, as earlier versions wrote it."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG.format(data_dir=tmp_path / "data"))
        data = tmp_path / "data"
        data.mkdir()
        write_bundle({"vqa/0": np.zeros((8, 8, 1)), "pre/0": np.zeros((8, 8, 1))},
                     data / "data.cmtb")
        (data / "manifest.jsonl").write_text(json.dumps(
            {"image": "vqa/0", "tokens": [2, 3], "answer": 2, "type": 0, "kind": "open",
             "split": "train"}) + "\n")
        (data / "vocab.txt").write_text("<pad>\n<unk>\nwhat\n")
        (data / "data_config.json").write_text(json.dumps({"image_size": 8, "grid": 2}))
        _assert_dataset_rejected(tmp_path, cfg, capsys, "records no data settings")

    @pytest.mark.parametrize("edit, named, commands", [
        (lambda arrays: arrays.pop("pretrain/head/val/compat"),
         "no entry 'pretrain/head/val/compat'", ALL),
        (lambda arrays: arrays.update({"vqa/train/answer": arrays["vqa/train/answer"][1:]}),
         "different sample counts under 'vqa/train'", ALL),
        (lambda arrays: arrays.update({"pretrain/chest/val/target": np.array(1.0)}),
         "different sample counts under 'pretrain/chest/val'", ALL),
        (_set_first("vqa/train/tokens", 999), "entry 'vqa/train/tokens' holds 999, not an id", ALL),
        (_set_first("vqa/train/tokens", 2.5), "entry 'vqa/train/tokens' holds 2.5, not an id", ALL),
        (_set_first("vqa/test/answer", 7), "entry 'vqa/test/answer' holds 7, not an id in [0, 5)",
         ALL),
        (_set_first("vqa/val/type", -1), "entry 'vqa/val/type' holds -1, not an id in [0, 3)", ALL),
        (_set_first("vqa/train/open", 2), "entry 'vqa/train/open' holds 2, not an id in [0, 2)",
         ALL),
        (_set_first("pretrain/head/train/target", 3),
         "entry 'pretrain/head/train/target' holds 3, not an id in [0, 3)", ALL),
        (_set_first("pretrain/abdomen/val/target", 0.5),
         "entry 'pretrain/abdomen/val/target' holds 0.5, not an id in [0, 2)", ALL),
        (_set_first("pretrain/chest/train/compat", 1.5),
         "entry 'pretrain/chest/train/compat' holds 1.5, not an id in [0, 2)", ALL),
        (lambda arrays: arrays.update({"vqa/train/tokens": arrays["vqa/train/tokens"][:, :3]}),
         "entry 'vqa/train/tokens' has shape (17, 3), not (n, 6)", ALL),
        (lambda arrays: arrays.update({"vqa/train/image": arrays["vqa/train/image"][:, :4, :4]}),
         "entry 'vqa/train/image' has shape (17, 4, 4, 1), not (n, 8, 8, 1)", ALL),
        (lambda arrays: arrays.update({"pretrain/head/train/target": np.zeros((7, 2))}),
         "entry 'pretrain/head/train/target' has shape (7, 2), not (n,)", ALL),
        (_every_column("vqa/train", np.array(0.0)),
         "entry 'vqa/train/image' has shape (), not (n, 8, 8, 1)", ALL),
        (_every_column("vqa/test", np.zeros(0)), "the vqa test split is empty", ("train", "eval")),
        (_every_column("pretrain/head/val", np.zeros(0)), "the pretrain head val split is empty",
         ("pretrain",)),
    ], ids=["missing", "short", "0-d", "token-999", "token-2.5", "answer-7", "type-negative",
            "open-2", "class-3", "mask-half", "compat-1.5", "tokens-cut", "image-small",
            "class-target-2-d", "all-0-d", "empty-vqa-test", "empty-pretrain-val"])
    def test_dataset_with_a_bad_entry_rejected_before_output(self, workspace, tmp_path, capsys,
                                                             edit, named, commands):
        root, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG.format(data_dir=tmp_path / "data"))
        arrays = read_bundle(root / "data" / "data.cmtb")
        edit(arrays)
        (tmp_path / "data").mkdir()
        write_bundle(arrays, tmp_path / "data" / "data.cmtb")
        _assert_dataset_rejected(tmp_path, cfg, capsys, named, commands)

    @pytest.mark.parametrize("edit, named", [
        (("n_pretrain = 8", "n_pretrain = 3"), "n_pretrain = 3 leaves the val split empty"),
        (("n_vqa = 24", "n_vqa = 1"), "n_vqa = 1 leaves the test split empty"),
        (("log_every = 2", "log_every = 0"), "log_every must be >= 1"),
        (("steps = 4", "steps = 4\nlr = nan"), "lr must be finite and > 0"),
        (("steps = 4", "steps = 4\nlr = -1"), "lr must be finite and > 0"),
        (("d_q = 8", "d_q = 0"), "d_q must be >= 1"),
        (("c_v = 8", "c_v = 0"), "c_v must be >= 1"),
        (("l_w = 6", "l_w = 0"), "l_w must be >= 1"),
        (("d_emb = 6", "d_emb = 1"), "d_emb must be >= 2"),
        (("grid = 2", "grid = 3"), "image_size / grid must be a power of two >= 2"),
        (("image_size = 8", "image_size = 7"), "image_size / grid must be a power of two >= 2"),
        (("image_size = 8", "image_size = 2"), "image_size / grid must be a power of two >= 2"),
        (("image_size = 8", "image_size = 4"), "image_size / grid = 2 draws no square or cross"),
        (("steps = 4", "steps = 4\nglimpses = 0"), "glimpses must be >= 1"),
        (("steps = 4", "steps = 4\nnoise = -1"), "noise must be finite and >= 0"),
        (("steps = 4", "steps = 4\nalpha = nan"), "alpha must be finite and >= 0"),
        (("steps = 4", "steps = 4\nalpha = inf"), "alpha must be finite and >= 0"),
        (("steps = 4", "steps = 4\nshape_gain = nan"), "shape_gain must be finite"),
        (("steps = 4", "steps = 4\nshape_gain = inf"), "shape_gain must be finite"),
        (("steps = 4", "steps = 4\ntrain_frac = nan"), "train_frac must be in (0, 1)"),
        (("steps = 4", "steps = 4\nval_frac = nan"), "val_frac must be in [0, 1)"),
        (("steps = 4", "steps = 4\nseed = -1"), "seed must be >= 0, got -1"),
    ], ids=["empty-pretrain-val", "empty-vqa-test", "log-every-0", "lr-nan", "lr-negative",
            "d-q-0", "c-v-0", "l-w-0", "d-emb-1", "grid-3", "image-size-7", "image-size-is-grid",
            "two-pixel-cells",
            "glimpses-0", "noise-negative", "alpha-nan", "alpha-inf", "shape-gain-nan",
            "shape-gain-inf", "train-frac-nan", "val-frac-nan", "seed-negative"])
    def test_unworkable_value_rejected_before_output(self, workspace, tmp_path, capsys,
                                                     edit, named):
        root, cfg = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg.read_text().replace(*edit))
        for command in ("gen-data", "pretrain", "train", "eval"):
            out = tmp_path / command
            assert main([command, "--config", str(bad), *_flags(command, out, root)]) == 2
            captured = capsys.readouterr()
            assert named in captured.err and captured.out == ""
            assert not out.exists()

    def test_negative_seed_flag_rejected_before_output(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        for command in ("gen-data", "pretrain", "train", "eval"):
            out = tmp_path / command
            argv = [command, "--config", str(cfg), "--seed", "-1", *_flags(command, out, root)]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "seed must be >= 0, got -1" in captured.err and captured.out == ""
            assert not out.exists()

    @pytest.mark.parametrize("checkpoint, missing", [
        (lambda pre, tmp: pre.parent / "data" / "data.cmtb",
         [f"backbone/{t}/layer{i}" for t in ("abdomen", "head", "chest") for i in (0, 1)]),
        (lambda pre, tmp: pre / "pretrain_head.cmtb",
         [f"backbone/{t}/layer{i}" for t in ("abdomen", "chest") for i in (0, 1)]),
        (_without_chest_layer1_weight, ["backbone/chest/layer1"]),
    ], ids=["dataset", "one-encoder", "one-layer-short"])
    def test_init_that_does_not_cover_the_encoders_rejected_before_output(
            self, workspace, pretrained, tmp_path, capsys, checkpoint, missing):
        _, cfg = workspace
        path = checkpoint(pretrained, tmp_path)
        capsys.readouterr()
        out = tmp_path / "tr"
        assert main(["train", "--config", str(cfg), "--out", str(out), "--init", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: checkpoint lacks parameter groups: {', '.join(sorted(missing))}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_missing_frozen_embedding_rejected_before_output(self, workspace, tmp_path, capsys):
        _, cfg = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg.read_text() + f"frozen_embedding_path = {tmp_path / 'absent.cmtb'}\n")
        for command in ("pretrain", "train"):
            out = tmp_path / command
            assert main([command, "--config", str(bad), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert "absent.cmtb" in captured.err and captured.out == ""
            assert not out.exists()

    def test_non_finite_checkpoint_rejected_before_output(self, workspace, tmp_path, capsys):
        """A checkpoint entry holding NaN: eval and train --init exit 2 naming
        the entry, and write no output directory."""
        _, cfg = workspace
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "tr")]) == 0
        arrays = read_bundle(tmp_path / "tr" / "checkpoint.cmtb")
        marker = struct.pack("<d", 12345.678)
        arrays["backbone/abdomen/layer0/w"].flat[0] = 12345.678
        bad = tmp_path / "bad.cmtb"
        write_bundle(arrays, bad)
        raw = bad.read_bytes()
        assert raw.count(marker) == 1
        bad.write_bytes(raw.replace(marker, struct.pack("<d", np.nan)))
        capsys.readouterr()
        for command in ("eval", "train"):
            out = tmp_path / command
            flags = ["--init", str(bad)] + (["--out", str(out)] if command == "train" else [])
            assert main([command, "--config", str(cfg), *flags]) == 2
            captured = capsys.readouterr()
            assert "'backbone/abdomen/layer0/w' holds non-finite values" in captured.err
            assert captured.out == ""
            assert not out.exists()

    def test_checkpoint_step_that_is_not_a_scalar_rejected_before_output(
            self, workspace, pretrained, tmp_path, capsys):
        """eval and train --init exit 2 naming __step__, and write no output."""
        _, cfg = workspace
        arrays = read_bundle(pretrained / "pretrain_all.cmtb")
        arrays["__step__"] = np.array([3.0, 3.0])
        bad = tmp_path / "bad.cmtb"
        write_bundle(arrays, bad)
        capsys.readouterr()
        for command in ("eval", "train"):
            out = tmp_path / command
            flags = ["--init", str(bad)] + (["--out", str(out)] if command == "train" else [])
            assert main([command, "--config", str(cfg), *flags]) == 2
            captured = capsys.readouterr()
            assert "entry '__step__' has shape (2,), not a scalar" in captured.err
            assert captured.out == ""
            assert not out.exists()

    def test_train_without_dataset(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG.format(data_dir=tmp_path / "missing"))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


class TestNumericalFailure:
    def test_overflow_is_one_line_and_exit_4(self, workspace, tmp_path, capsys, recwarn):
        """An lr that passes validation but overflows the first update: one
        error line naming the op, no traceback and no numpy warning, exit
        code 4."""
        _, cfg = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg.read_text().replace("steps = 4", "steps = 4\nlr = 1e300"))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite values produced by operation ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_pretrain_overflow_is_one_line_and_exit_4(self, workspace, tmp_path, capsys):
        _, cfg = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg.read_text().replace("steps = 4", "steps = 4\nlr = 1e300"))
        assert main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite values produced by operation ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestGradCheckCommand:
    def test_passing_check_exits_zero(self, tmp_path, capsys):
        cfg = tmp_path / "gc.cfg"
        cfg.write_text(
            "image_size = 8\ngrid = 2\nc_v = 4\nd_q = 4\nd_emb = 4\nl_w = 6\nglimpses = 1\n"
        )
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_relu_kink_at_seed_21_exits_zero(self, capsys):
        """At seed 21 a pre-activation of backbone/head/layer0 sits within h
        of zero; its coordinates pass against a one-sided difference."""
        cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "gradcheck.cfg")
        assert main(["gradcheck", "--config", cfg, "--seed", "21"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("grad check: PASS (tol=0.0001, h=1e-05, 2 coords checked at a kink)")
        assert "backbone/head/layer0/b: " in out and "4 coords, 1 at a kink)" in out
