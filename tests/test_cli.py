"""End-to-end tests for the command-line interface."""

import os

import pytest

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


class TestGenData:
    def test_writes_dataset_files(self, workspace):
        root, _ = workspace
        for name in ("data.cmtb", "manifest.jsonl", "vocab.txt", "data_config.json"):
            assert (root / "data" / name).exists()

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
        assert main(["eval", "--config", str(cfg)]) == 2
        assert "--init" in capsys.readouterr().err

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

    def test_train_without_dataset(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG.format(data_dir=tmp_path / "missing"))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


class TestGradCheckCommand:
    def test_passing_check_exits_zero(self, tmp_path, capsys):
        cfg = tmp_path / "gc.cfg"
        cfg.write_text(
            "image_size = 8\ngrid = 2\nc_v = 4\nd_q = 4\nd_emb = 4\nl_w = 6\nglimpses = 1\n"
        )
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        assert "PASS" in capsys.readouterr().out
