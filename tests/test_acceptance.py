"""Acceptance checks for the whole package.

Each test covers one acceptance criterion at its stated tolerance and prints
one [PASS]/[FAIL] scoreboard line with capture suspended, so a full run
shows the acceptance status inline.
"""

import statistics
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cmvqa.bundle import read_bundle, write_bundle
from cmvqa.config import RunConfig, dump_config
from cmvqa.data import generate_synthetic, load_dataset, save_dataset
from cmvqa.fusion import CmsaConfig, CmsaState, cmsa_fuse, init_cmsa
from cmvqa.model import VqaModel, apply_checkpoint, load_checkpoint
from cmvqa.numerics import Tensor
from cmvqa.question import QuestionEmbedding
from cmvqa.train import run_eval, run_gradcheck, run_pretrain, run_vqa_train
from cmvqa.vision import spatial_map
from layer_oracles import self_attention_map


def announce(capfd, name: str, ok: bool, detail: str) -> None:
    marker = "PASS" if ok else "FAIL"
    with capfd.disabled():
        # leading newline: under -v the runner holds an unfinished progress line
        print(f"\n[{marker}] {name}: {detail}", flush=True)


def build_corpus(config: RunConfig) -> None:
    vqa, pretrain, vocab = generate_synthetic(
        config.seed, {"vqa": config.n_vqa, "pretrain": config.n_pretrain},
        config.data_config(),
    )
    save_dataset(vqa, pretrain, vocab, config.data_config(), config.data_dir)


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    return [line.split(",") for line in lines[1:]]


# -- shared runs ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def small_runs(tmp_path_factory):
    """One 500-step VQA run (with invariant monitoring), its twin, a pretrain run."""
    root = tmp_path_factory.mktemp("accept-small")
    config = RunConfig(image_size=8, grid=2, c_v=8, d_q=8, d_emb=6, l_w=6,
                       n_vqa=60, n_pretrain=12, steps=500, pretrain_steps=40,
                       batch_size=4, pretrain_batch=4, log_every=10,
                       data_dir=str(root / "data"))
    build_corpus(config)

    deviations = {"gate": 0.0, "rows": 0.0, "calls": 0}

    def monitor(gate, state):
        deviations["calls"] += 1
        deviations["gate"] = max(deviations["gate"], abs(float(gate.w.data.sum()) - 1.0))
        for a in state.a:
            dev = float(np.max(np.abs(a.data.sum(axis=-1) - 1.0)))
            deviations["rows"] = max(deviations["rows"], dev)

    text = dump_config(config)
    _, eval_a = run_vqa_train(config, root / "vqa_a", config_text=text,
                              invariant_monitor=monitor)
    _, eval_b = run_vqa_train(config, root / "vqa_b", config_text=text)
    pre = run_pretrain(config, root / "pre", config_text=text)
    return SimpleNamespace(root=root, config=config, deviations=deviations,
                           eval_a=eval_a, eval_b=eval_b, pre=pre)


@pytest.fixture(scope="session")
def ablation(tmp_path_factory):
    """Three seeds x three arms: no pre-training, single-task, multi-task."""
    root = tmp_path_factory.mktemp("accept-ablation")
    arms_acc = {"none": [], "single": [], "multi": []}
    task_multi, task_single, compat = [], [], []
    for seed in (1, 2, 3):
        base = root / f"s{seed}"
        config = RunConfig(seed=seed, image_size=32, grid=4, c_v=32, d_q=32,
                           d_emb=16, l_w=6, glimpses=2, lr=1e-3, steps=200,
                           batch_size=8, pretrain_steps=800, pretrain_batch=8,
                           n_vqa=500, n_pretrain=200, shape_gain=1.2,
                           train_frac=0.24, val_frac=0.16, eval_split="test",
                           data_dir=str(base / "data"))
        build_corpus(config)
        res_multi = run_pretrain(replace(config, pretrain_mode="multi"), base / "multi")
        res_single = run_pretrain(replace(config, pretrain_mode="single"), base / "single")
        for arm, init in (("none", None),
                          ("single", str(base / "single" / "pretrain_all.cmtb")),
                          ("multi", str(base / "multi" / "pretrain_all.cmtb"))):
            _, ev = run_vqa_train(config, base / f"vqa_{arm}", init_path=init)
            arms_acc[arm].append(ev["all_acc"])
        task_multi.append(statistics.mean(r["task_acc"] for r in res_multi.values()))
        task_single.append(statistics.mean(r["task_acc"] for r in res_single.values()))
        compat.append(statistics.mean(r["compat_acc"] for r in res_multi.values()))
    medians = {arm: statistics.median(acc) for arm, acc in arms_acc.items()}
    return SimpleNamespace(arms=arms_acc, medians=medians, task_multi=task_multi,
                           task_single=task_single, compat=compat)


# -- criteria ------------------------------------------------------------------------


def test_criterion01_gradient_fidelity(capfd):
    config = RunConfig(image_size=8, grid=2, c_v=8, d_q=8, d_emb=6, l_w=3, glimpses=2)
    start = time.perf_counter()
    report = run_gradcheck(config)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 60
    announce(capfd, "gradient-fidelity", ok,
             f"max rel err {report.worst.max_rel_err:.2e} over {len(report.checks)} "
             f"parameter groups of the glimpses=2 model in {elapsed:.1f}s "
             f"(tol 1e-4, budget 60s)")
    assert report.passed, report.summary()
    assert elapsed < 60


def attention_loop_oracle(f_map, params, config):
    """Naive per-pair attention: explicit dot products and row softmaxes."""
    n, qkv, d_f = config.n_positions, config.qkv_channels, config.d_f
    flat = f_map.reshape(n, d_f)

    def channel_map(w, b):
        out = np.empty((n, w.shape[1]))
        for p in range(n):
            for o in range(w.shape[1]):
                out[p, o] = sum(flat[p, c] * w[c, o] for c in range(d_f)) + b[o]
        return out

    q = channel_map(params.q_w.data, params.q_b.data)
    k = channel_map(params.k_w.data, params.k_b.data)
    v = channel_map(params.v_w.data, params.v_b.data)
    a = np.empty((n, n))
    for i in range(n):
        logits = np.array([sum(q[i, c] * k[j, c] for c in range(qkv)) for j in range(n)])
        shifted = np.exp(logits - logits.max())
        a[i] = shifted / shifted.sum()
    mid = np.empty((n, qkv))
    for i in range(n):
        for c in range(qkv):
            mid[i, c] = sum(a[i, j] * v[j, c] for j in range(n))
    out = np.empty((n, d_f))
    for p in range(n):
        for o in range(d_f):
            out[p, o] = sum(mid[p, c] * params.out_w.data[c, o] for c in range(qkv))
            out[p, o] += params.out_b.data[o]
    return out.reshape(f_map.shape), a


def test_criterion02_attention_oracle_equivalence(capfd):
    rng = np.random.default_rng(7)
    grids = [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2), (4, 2), (16, 1), (2, 2)]
    worst = 0.0
    for i in range(20):
        l_w, g = grids[i % len(grids)]
        config = CmsaConfig(l_w=l_w, g=g, c_v=int(rng.integers(2, 7)),
                            d_q=int(rng.integers(2, 7)), glimpses=1)
        assert config.n_positions <= 16
        params = init_cmsa(rng, config).glimpses[0]
        f_map = Tensor(rng.standard_normal((l_w, g, g, config.d_f)))
        state = CmsaState()
        out = self_attention_map(f_map, params, config, collect=state)
        ref_out, ref_a = attention_loop_oracle(f_map.data, params, config)
        worst = max(worst,
                    float(np.max(np.abs(out.data - ref_out))),
                    float(np.max(np.abs(state.a[0].data - ref_a))))
    ok = worst <= 1e-9
    announce(capfd, "attention-oracle", ok,
             f"max |module - loop oracle| {worst:.2e} over 20 instances with "
             f"N <= 16 (tol 1e-9)")
    assert ok


def test_criterion03_shapes_at_paper_dimensions(capfd):
    config = CmsaConfig(l_w=12, g=7, c_v=512, d_q=1024, glimpses=2)
    assert (config.d_f, config.qkv_channels, config.n_positions) == (1544, 772, 588)
    gen = np.random.default_rng(0)
    params = init_cmsa(gen, config)
    v = Tensor(gen.standard_normal((7, 7, 512)) * 0.1)
    s = spatial_map(7)
    q = QuestionEmbedding(q=Tensor(gen.standard_normal((12, 1024)) * 0.1), true_length=12)
    start = time.perf_counter()
    f_hat, state = cmsa_fuse(v, s, q, params, config)
    elapsed = time.perf_counter() - start
    shapes = {
        "F": (state.f.shape, (12, 7, 7, 1544)),
        "Q": (state.q[0].shape, (588, 772)),
        "K": (state.k[0].shape, (588, 772)),
        "V": (state.v[0].shape, (588, 772)),
        "A": (state.a[0].shape, (588, 588)),
        "F_hat": (f_hat.shape, (12, 1024)),
    }
    ok = all(got == want for got, want in shapes.values()) and elapsed < 10
    announce(capfd, "paper-dim-shapes", ok,
             f"F 12x7x7x1544, Q/K/V 588x772, A 588x588, F_hat 12x1024; "
             f"forward {elapsed:.2f}s (budget 10s)")
    for name, (got, want) in shapes.items():
        assert got == want, f"{name}: {got} != {want}"
    assert elapsed < 10


def test_criterion04_loss_composition(small_runs, capfd):
    vqa_rows = read_rows(small_runs.root / "vqa_a" / "metrics.csv")
    checked = 0
    exact = True
    for row in vqa_rows:
        l_vqa, l_type, total = float(row[1]), float(row[2]), float(row[5])
        exact = exact and (total == l_vqa + 0.5 * l_type)
        checked += 1
    pre_rows = read_rows(small_runs.root / "pre" / "metrics.csv")
    for row in pre_rows:
        l_spe, l_com, total = float(row[3]), float(row[4]), float(row[5])
        exact = exact and (total == l_spe + l_com)
        checked += 1
    ok = exact and checked > 0
    announce(capfd, "loss-composition", ok,
             f"total == l_vqa + 0.5*l_type and total == l_spe + l_com bit-exact "
             f"on {checked} logged rows")
    assert ok


def test_criterion05_simplex_and_stochasticity(small_runs, capfd):
    dev = small_runs.deviations
    config = small_runs.config
    expected = config.steps * config.batch_size
    ok = (dev["calls"] == expected and dev["gate"] <= 1e-9 and dev["rows"] <= 1e-9)
    announce(capfd, "simplex-invariants", ok,
             f"{dev['calls']} monitored forwards over {config.steps} steps; "
             f"max |sum(gate w) - 1| {dev['gate']:.2e}, "
             f"max |sum(A row) - 1| {dev['rows']:.2e} (tol 1e-9)")
    assert dev["calls"] == expected
    assert dev["gate"] <= 1e-9
    assert dev["rows"] <= 1e-9


def test_criterion06_overfit_capability(tmp_path_factory, capfd):
    root = tmp_path_factory.mktemp("accept-overfit")
    config = RunConfig(seed=0, n_vqa=286, steps=800, batch_size=8,
                       data_dir=str(root / "data"))
    build_corpus(config)
    vqa, _, _, _ = load_dataset(config.data_dir)
    assert len(vqa["train"]) == 200
    start = time.perf_counter()
    model, _ = run_vqa_train(config, root / "run")
    elapsed = time.perf_counter() - start
    metrics = run_eval(model, vqa["train"])
    ok = metrics["all_acc"] >= 0.95 and config.steps <= 2000 and elapsed < 300
    announce(capfd, "overfit-capability", ok,
             f"train all_acc {metrics['all_acc']:.3f} on 200 samples after "
             f"{config.steps} steps in {elapsed:.0f}s (>=0.95, <=2000 steps, <300s)")
    assert metrics["all_acc"] >= 0.95
    assert elapsed < 300


@pytest.mark.slow
def test_criterion07_pretraining_ordering(ablation, capfd):
    med = ablation.medians
    margin = med["multi"] - med["none"]
    ok = med["multi"] >= med["single"] >= med["none"] and margin >= 0.03
    announce(capfd, "pretraining-ordering", ok,
             f"median held-out all_acc over 3 seeds: multi-task {med['multi']:.3f} "
             f">= single-task {med['single']:.3f} >= none {med['none']:.3f}; "
             f"multi-task margin {margin * 100:.1f} pts (>=3)")
    assert med["multi"] >= med["single"] >= med["none"], ablation.arms
    assert margin >= 0.03, ablation.arms


@pytest.mark.slow
def test_criterion08_compatibility_transfer(ablation, capfd):
    compat = statistics.median(ablation.compat)
    multi = statistics.median(ablation.task_multi)
    single = statistics.median(ablation.task_single)
    ok = compat > 0.65 and multi >= single - 0.01
    announce(capfd, "compatibility-transfer", ok,
             f"median held-out compat acc {compat:.3f} (>0.65); median image-task "
             f"acc {multi:.3f} multi-task vs {single:.3f} single-task "
             f"(drop <= 1 pt)")
    assert compat > 0.65, ablation.compat
    assert multi >= single - 0.01, (ablation.task_multi, ablation.task_single)


def test_criterion09_persistence(small_runs, tmp_path, capfd):
    config = small_runs.config
    vqa, _, vocab, _ = load_dataset(config.data_dir)
    arrays, _, _ = load_checkpoint(small_runs.root / "vqa_a" / "checkpoint.cmtb")
    restored = VqaModel(replace(config, seed=config.seed + 99), vocab.size)
    copied = apply_checkpoint(restored.params(), arrays)
    assert copied == len(restored.params())
    metrics = run_eval(restored, vqa[config.eval_split])
    metrics_identical = metrics == small_runs.eval_a

    rng = np.random.default_rng(11)
    tensors = {}
    for i in range(100):
        rank = int(rng.integers(0, 5))
        shape = tuple(int(rng.integers(1, 6)) for _ in range(rank))
        tensors[f"t{i:03d}"] = rng.standard_normal(shape)
    path = tmp_path / "hundred.cmtb"
    write_bundle(tensors, path)
    back = read_bundle(path)
    bundle_identity = set(back) == set(tensors) and all(
        back[k].shape == tensors[k].shape and back[k].tobytes() == tensors[k].tobytes()
        for k in tensors
    )
    ok = metrics_identical and bundle_identity
    announce(capfd, "persistence", ok,
             f"checkpoint restore reproduces eval metrics bit-identically "
             f"({metrics_identical}); bundle round trip identical on 100 random "
             f"tensors ({bundle_identity})")
    assert metrics_identical, (metrics, small_runs.eval_a)
    assert bundle_identity


def test_criterion10_determinism(small_runs, capfd):
    with open(small_runs.root / "vqa_a" / "metrics.csv", "rb") as fh:
        first = fh.read()
    with open(small_runs.root / "vqa_b" / "metrics.csv", "rb") as fh:
        second = fh.read()
    ok = first == second and len(first) > 0
    announce(capfd, "determinism", ok,
             f"two identical (config, seed) runs wrote bit-identical metrics CSVs "
             f"({len(first)} bytes)")
    assert ok
    assert small_runs.eval_a == small_runs.eval_b
