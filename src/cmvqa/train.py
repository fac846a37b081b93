"""Training loops, evaluation, metrics logging, and the model-level grad check.

Batch order is a fixed seed-derived permutation cycled over the train split,
and logged losses come from a fixed monitor batch, so identical (config,
seed) runs produce bit-identical metrics files.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

import numpy as np

from .config import RunConfig
from .data import TYPE_NAMES, load_dataset
from .heads import LossReport, image_task_loss, pretrain_loss, vqa_loss
from .model import (
    PretrainModel,
    VqaModel,
    apply_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from .numerics import (
    GradCheckReport,
    OptimState,
    Rng,
    Tensor,
    adam_step,
    add,
    grad_check,
    scale,
)

METRICS_HEADER = "step,l_vqa,l_type,l_spe,l_com,total,open_acc,closed_acc,all_acc"


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


class MetricsWriter:
    """Fixed-header CSV; floats are written with repr for exact round trips."""

    def __init__(self, path):
        self.path = path
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(METRICS_HEADER + "\n")

    def row(self, step: int, l_vqa=None, l_type=None, l_spe=None, l_com=None,
            total=None, open_acc=None, closed_acc=None, all_acc=None) -> None:
        cells = [str(step)] + [
            _fmt(v) for v in (l_vqa, l_type, l_spe, l_com, total, open_acc, closed_acc, all_acc)
        ]
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(",".join(cells) + "\n")


def _batch_indices(rng: Rng, n: int, steps: int, batch: int) -> List[List[int]]:
    """Cycle a fixed permutation; reproducible from the seed alone."""
    perm = rng.gen.permutation(n)
    out, pos = [], 0
    for _ in range(steps):
        idx = [int(perm[(pos + j) % n]) for j in range(batch)]
        pos = (pos + batch) % n
        out.append(idx)
    return out


def _mean_loss(losses: List[Tensor]) -> Tensor:
    total = losses[0]
    for item in losses[1:]:
        total = add(total, item)
    return scale(total, 1.0 / len(losses))


def _optimize_step(params: Dict[str, Tensor], loss: Tensor, state: OptimState) -> OptimState:
    for p in params.values():
        p.zero_grad()
    loss.backward()
    grads = {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    _, state = adam_step(params, grads, state)
    return state


# -- evaluation ---------------------------------------------------------------------


def answer_metrics(pred_ids: List[int], samples) -> Dict[str, float]:
    """Open/closed/all accuracy from predicted answer ids."""
    open_hits = open_n = closed_hits = closed_n = 0
    for pred, s in zip(pred_ids, samples):
        hit = int(pred == s.answer_id)
        if s.question_kind == "open":
            open_hits += hit
            open_n += 1
        else:
            closed_hits += hit
            closed_n += 1
    total = open_n + closed_n
    return {
        "open_acc": open_hits / open_n if open_n else 0.0,
        "closed_acc": closed_hits / closed_n if closed_n else 0.0,
        "all_acc": (open_hits + closed_hits) / total if total else 0.0,
    }


def run_eval(model: VqaModel, samples) -> Dict[str, float]:
    """Deterministic forward-only pass over one split."""
    if not samples:
        raise ValueError("empty evaluation split")
    preds, type_hits = [], 0
    for s in samples:
        logits, gate, _ = model.forward(s)
        preds.append(int(np.argmax(logits.data)))
        type_hits += int(np.argmax(gate.w.data) == s.type_id)
    metrics = answer_metrics(preds, samples)
    metrics["type_acc"] = type_hits / len(samples)
    return metrics


# -- VQA training ---------------------------------------------------------------------


def run_vqa_train(config: RunConfig, out_dir, init_path: Optional[str] = None,
                  config_text: str = "",
                  invariant_monitor: Optional[Callable] = None):
    """Minimize l_vqa + alpha*l_type end to end; returns (model, final metrics)."""
    vqa, _, vocab, data_config = load_dataset(config.data_dir)
    config.check_dataset(data_config)
    train = vqa["train"]
    if not train:
        raise ValueError("train split is empty")

    model = VqaModel(config, vocab.size)
    params = model.params()
    if init_path:
        arrays, _, _ = load_checkpoint(init_path)
        apply_checkpoint(params, arrays, prefix="backbone/")

    rng = Rng(config.seed)
    batches = _batch_indices(rng.child("batch-order"), len(train), config.steps,
                             config.batch_size)
    monitor_idx = [int(i) for i in
                   rng.child("monitor").gen.permutation(len(train))[: config.batch_size]]
    os.makedirs(out_dir, exist_ok=True)
    writer = MetricsWriter(os.path.join(out_dir, "metrics.csv"))
    state = OptimState(lr=config.lr)

    def monitor_losses():
        vqa_vals, type_vals = [], []
        for i in monitor_idx:
            s = train[i]
            logits, gate, st = model.forward(s)
            _, report = vqa_loss(logits, s.answer_id, gate.logits, s.type_id, config.alpha)
            vqa_vals.append(report.l_vqa)
            type_vals.append(report.l_type)
        l_vqa = sum(vqa_vals) / len(vqa_vals)
        l_type = sum(type_vals) / len(type_vals)
        return l_vqa, l_type, l_vqa + config.alpha * l_type

    for step in range(1, config.steps + 1):
        losses = []
        for i in batches[step - 1]:
            s = train[i]
            logits, gate, st = model.forward(s)
            if invariant_monitor is not None:
                invariant_monitor(gate, st)
            total, _ = vqa_loss(logits, s.answer_id, gate.logits, s.type_id, config.alpha)
            losses.append(total)
        state = _optimize_step(params, _mean_loss(losses), state)

        if step % config.log_every == 0 or step == config.steps:
            l_vqa, l_type, total = monitor_losses()
            if step == config.steps:
                final_eval = run_eval(model, vqa[config.eval_split])
                writer.row(step, l_vqa=l_vqa, l_type=l_type, total=total,
                           open_acc=final_eval["open_acc"],
                           closed_acc=final_eval["closed_acc"],
                           all_acc=final_eval["all_acc"])
            else:
                writer.row(step, l_vqa=l_vqa, l_type=l_type, total=total)

    save_checkpoint(params, config.steps, config_text,
                    os.path.join(out_dir, "checkpoint.cmtb"))
    return model, final_eval


# -- pre-training -----------------------------------------------------------------------


def _pretrain_val_metrics(model: PretrainModel, samples, multi: bool):
    task_hits, task_total, com_hits = 0, 0, 0
    for s in samples:
        if multi:
            task_logits, com_logits = model.forward(s)
            com_hits += int(np.argmax(com_logits.data) == s.compat_label)
        else:
            task_logits = model.forward_task_only(s)
        if model.task == "segmentation":
            pred = np.argmax(task_logits.data, axis=-1)
            task_hits += (pred == s.task_target).sum()
            task_total += pred.size
        else:
            task_hits += int(np.argmax(task_logits.data) == s.task_target)
            task_total += 1
    out = {"task_acc": task_hits / task_total}
    if multi:
        out["compat_acc"] = com_hits / len(samples)
    return out


def run_pretrain(config: RunConfig, out_dir, config_text: str = ""):
    """Train the three encoders on the joint task + compatibility loss
    (or on the image task alone in single mode).

    Writes metrics.csv (losses, global step), pretrain_accuracy.csv (held-out
    task and compatibility accuracy per encoder), one checkpoint per encoder,
    and pretrain_all.cmtb holding the three encoder weights for transfer.
    """
    _, pretrain, vocab, data_config = load_dataset(config.data_dir)
    config.check_dataset(data_config)
    os.makedirs(out_dir, exist_ok=True)
    multi = config.pretrain_mode == "multi"

    writer = MetricsWriter(os.path.join(out_dir, "metrics.csv"))
    acc_path = os.path.join(out_dir, "pretrain_accuracy.csv")
    with open(acc_path, "w", encoding="utf-8") as fh:
        fh.write("encoder,task_acc,compat_acc\n")

    combined = {}
    results = {}
    global_step = 0
    for type_id in range(3):
        corpus = pretrain[type_id]
        train = corpus["train"]
        if not train:
            raise ValueError(f"pretrain train split for type {type_id} is empty")
        model = PretrainModel(config, vocab.size, type_id)
        params = model.params()
        rng = Rng(config.seed).child(f"pretrain-loop-{type_id}")
        batches = _batch_indices(rng.child("batch-order"), len(train),
                                 config.pretrain_steps, config.pretrain_batch)
        monitor_idx = [int(i) for i in
                       rng.child("monitor").gen.permutation(len(train))[: config.pretrain_batch]]
        state = OptimState(lr=config.lr)

        def sample_loss(s):
            if multi:
                task_logits, com_logits = model.forward(s)
                return pretrain_loss(task_logits, s.task_target, com_logits, s.compat_label)
            # single-task arm: the compatibility term is dropped entirely
            l_spe = image_task_loss(model.forward_task_only(s), s.task_target)
            return l_spe, LossReport(total=l_spe.item(), l_spe=l_spe.item(), l_com=None)

        def monitor_losses():
            spe_vals, com_vals = [], []
            for i in monitor_idx:
                _, report = sample_loss(train[i])
                spe_vals.append(report.l_spe)
                if report.l_com is not None:
                    com_vals.append(report.l_com)
            l_spe = sum(spe_vals) / len(spe_vals)
            if com_vals:
                l_com = sum(com_vals) / len(com_vals)
                return l_spe, l_com, l_spe + l_com
            return l_spe, None, l_spe

        for step in range(1, config.pretrain_steps + 1):
            losses = [sample_loss(train[i])[0] for i in batches[step - 1]]
            state = _optimize_step(params, _mean_loss(losses), state)
            global_step += 1
            if step % config.log_every == 0 or step == config.pretrain_steps:
                l_spe, l_com, total = monitor_losses()
                writer.row(global_step, l_spe=l_spe, l_com=l_com, total=total)

        metrics = _pretrain_val_metrics(model, corpus["val"], multi)
        results[TYPE_NAMES[type_id]] = metrics
        with open(acc_path, "a", encoding="utf-8") as fh:
            compat = _fmt(metrics.get("compat_acc"))
            fh.write(f"{TYPE_NAMES[type_id]},{_fmt(metrics['task_acc'])},{compat}\n")

        save_checkpoint(params, config.pretrain_steps, config_text,
                        os.path.join(out_dir, f"pretrain_{TYPE_NAMES[type_id]}.cmtb"))
        for name, tensor in params.items():
            if name.startswith("backbone/"):
                combined[name] = tensor

    save_checkpoint(combined, config.pretrain_steps, config_text,
                    os.path.join(out_dir, "pretrain_all.cmtb"))
    return results


# -- model-level gradient check ------------------------------------------------------------


def run_gradcheck(config: RunConfig, corrupt_param: Optional[str] = None) -> GradCheckReport:
    """Check every parameter of a full model on one random sample."""
    from .data import build_vocabulary, generate_vqa

    data_config = config.data_config()
    vocab = build_vocabulary(data_config)
    sample = generate_vqa(config.seed, 4, data_config, vocab)["train"][0]

    model = VqaModel(config, vocab.size)
    params = model.params()

    def objective():
        logits, gate, _ = model.forward(sample)
        total, _ = vqa_loss(logits, sample.answer_id, gate.logits,
                            sample.type_id, config.alpha)
        if corrupt_param is not None:
            # constant term the graph cannot see: finite differences feel it,
            # backward does not, so the named parameter fails its check
            total = add(total, Tensor(np.asarray(params[corrupt_param].data.sum())))
        return total

    return grad_check(objective, params, h=1e-5, tol=1e-4)
