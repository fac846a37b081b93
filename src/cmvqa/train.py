"""Training loops, evaluation, metrics logging, and the model-level grad check.

Batch order is a fixed seed-derived permutation cycled over the train split,
and logged losses come from a fixed monitor batch, so identical (config,
seed) runs produce bit-identical metrics files.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .config import RunConfig
from .data import PRETRAIN_SPLITS, TYPE_NAMES, Split, load_dataset
from .heads import LossReport, pretrain_loss, vqa_loss
from .model import (
    PretrainModel,
    VqaModel,
    apply_checkpoint,
    frozen_table,
    load_checkpoint,
    param_stage,
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
from .question import QuestionEmbedding
from .vision import TypeGate

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
    _, state = adam_step(params, {name: p.grad for name, p in params.items()}, state)
    return state


def _fit(params: Dict[str, Tensor], n: int, rng: Rng, steps: int, batch: int,
         config: RunConfig, sample_loss: Callable) -> Iterator[Tuple[int, List[LossReport]]]:
    """Adam over a fixed batch order of n train samples; every log_every
    steps and at the last one, yields (step, the monitor batch's loss reports).

    sample_loss(i, training) returns (loss tensor, LossReport) for train
    sample i; training is False for the monitor batch.
    """
    batches = _batch_indices(rng.child("batch-order"), n, steps, batch)
    monitor = rng.child("monitor").gen.permutation(n)[:batch]
    state = OptimState(lr=config.lr)
    for step, idx in enumerate(batches, start=1):
        # built inline so no name holds this step's graphs into the next step
        state = _optimize_step(params, _mean_loss([sample_loss(i, True)[0] for i in idx]), state)
        if step % config.log_every == 0 or step == steps:
            yield step, [sample_loss(i, False)[1] for i in monitor]


def _mean(reports: List[LossReport], field: str) -> Optional[float]:
    """Mean of one loss component over the reports; None where it is unset."""
    values = [getattr(r, field) for r in reports]
    return None if None in values else sum(values) / len(values)


# -- evaluation ---------------------------------------------------------------------


def _share(hits: np.ndarray) -> float:
    """The fraction of true entries; 0.0 for none."""
    return int(hits.sum()) / hits.size if hits.size else 0.0


def answer_metrics(preds: np.ndarray, split: Split) -> Dict[str, float]:
    """Open/closed/all accuracy from predicted answer ids."""
    hits, is_open = np.asarray(preds) == split.answer, split.open == 1
    return {"open_acc": _share(hits[is_open]), "closed_acc": _share(hits[~is_open]),
            "all_acc": _share(hits)}


def type_acc(preds: np.ndarray, split: Split) -> float:
    """Accuracy of predicted type ids."""
    return _share(np.asarray(preds) == split.type)


def nonempty(split: Split, name: str) -> Split:
    """split, or a ValueError naming it when it holds no sample."""
    if not split:
        raise ValueError(f"the {name} split is empty; regenerate the dataset with cmvqa gen-data")
    return split


def run_eval(model: VqaModel, split: Split) -> Dict[str, float]:
    """Deterministic forward-only pass over one split."""
    nonempty(split, "evaluation")
    preds, types = [], []
    for pixels, tokens in zip(split.image, split.tokens):
        logits, gate, _ = model.forward(pixels, tokens)
        preds.append(np.argmax(logits.data))
        types.append(np.argmax(gate.w.data))
    return {**answer_metrics(preds, split), "type_acc": type_acc(types, split)}


# -- VQA training ---------------------------------------------------------------------


def run_vqa_train(config: RunConfig, out_dir, init_path: Optional[str] = None,
                  config_text: str = "",
                  invariant_monitor: Optional[Callable] = None):
    """Minimize l_vqa + alpha*l_type end to end; returns (model, final metrics)."""
    vqa, _, vocab, data_config = load_dataset(config.data_dir)
    config.check_dataset(data_config)
    train = nonempty(vqa["train"], "vqa train")
    nonempty(vqa[config.eval_split], f"vqa {config.eval_split}")

    model = VqaModel(config, vocab.size)
    params = model.params()
    if init_path:
        apply_checkpoint(_encoders(params), load_checkpoint(init_path)[0])

    os.makedirs(out_dir, exist_ok=True)
    writer = MetricsWriter(os.path.join(out_dir, "metrics.csv"))

    def sample_loss(i, training):
        logits, gate, st = model.forward(train.image[i], train.tokens[i])
        if training and invariant_monitor is not None:
            invariant_monitor(gate, st)
        return vqa_loss(logits, train.answer[i], gate.logits, train.type[i], config.alpha)

    for step, reports in _fit(params, len(train), Rng(config.seed), config.steps,
                              config.batch_size, config, sample_loss):
        l_vqa, l_type = _mean(reports, "l_vqa"), _mean(reports, "l_type")
        accuracy = {}
        if step == config.steps:
            final_eval = run_eval(model, vqa[config.eval_split])
            accuracy = {k: final_eval[k] for k in ("open_acc", "closed_acc", "all_acc")}
        writer.row(step, l_vqa=l_vqa, l_type=l_type, total=l_vqa + config.alpha * l_type,
                   **accuracy)

    save_checkpoint(params, config.steps, config_text,
                    os.path.join(out_dir, "checkpoint.cmtb"))
    return model, final_eval


# -- pre-training -----------------------------------------------------------------------


def _encoders(params: Dict[str, Tensor]) -> Dict[str, Tensor]:
    """The encoder parameters: what pre-training hands to VQA training."""
    return {name: t for name, t in params.items() if name.startswith("backbone/")}


def _pretrain_val_metrics(model: PretrainModel, split: Split):
    task_hits, task_total, com_hits = 0, 0, []
    for pixels, tokens, target, compat in zip(split.image, split.tokens, split.target,
                                              split.compat):
        task_logits, com_logits = model.forward(pixels, tokens)
        if com_logits is not None:
            com_hits.append(int(np.argmax(com_logits.data) == compat))
        pred = np.argmax(task_logits.data, axis=-1)
        task_hits += (pred == target).sum()
        task_total += pred.size
    out = {"task_acc": task_hits / task_total}
    if com_hits:
        out["compat_acc"] = sum(com_hits) / len(split)
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
    models, frozen = [], frozen_table(config)
    for type_id in range(3):
        for name in PRETRAIN_SPLITS:
            nonempty(pretrain[type_id][name], f"pretrain {TYPE_NAMES[type_id]} {name}")
        models.append(PretrainModel(config, vocab.size, type_id, frozen))
    os.makedirs(out_dir, exist_ok=True)

    writer = MetricsWriter(os.path.join(out_dir, "metrics.csv"))
    acc_path = os.path.join(out_dir, "pretrain_accuracy.csv")
    with open(acc_path, "w", encoding="utf-8") as fh:
        fh.write("encoder,task_acc,compat_acc\n")

    combined, results, global_step = {}, {}, 0
    for type_id, model in enumerate(models):
        train = pretrain[type_id]["train"]
        params = model.params()

        def sample_loss(i, training):
            task_logits, com_logits = model.forward(train.image[i], train.tokens[i])
            return pretrain_loss(task_logits, train.target[i], com_logits, train.compat[i])

        rng = Rng(config.seed).child(f"pretrain-loop-{type_id}")
        for step, reports in _fit(params, len(train), rng, config.pretrain_steps,
                                  config.pretrain_batch, config, sample_loss):
            l_spe, l_com = _mean(reports, "l_spe"), _mean(reports, "l_com")
            writer.row(global_step + step, l_spe=l_spe, l_com=l_com,
                       total=l_spe if l_com is None else l_spe + l_com)
        global_step += config.pretrain_steps

        metrics = _pretrain_val_metrics(model, pretrain[type_id]["val"])
        results[TYPE_NAMES[type_id]] = metrics
        with open(acc_path, "a", encoding="utf-8") as fh:
            compat = _fmt(metrics.get("compat_acc"))
            fh.write(f"{TYPE_NAMES[type_id]},{_fmt(metrics['task_acc'])},{compat}\n")

        save_checkpoint(params, config.pretrain_steps, config_text,
                        os.path.join(out_dir, f"pretrain_{TYPE_NAMES[type_id]}.cmtb"))
        combined.update(_encoders(params))

    save_checkpoint(combined, config.pretrain_steps, config_text,
                    os.path.join(out_dir, "pretrain_all.cmtb"))
    return results


# -- model-level gradient check ------------------------------------------------------------


def run_gradcheck(config: RunConfig, corrupt_param: Optional[str] = None) -> GradCheckReport:
    """Check every parameter of a full model on one random sample.  The
    probes of a parameter rerun only the forward stages it feeds; the
    forward is deterministic, so each value is bit for bit a full forward's."""
    from .data import build_vocabulary, generate_vqa

    data_config = config.data_config()
    vocab = build_vocabulary(data_config)
    train = generate_vqa(config.seed, 4, data_config, vocab)["train"]
    pixels, tokens = train.image[0], train.tokens[0]

    model = VqaModel(config, vocab.size)
    params = model.params()
    # graph-free constants holding the unperturbed encoder outputs
    v, gate = model.encode_image(pixels)
    constant = {
        "image": (Tensor(v.data), TypeGate(logits=Tensor(gate.logits.data), w=Tensor(gate.w.data))),
        "question": QuestionEmbedding(q=Tensor(model.question.encode(tokens).q.data)),
    }
    reused: Dict[str, object] = {}

    def on_param(name):
        # reuse each encoder stage the parameter does not feed; a name that
        # no stage claims reuses nothing
        stage = param_stage(name)
        reused.clear()
        reused.update({k: c for k, c in constant.items() if stage not in (None, k)})

    def objective():
        logits, gate, _ = model.forward(pixels, tokens, **reused)
        total, _ = vqa_loss(logits, train.answer[0], gate.logits, train.type[0], config.alpha)
        if corrupt_param is not None:
            # constant term the graph cannot see: finite differences feel it,
            # backward does not, so the named parameter fails its check
            total = add(total, Tensor(np.asarray(params[corrupt_param].data.sum())))
        return total

    return grad_check(objective, params, h=1e-5, tol=1e-4, on_param=on_param)
