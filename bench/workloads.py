"""The four benchmark workloads.

Each workload sets itself up from the seed alone, then runs closed-loop
units (one unit starts when the previous one ends) through the public
functions of ``cmvqa``.  A unit records its timings into a ``Measure`` and
checks the program's outputs; every check counts toward ``failed_share``.

| workload       | one unit                                              |
| -------------- | ----------------------------------------------------- |
| vqa-desk       | run_vqa_train from fresh init, then run_eval passes   |
| pretrain-desk  | run_pretrain in multi mode (three encoders in turn)   |
| cmsa-paper     | cmsa_fuse + Tensor.backward on one paper-dims sample  |
| gradcheck-tiny | run_gradcheck on configs/gradcheck.cfg                |
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from cmvqa import data, fusion, train
from cmvqa.bundle import read_bundle
from cmvqa.config import dump_config, load_config
from cmvqa.data import TYPE_NAMES
from cmvqa.model import PretrainModel, VqaModel
from cmvqa.numerics import Tensor, sum_over_axes
from cmvqa.question import QuestionEmbedding
from cmvqa.vision import spatial_map

from spans import Patches

clock = time.perf_counter

# Desk workloads train this many steps per unit from fresh init, so a unit
# is the same work on every commit and final_loss depends on the seed only.
VQA_STEPS = 120
PRETRAIN_STEPS = 40          # per encoder; a unit trains three encoders
EVAL_PASSES = 2              # run_eval over the 75-sample test split per unit

# test_criterion03's paper dimensions: N = 588, D_f = 1544, qkv = 772.
PAPER_CMSA = dict(l_w=12, g=7, c_v=512, d_q=1024, glimpses=2)
CMSA_POOL = 4                # distinct samples the fuse loop cycles through

ROW_SUM_TOL = 1e-9
GRAD_TOL = 1e-4


@dataclass
class Measure:
    """Timings and check outcomes of one phase of a run."""

    setup_s: list = field(default_factory=list)
    unit_s: list = field(default_factory=list)
    unit_samples: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    fwd_ms: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)     # workload-specific series
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if name not in self.failures:
                self.failures.append(name)

    def add(self, key: str, value: float) -> None:
        self.extra.setdefault(key, []).append(value)

    def add_unit(self, wall_s: float, samples: int) -> None:
        self.unit_s.append(wall_s)
        self.unit_samples.append(samples)


class Probe(Patches):
    """Always-on clocks: one read per training step or grad-check objective
    call, two per model forward.  Installed in traced and untraced runs; with
    a tracer attached, the forward wrapper also records the model.forward
    span.

    ``between``, when set, runs at every step mark, off the clock: ``now()``
    is wall time minus the time spent in it, and every unit and step figure
    is read from ``now()``."""

    def __init__(self):
        super().__init__()
        self.step_marks: list[float] = []
        self.fwd_ms: list[float] = []
        self.tracer = None
        self.between = None
        self._off_clock_s = 0.0

    def now(self) -> float:
        return clock() - self._off_clock_s

    def _mark(self) -> None:
        self.step_marks.append(self.now())
        if self.between is not None:
            start = clock()
            self.between()
            self._off_clock_s += clock() - start

    def install(self) -> None:
        from cmvqa import model

        adam_step = train.__dict__["adam_step"]

        def timed_adam_step(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            self._mark()
            return out

        grad_check = train.__dict__["grad_check"]

        def timed_grad_check(f, params, *args, **kwargs):
            def objective():
                self._mark()
                return f()
            return grad_check(objective, params, *args, **kwargs)

        self.patch(train, "adam_step", timed_adam_step)
        self.patch(train, "grad_check", timed_grad_check)
        for cls in (model.VqaModel, model.PretrainModel):
            self.patch(cls, "forward", self._timed_forward(cls.__dict__["forward"]))

    def _timed_forward(self, forward):
        def timed(*args, **kwargs):
            start = clock()
            if self.tracer is None:
                out = forward(*args, **kwargs)
            else:
                out = self.tracer.call("model.forward", forward, *args, **kwargs)
            self.fwd_ms.append((clock() - start) * 1000.0)
            return out
        return timed

    def take_steps(self) -> list[float]:
        """Intervals between consecutive marks since the last call, in ms."""
        marks, self.step_marks = self.step_marks, []
        return [(b - a) * 1000.0 for a, b in zip(marks, marks[1:])]

    def take_fwd(self) -> list[float]:
        out, self.fwd_ms = self.fwd_ms, []
        return out


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(text.splitlines()))


def _metrics_csv_finite(text: str) -> bool:
    """Fixed header, at least one row, and every filled cell finite."""
    rows = _csv_rows(text)
    if len(rows) < 2 or ",".join(rows[0]) != train.METRICS_HEADER:
        return False
    return all(math.isfinite(float(cell)) for row in rows[1:] for cell in row[1:] if cell)


def _logged_totals(text: str) -> list[float]:
    return [float(row[5]) for row in _csv_rows(text)[1:]]


def _bundle_reads_back(path, names, step: int, live=None) -> bool:
    """The bundle holds exactly ``names`` plus step and config, all finite;
    with ``live`` given, every entry equals the live parameter bit for bit."""
    arrays = read_bundle(path)
    if set(arrays) != set(names) | {"__step__", "__config__"}:
        return False
    if int(arrays["__step__"][()]) != step:
        return False
    if not all(np.isfinite(a).all() for a in arrays.values()):
        return False
    return live is None or all(np.array_equal(arrays[n], live[n].data) for n in names)


def _in_unit_interval(values) -> bool:
    return all(v is not None and 0.0 <= v <= 1.0 for v in values)


class Workload:
    """Set-up from the seed, then repeatable closed-loop units."""

    name = ""
    trace_units = 1
    tail_steps = True      # step_ms_tail is the slowest tenth, else the mean

    def __init__(self, root: str, work_dir: str, seed: int, tiny: bool = False):
        self.root, self.work_dir, self.seed, self.tiny = root, work_dir, seed, tiny
        self.reference: dict = {}      # first unit's outputs, for rerun checks

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, m: Measure, probe: Probe, tracer=None) -> None:
        raise NotImplementedError

    def _check_rerun(self, m: Measure, name: str, outputs: str) -> None:
        """Every unit after the first must write the first unit's outputs."""
        if name in self.reference:
            m.check(name, outputs == self.reference[name])
        else:
            self.reference[name] = outputs

    def _checked(self, tracer, fn, *args):
        """Run the benchmark's own checks under a span when tracing."""
        return fn(*args) if tracer is None else tracer.call("bench.check", fn, *args)

    def _desk_config(self):
        config = load_config(os.path.join(self.root, "configs", "desk.cfg"))
        config = replace(config, seed=self.seed,
                         data_dir=os.path.join(self.work_dir, "data"),
                         steps=VQA_STEPS, pretrain_steps=PRETRAIN_STEPS)
        if self.tiny:
            config = replace(config, image_size=8, grid=2, c_v=4, d_q=4, d_emb=4,
                             l_w=3, n_vqa=40, n_pretrain=20, steps=4,
                             pretrain_steps=6, batch_size=2, pretrain_batch=2,
                             log_every=2)
        return config

    def _make_corpus(self, config):
        vqa, pretrain, vocab = data.generate_synthetic(
            config.seed, {"vqa": config.n_vqa, "pretrain": config.n_pretrain},
            config.data_config())
        data.save_dataset(vqa, pretrain, vocab, config.data_config(), config.data_dir)
        return data.load_dataset(config.data_dir)


class VqaDesk(Workload):
    """The user loop at desk.cfg dims: train from fresh init, then evaluate."""

    name = "vqa-desk"

    def setup(self) -> None:
        self.config = self._desk_config()
        vqa, _, vocab, _ = self._make_corpus(self.config)
        self.test = vqa[self.config.eval_split]
        VqaModel(self.config, vocab.size)
        self.out = os.path.join(self.work_dir, "train")

    def unit(self, m: Measure, probe: Probe, tracer=None) -> None:
        config = self.config
        monitor = None if tracer is None else self._invariant_monitor(m, tracer)
        probe.take_steps()
        start = probe.now()
        model, final_eval = train.run_vqa_train(config, self.out,
                                                config_text=dump_config(config),
                                                invariant_monitor=monitor)
        wall = probe.now() - start
        m.add_unit(wall, config.steps * config.batch_size)
        m.step_ms.extend(probe.take_steps())
        evals = []
        for _ in range(EVAL_PASSES):
            start = clock()
            evals.append(train.run_eval(model, self.test))
            m.add("eval_ms_per_sample", (clock() - start) * 1000.0 / len(self.test))
        m.fwd_ms.extend(probe.take_fwd())
        self._checked(tracer, self._check, m, model, final_eval, evals)

    def _check(self, m: Measure, model, final_eval, evals) -> None:
        text = _read(os.path.join(self.out, "metrics.csv"))
        m.check("vqa.metrics_csv_finite", _metrics_csv_finite(text))
        totals = _logged_totals(text)
        m.add("final_loss", totals[-1])
        m.check("vqa.loss_fell", totals[-1] < totals[0])
        accs = [float(c) for c in _csv_rows(text)[-1][6:9]]
        accs += [v for e in [final_eval] + evals for v in e.values()]
        m.check("vqa.accuracy_in_unit_interval", _in_unit_interval(accs))
        m.check("vqa.eval_repeatable", all(e == final_eval for e in evals))
        params = model.params()
        m.check("vqa.checkpoint_reads_back",
                _bundle_reads_back(os.path.join(self.out, "checkpoint.cmtb"),
                                   params, self.config.steps, live=params))
        self._check_rerun(m, "vqa.rerun_identical", text)

    @staticmethod
    def _invariant_monitor(m: Measure, tracer):
        def check(gate, state):
            w = gate.w.data
            ok = bool((w >= 0).all()) and abs(w.sum() - 1.0) <= ROW_SUM_TOL
            for a in state.a:
                ok = ok and bool(np.abs(a.data.sum(axis=-1) - 1.0).max() <= ROW_SUM_TOL)
            m.check("vqa.gate_simplex_and_attention_rows", ok)
        return lambda gate, state: tracer.call("trace.invariant_monitor", check, gate, state)


class PretrainDesk(Workload):
    """Multi-task pre-training of the three encoders at desk.cfg dims."""

    name = "pretrain-desk"

    def setup(self) -> None:
        self.config = replace(self._desk_config(), pretrain_mode="multi")
        _, _, vocab, _ = self._make_corpus(self.config)
        self.param_names = [set(PretrainModel(self.config, vocab.size, type_id).params())
                            for type_id in range(3)]
        self.out = os.path.join(self.work_dir, "pretrain")

    def unit(self, m: Measure, probe: Probe, tracer=None) -> None:
        config = self.config
        probe.take_steps()
        start = probe.now()
        results = train.run_pretrain(config, self.out, config_text=dump_config(config))
        wall = probe.now() - start
        m.add_unit(wall, 3 * config.pretrain_steps * config.pretrain_batch)
        m.step_ms.extend(probe.take_steps())
        m.fwd_ms.extend(probe.take_fwd())
        self._checked(tracer, self._check, m, results)

    def _check(self, m: Measure, results) -> None:
        steps = self.config.pretrain_steps
        accuracy = _read(os.path.join(self.out, "pretrain_accuracy.csv"))
        rows = _csv_rows(accuracy)
        ok = rows[0] == ["encoder", "task_acc", "compat_acc"] and \
            [r[0] for r in rows[1:]] == list(TYPE_NAMES) and len(results) == 3
        ok = ok and _in_unit_interval([float(c) for r in rows[1:] for c in r[1:]])
        m.check("pretrain.accuracy_csv_finite", ok)

        text = _read(os.path.join(self.out, "metrics.csv"))
        m.check("pretrain.metrics_csv_finite", _metrics_csv_finite(text))
        m.add("final_loss", _logged_totals(text)[-1])

        backbones = set()
        for name, params in zip(TYPE_NAMES, self.param_names):
            backbones |= {n for n in params if n.startswith("backbone/")}
            m.check("pretrain.checkpoint_reads_back",
                    _bundle_reads_back(os.path.join(self.out, f"pretrain_{name}.cmtb"),
                                       params, steps))
        m.check("pretrain.checkpoint_reads_back",
                _bundle_reads_back(os.path.join(self.out, "pretrain_all.cmtb"),
                                   backbones, steps))
        self._check_rerun(m, "pretrain.rerun_identical", text + accuracy)


class CmsaPaper(Workload):
    """Two-glimpse CMSA forward and backward at paper dimensions, one sample
    per call; BLAS-bound, so per-node overhead hardly shows."""

    name = "cmsa-paper"
    trace_units = 2

    def setup(self) -> None:
        dims = dict(PAPER_CMSA)
        if self.tiny:
            dims.update(l_w=3, g=2, c_v=8, d_q=8)
        self.config = fusion.CmsaConfig(**dims)
        gen = np.random.default_rng(self.seed)
        self.params = fusion.init_cmsa(gen, self.config)
        self.s = spatial_map(self.config.g)
        g, l_w = self.config.g, self.config.l_w
        self.pool = [
            (gen.standard_normal((g, g, self.config.c_v)) * 0.1,
             gen.standard_normal((l_w, self.config.d_q)) * 0.1)
            for _ in range(CMSA_POOL)
        ]
        self.calls = 0

    def _param_tensors(self):
        out = [self.params.proj_w, self.params.proj_b]
        for gl in self.params.glimpses:
            out += [gl.q_w, gl.q_b, gl.k_w, gl.k_b, gl.v_w, gl.v_b, gl.out_w, gl.out_b]
        return out

    def unit(self, m: Measure, probe: Probe, tracer=None) -> None:
        v_arr, q_arr = self.pool[self.calls % CMSA_POOL]
        self.calls += 1
        for p in self._param_tensors():
            p.zero_grad()
        v = Tensor(v_arr, requires_grad=True)
        q = QuestionEmbedding(q=Tensor(q_arr, requires_grad=True), true_length=self.config.l_w)
        start = clock()
        f_hat, state = fusion.cmsa_fuse(v, self.s, q, self.params, self.config)
        mid = clock()
        sum_over_axes(f_hat, (0, 1)).backward()
        end = clock()
        m.add_unit(end - start, 1)
        m.step_ms.append((end - start) * 1000.0)
        m.fwd_ms.append((mid - start) * 1000.0)
        m.add("fuse_fwd_ms", (mid - start) * 1000.0)
        m.add("fuse_bwd_ms", (end - mid) * 1000.0)
        self._checked(tracer, self._check, m, v, q, f_hat, state)

    def _check(self, m: Measure, v, q, f_hat, state) -> None:
        c = self.config
        n, qkv = c.n_positions, c.qkv_channels
        shapes = [(state.f.shape, (c.l_w, c.g, c.g, c.d_f)), (f_hat.shape, (c.l_w, c.d_q))]
        for tensors, want in ((state.q, (n, qkv)), (state.k, (n, qkv)),
                              (state.v, (n, qkv)), (state.a, (n, n))):
            shapes += [(t.shape, want) for t in tensors]
        ok = len(state.a) == c.glimpses and all(got == want for got, want in shapes)
        m.check("cmsa.criterion3_shapes", ok)
        m.check("cmsa.attention_rows_sum_to_one",
                all(np.abs(a.data.sum(axis=-1) - 1.0).max() <= ROW_SUM_TOL for a in state.a))
        grads = [t.grad for t in self._param_tensors()] + [v.grad, q.q.grad]
        m.check("cmsa.gradients_finite",
                all(g is not None and np.isfinite(g).all() for g in grads))


class GradcheckTiny(Workload):
    """Finite differences over every parameter group at gradcheck.cfg dims:
    thousands of tiny batch-one forwards, so the engine's fixed cost per op
    is nearly all of the time."""

    name = "gradcheck-tiny"
    # Every step is the same batch-one forward, so the slowest tenth holds
    # nothing but the host's jitter: it spread 0.29 over ten seeds while the
    # mean spread 0.18.
    tail_steps = False

    def setup(self) -> None:
        # run_gradcheck repeats this preamble inside its one call, which the
        # benchmark cannot split; timing it here shows changes to model
        # construction in setup_s.
        config = load_config(os.path.join(self.root, "configs", "gradcheck.cfg"))
        config = replace(config, seed=self.seed)
        if self.tiny:
            config = replace(config, image_size=4, grid=2, c_v=2, d_q=2, d_emb=2, l_w=2)
        self.config = config
        vocab = data.build_vocabulary(config.data_config())
        data.generate_vqa(config.seed, 4, config.data_config(), vocab)
        self.groups = len(VqaModel(config, vocab.size).params())

    def unit(self, m: Measure, probe: Probe, tracer=None) -> None:
        probe.take_steps()
        start = probe.now()
        report = train.run_gradcheck(self.config)
        wall = probe.now() - start
        steps = probe.take_steps()
        m.add_unit(wall, len(steps) + 1)
        m.step_ms.extend(steps)
        m.fwd_ms.extend(probe.take_fwd())
        m.add("gradcheck_s", wall)
        m.add("objective_calls", len(steps) + 1)
        m.check("gradcheck.passed_at_tol_1e-4",
                report.passed and report.tol == GRAD_TOL and len(report.checks) == self.groups)


WORKLOADS = {w.name: w for w in (VqaDesk, PretrainDesk, CmsaPaper, GradcheckTiny)}
