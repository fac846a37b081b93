"""Model assembly: parameter registries, forward passes, checkpoints.

Both model variants expose a flat name -> Tensor parameter dict with stable
names, which is what the optimizer, the gradient checker, checkpoints, and
encoder weight transfer all key on.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .bundle import read_bundle, write_bundle
from .config import RunConfig
from .data import (
    IMAGE_CHANNELS,
    K_ANSWERS,
    TYPE_NAMES,
    pretrain_task_classes,
    pretrain_task_kind,
)
from .fusion import CmsaParams, CmsaState, cmsa_fuse, init_cmsa
from .heads import (
    MlpParams,
    compatibility_head,
    image_task_head,
    init_answer_head,
    init_classification_head,
    init_compatibility_head,
    init_segmentation_head,
    predict_answer,
)
from .numerics import Rng, ShapeError, Tensor, reshape
from .question import (
    QuestionEmbedding,
    embed,
    encode_question,
    init_question_encoder,
    load_frozen_half,
)
from .vision import (
    BackboneParams,
    TypeGate,
    backbone_forward,
    blend,
    classify_type,
    init_backbone,
    init_type_classifier,
    spatial_map,
)


def _register_mlp(params: Dict[str, Tensor], prefix: str, mlp: MlpParams) -> None:
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        params[f"{prefix}/w{i}"] = w
        params[f"{prefix}/b{i}"] = b


def _register_backbone(params: Dict[str, Tensor], prefix: str, bb: BackboneParams) -> None:
    for i, layer in enumerate(bb.layers):
        params[f"{prefix}/layer{i}/w"] = layer.weight
        params[f"{prefix}/layer{i}/b"] = layer.bias


def _register_cmsa(params: Dict[str, Tensor], prefix: str, cmsa: CmsaParams) -> None:
    for i, gl in enumerate(cmsa.glimpses):
        for name, tensor in vars(gl).items():   # q_w, q_b, k_w, k_b, v_w, v_b, out_w, out_b
            params[f"{prefix}/glimpse{i}/{name}"] = tensor
    params[f"{prefix}/proj_w"] = cmsa.proj_w
    params[f"{prefix}/proj_b"] = cmsa.proj_b


def frozen_table(config: RunConfig) -> Optional[np.ndarray]:
    """The frozen first embedding half the config names, or None."""
    if not config.frozen_embedding_path:
        return None
    return load_frozen_half(config.frozen_embedding_path)


class _QuestionSide:
    """Shared embed+LSTM wiring used by both model variants."""

    def __init__(self, config: RunConfig, rng: Rng, vocab_size: int,
                 frozen: Optional[np.ndarray] = None):
        frozen = frozen_table(config) if frozen is None else frozen
        self.embedding, self.lstm = init_question_encoder(
            rng, vocab_size, config.d_emb, config.d_q, frozen_first=frozen
        )

    def encode(self, tokens) -> QuestionEmbedding:
        return encode_question(embed(tokens, self.embedding), self.lstm)

    def register(self, params: Dict[str, Tensor]) -> None:
        if self.embedding.first.requires_grad:
            params["embed/first"] = self.embedding.first
        params["embed/second"] = self.embedding.second
        params["lstm/w"] = self.lstm.w
        params["lstm/b"] = self.lstm.b


# The stage of VqaModel.forward each parameter feeds, by name prefix: a
# parameter of one encoder stage cannot reach the other encoder's output.
STAGE_PREFIXES = {
    "image": ("backbone/", "gate/"),
    "question": ("embed/", "lstm/"),
    "fuse": ("cmsa/", "answer/"),
}


def param_stage(name: str) -> Optional[str]:
    """The stage whose prefix claims name, or None if none does."""
    return next((s for s, prefixes in STAGE_PREFIXES.items() if name.startswith(prefixes)), None)


class VqaModel:
    """Full answering model: 3 gated encoders, 2-glimpse fusion, answer head."""

    def __init__(self, config: RunConfig, vocab_size: int):
        rng = Rng(config.seed).child("model")
        self.config = config
        self.cmsa_config = config.cmsa_config()
        self.question = _QuestionSide(config, rng.child("question"), vocab_size)
        self.backbones = [
            init_backbone(rng.child(f"backbone-{name}").gen, config.image_size,
                          IMAGE_CHANNELS, config.grid, config.c_v)
            for name in TYPE_NAMES
        ]
        self.gate = init_type_classifier(rng.child("gate").gen, IMAGE_CHANNELS)
        self.cmsa = init_cmsa(rng.child("cmsa").gen, self.cmsa_config)
        self.answer = init_answer_head(rng.child("answer").gen, config.d_q, K_ANSWERS)
        self.s = spatial_map(config.grid)

    def params(self) -> Dict[str, Tensor]:
        out: Dict[str, Tensor] = {}
        self.question.register(out)
        for name, backbone in zip(TYPE_NAMES, self.backbones):
            _register_backbone(out, f"backbone/{name}", backbone)
        out["gate/stem/w"] = self.gate.stem.weight
        out["gate/stem/b"] = self.gate.stem.bias
        out["gate/proj_w"] = self.gate.proj_w
        out["gate/proj_b"] = self.gate.proj_b
        _register_cmsa(out, "cmsa", self.cmsa)
        _register_mlp(out, "answer", self.answer)
        return out

    def encode_image(self, pixels: np.ndarray) -> Tuple[Tensor, TypeGate]:
        """The image stage: (gated feature map v, type gate)."""
        image = Tensor(pixels)
        gate = classify_type(image, self.gate)
        return blend(backbone_forward(image, self.backbones), gate), gate

    def forward(self, pixels, tokens, image: Optional[Tuple[Tensor, TypeGate]] = None,
                question: Optional[QuestionEmbedding] = None
                ) -> Tuple[Tensor, TypeGate, CmsaState]:
        """Returns (answer logits, type gate, fusion state).  image and question
        are earlier outputs of encode_image and question.encode for these
        pixels and tokens; each one not given is computed here."""
        v, gate = image if image is not None else self.encode_image(pixels)
        q = question if question is not None else self.question.encode(tokens)
        f_hat, state = cmsa_fuse(v, self.s, q, self.cmsa, self.cmsa_config)
        return predict_answer(f_hat, q.q, self.answer), gate, state


class PretrainModel:
    """One encoder + glimpses=1 fusion + task head + compatibility head."""

    def __init__(self, config: RunConfig, vocab_size: int, type_id: int,
                 frozen: Optional[np.ndarray] = None):
        rng = Rng(config.seed).child(f"pretrain-{TYPE_NAMES[type_id]}")
        self.config = config
        self.type_id = type_id
        self.task = pretrain_task_kind(type_id)
        self.cmsa_config = config.cmsa_config(glimpses=1)
        self.question = _QuestionSide(config, rng.child("question"), vocab_size, frozen)
        self.backbone = init_backbone(rng.child("backbone").gen, config.image_size,
                                      IMAGE_CHANNELS, config.grid, config.c_v)
        self.cmsa = init_cmsa(rng.child("cmsa").gen, self.cmsa_config)
        self.compat = init_compatibility_head(rng.child("compat").gen, config.d_q)
        init_head = (init_segmentation_head if self.task == "segmentation"
                     else init_classification_head)
        self.task_head = init_head(rng.child("task").gen, config.c_v,
                                   pretrain_task_classes(type_id))
        self.s = spatial_map(config.grid)

    def params(self) -> Dict[str, Tensor]:
        out: Dict[str, Tensor] = {}
        self.question.register(out)
        _register_backbone(out, f"backbone/{TYPE_NAMES[self.type_id]}", self.backbone)
        _register_cmsa(out, "cmsa", self.cmsa)
        _register_mlp(out, "compat", self.compat)
        _register_mlp(out, "task", self.task_head)
        return out

    def forward(self, pixels: np.ndarray, tokens) -> Tuple[Tensor, Optional[Tensor]]:
        """Returns (task logits, compatibility logits).  In single pretrain
        mode the question pathway does not run and the second item is None."""
        stack = backbone_forward(Tensor(pixels), [self.backbone])
        features = reshape(stack, stack.shape[1:])
        task_logits = image_task_head(features, self.task, self.task_head,
                                      self.config.image_size // self.config.grid)
        if self.config.pretrain_mode == "single":
            return task_logits, None
        q = self.question.encode(tokens)
        f_hat, _ = cmsa_fuse(features, self.s, q, self.cmsa, self.cmsa_config)
        return task_logits, compatibility_head(f_hat, q.q, self.compat)


# -- checkpoints -------------------------------------------------------------------


def save_checkpoint(params: Dict[str, Tensor], step: int, config_text: str, path) -> None:
    """Single bundle: parameters + step counter + config echo (utf-8 bytes)."""
    arrays = {name: t.data for name, t in params.items()}
    arrays["__step__"] = np.array(float(step))
    arrays["__config__"] = np.frombuffer(config_text.encode("utf-8"), dtype=np.uint8)
    write_bundle(arrays, path)


def load_checkpoint(path):
    """Returns (name -> array, step, config text).  The config echo is
    uint8, or float64 per byte in a version 1 bundle."""
    arrays = read_bundle(path)
    step = arrays.pop("__step__", np.array(0.0))
    if step.shape != ():
        raise ValueError(f"{path} entry '__step__' has shape {step.shape}, not a scalar")
    text = ""
    if "__config__" in arrays:
        text = arrays.pop("__config__").astype(np.uint8).tobytes().decode("utf-8")
    return arrays, int(step), text


def apply_checkpoint(params: Dict[str, Tensor], arrays: Dict[str, np.ndarray]) -> int:
    """Copy each parameter's checkpoint entry into it; returns the copy count.

    The checkpoint must cover params: every parameter needs an entry of its
    shape, and all are checked before any is copied.  Missing parameters are
    named by group; entries that no parameter has are not read.
    """
    missing = set()
    for name, p in params.items():
        if name not in arrays:
            missing.add(name.rsplit("/", 1)[0])
        elif arrays[name].shape != p.data.shape:
            raise ShapeError(f"checkpoint entry {name!r} shape {arrays[name].shape} does not "
                             f"match parameter shape {p.data.shape}")
    if missing:
        raise ShapeError("checkpoint lacks parameter groups: " + ", ".join(sorted(missing)))
    for name, p in params.items():
        p.data[...] = arrays[name]
    return len(params)
