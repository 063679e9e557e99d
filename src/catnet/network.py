"""The composed prediction network and its batched forward pass.

One instance is a patient's input visits plus a target vector.  Each visit is
embedded into tokens (present codes plus the interval token), mixed by
cross-event attention into a fixed-layout visit vector, encoded by the
recurrent backbone, aggregated through visit-level attention and the global
time gate, and mapped to per-target probabilities.

:meth:`CatnetModel.forward_batch` runs each of these layers once per batch of
B patients with V visits in all.  The V visits are packed patient after
patient: one ``(V,)`` interval-kernel call, one ``(V, K, E)`` token gather,
one masked ``(V, Q, K)`` cross-event softmax of each visit's Q gathered
queries over its K tokens, one recurrent op that maps every gate's input over
the V visits and runs ``T = max visits`` steps, each on the patients that
still have a visit at that step, one masked ``(B, T, T)`` visit attention
summed over visits into ``(B, H)``, one gate call over the V visits' packed
times, also summed into ``(B, H)``, and one head call on the two sums added.
Padding (tokens past a visit's codes, steps past a patient's visits) is
skipped, masked out or zeroed at every layer, and every sum that padding
extends adds in a fixed order, so a patient's probabilities are bitwise the
same alone as in any batch.

Ablation variants substitute documented replacements for single components:
without cross-event attention the visit vector holds raw embeddings in the
same slot layout; without visit attention the hidden states are summed over
visits in place of its contexts; without the global gate that route
contributes nothing; without the interval signal a learned constant token
stands in for every gap; dropped event types are removed from every visit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from catnet import autodiff as ad
from catnet.aggregate import HeadParams, fuse_and_predict, global_time_gate, visit_self_attention
from catnet.attention import CodeEmbeddings, attend, build_token_set, output_width, raw_slot_layout
from catnet.backbone import GATES, RecurrentParams, run_sequence
from catnet.cohort import (DEMOGRAPHICS_DIM, EVENT_TYPES, TaskSpec, VocabSpec, derive_intervals,
                           extract_task_instances)
from catnet.time_kernel import TimeKernelParams, time_embed

COMPONENT_DROPS = ("cross", "visit", "global")
EVENT_DROPS = EVENT_TYPES + ("time", "aux")
TIME_SCALE_DAYS = 30.0  # gaps enter both time kernels in units of this many days


def resolve_drops(names, task: str):
    """Validate ablation drop names against the task's primary type."""
    if not isinstance(names, (tuple, list)):
        raise ValueError(f"ablation drops must be a tuple or list of names, got {names!r}")
    seen = []
    for name in names:
        if name not in COMPONENT_DROPS + EVENT_DROPS:
            raise ValueError(f"unknown ablation drop {name!r}; expected one of "
                             f"{COMPONENT_DROPS + EVENT_DROPS}")
        if name == task:
            raise ValueError(f"cannot drop the task's own event type {name!r}")
        if name not in seen:
            seen.append(name)
    return tuple(seen)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture-defining settings."""

    task: str = "med"
    mode: str = "task-aware"
    backbone: str = "gru"
    embed_dim: int = 16
    kernel_dim: int = 16
    hidden_dim: int = 64
    demo_dim: int = 8
    drops: tuple = ()

    def __post_init__(self):
        TaskSpec(self.task, self.mode)  # validates task/mode pairing
        if self.backbone not in GATES:
            raise ValueError(f"unsupported backbone {self.backbone!r}; "
                             f"expected one of {tuple(GATES)}")
        for name in ("embed_dim", "kernel_dim", "hidden_dim", "demo_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        object.__setattr__(self, "drops", resolve_drops(self.drops, self.task))
        if self.dropped_types() == set(EVENT_TYPES):
            raise ValueError(f"drops {self.drops} leave task {self.task!r} no visible event type")

    @property
    def task_spec(self) -> TaskSpec:
        return TaskSpec(self.task, self.mode)

    def dropped_types(self):
        dropped = set(t for t in self.drops if t in EVENT_TYPES)
        if "aux" in self.drops:
            dropped.update(t for t in EVENT_TYPES if t != self.task)
        return dropped


@dataclass
class TaskInstance:
    """Model-ready view of one patient for one task."""

    patient_id: str
    visits: list
    delta_prev: np.ndarray
    delta_global: np.ndarray
    demo: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        n = len(self.visits)
        if n < 1:
            raise ValueError(f"patient {self.patient_id}: an instance needs at least one visit")
        self._check_shapes(delta_prev=(n,), delta_global=(n,), demo=(DEMOGRAPHICS_DIM,))

    def _check_shapes(self, **shapes):
        """Raise an error naming the patient unless each named array has its shape."""
        for name, shape in shapes.items():
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"patient {self.patient_id}: {name} of shape "
                                 f"{np.shape(getattr(self, name))}, expected {shape}")


def build_instances(records, task: TaskSpec, vocab: VocabSpec):
    """Turn records into task instances with backward-anchored interval views."""
    instances = []
    for rec in records:
        visits, target = extract_task_instances(rec, task, vocab)
        gaps = derive_intervals(rec)
        n = len(visits)
        instances.append(TaskInstance(
            patient_id=rec.patient_id,
            visits=list(visits),
            delta_prev=gaps.delta_prev_days[:n],
            delta_global=gaps.delta_global_days[:n],
            demo=rec.demographics_vector(),
            target=np.asarray(target, dtype=np.float64),
        ))
    return instances


class CatnetModel:
    """All learnable parameters plus the batched forward pass."""

    def __init__(self, config: ModelConfig, vocab: VocabSpec, rng: np.random.Generator):
        self.config = config
        self.vocab = vocab
        self.n_targets = config.task_spec.target_dim(vocab)
        self.input_width = output_width(config.mode, config.task, vocab, config.embed_dim)
        self.embeddings = CodeEmbeddings.init(vocab, config.embed_dim, rng)
        self.interval_kernel = TimeKernelParams.init(config.kernel_dim, config.embed_dim, rng)
        self.decay_kernel = TimeKernelParams.init(config.hidden_dim, config.hidden_dim, rng)
        self.rnn = RecurrentParams.init(config.backbone, self.input_width,
                                        config.hidden_dim, rng)
        self.head = HeadParams.init(DEMOGRAPHICS_DIM, config.demo_dim, config.hidden_dim,
                                    self.n_targets, rng)
        self.constant_interval = (
            ad.parameter(rng.uniform(-0.1, 0.1, config.embed_dim))
            if "time" in config.drops else None)

    def parameters(self) -> dict:
        named = {}
        named.update(self.embeddings.named())
        named.update(self.interval_kernel.named("dt"))
        named.update(self.decay_kernel.named("gt"))
        named.update(self.rnn.named())
        named.update(self.head.named())
        if self.constant_interval is not None:
            named["const_interval"] = self.constant_interval
        return dict(sorted(named.items()))

    def forward_batch(self, instances, train: bool = False, dropout: float = 0.0,
                      rng: np.random.Generator = None):
        """Probabilities ``(B, n_targets)`` for a batch of instances, and their attention.

        Returns ``(probs, attention)``: ``attention`` is the
        :class:`~catnet.attention.BatchAttention` of every visit, patient after
        patient, or None when cross-event attention is ablated.  ``dropout`` lies
        in [0, 1); in training with ``dropout > 0``, one ``(V, input_width)``
        inverted dropout mask is drawn from ``rng`` over all visit vectors.
        """
        cfg = self.config
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {dropout!r}")
        drop_visits = train and dropout > 0.0
        if drop_visits and rng is None:
            raise ValueError("dropout in training needs an explicit rng (a numpy Generator); "
                             "got rng=None")
        if not instances:
            raise ValueError("forward_batch: empty batch; pass at least one instance")
        lengths = np.array([len(inst.visits) for inst in instances])
        visits = [visit for inst in instances for visit in inst.visits]
        if self.constant_interval is None:
            delta_prev = np.concatenate([inst.delta_prev for inst in instances])
            intervals = time_embed(delta_prev / TIME_SCALE_DAYS, self.interval_kernel)
        else:
            intervals = ad.add(ad.tensor(np.zeros((len(visits), cfg.embed_dim))),
                               self.constant_interval)
        visible = tuple(t for t in EVENT_TYPES if t not in cfg.dropped_types())
        tokens = build_token_set(visits, self.embeddings, intervals, visible)
        if "cross" in cfg.drops:
            x, attention = raw_slot_layout(tokens, cfg.mode, cfg.task, self.vocab), None
        else:
            x, attention = attend(tokens, cfg.mode, primary=cfg.task, vocab=self.vocab)
        if drop_visits:
            keep = 1.0 - dropout
            x = ad.mul(x, ad.tensor((rng.random(x.shape) < keep) / keep))

        states = run_sequence(x, lengths, self.rnn)
        if "visit" in cfg.drops:
            fused = ad.sum_over(states, axis=1)
        else:
            fused, _ = visit_self_attention(states, lengths)
        if "global" not in cfg.drops:
            gaps = np.concatenate([inst.delta_global for inst in instances]) / TIME_SCALE_DAYS
            fused = ad.add(fused, global_time_gate(states, gaps, lengths, self.decay_kernel)[0])
        demo = np.stack([inst.demo for inst in instances])
        return fuse_and_predict(fused, demo, self.head), attention

    def forward_instance(self, instance: TaskInstance):
        """Evaluation-mode probabilities ``(n_targets,)`` for one instance: a batch of one."""
        return ad.take_row(self.forward_batch([instance])[0], 0)

    def batch_loss(self, instances, train: bool = False, dropout: float = 0.0,
                   rng: np.random.Generator = None) -> ad.Tensor:
        """Mean per-instance binary cross-entropy over a batch."""
        for inst in instances:
            inst._check_shapes(target=(self.n_targets,))
        probs, _ = self.forward_batch(instances, train=train, dropout=dropout, rng=rng)
        return ad.binary_cross_entropy(probs, np.stack([inst.target for inst in instances]))

    def predict(self, instances) -> np.ndarray:
        """Evaluation-mode probabilities, one row per instance."""
        return self.forward_batch(instances)[0].data

    def state_arrays(self) -> dict:
        return {name: t.data.copy() for name, t in self.parameters().items()}

    def load_state_arrays(self, state: dict):
        params = self.parameters()
        missing = set(params) ^ set(state)
        if missing:
            raise ValueError(f"parameter name mismatch: {sorted(missing)}")
        arrays = {name: np.asarray(state[name], dtype=np.float64) for name in params}
        for name, t in params.items():   # check every array before writing any
            if arrays[name].shape != t.data.shape:
                raise ValueError(f"{name}: shape {arrays[name].shape} != expected {t.data.shape}")
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"{name}: non-finite values")
        for name, t in params.items():
            t.data[...] = arrays[name]
