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
still have a visit at that step, one visit-attention op summed over visits
into ``(B, H)`` and one gate call over the V visits' packed times, also summed
into ``(B, H)`` (both routes run on each group of patients with equal visit
counts, over real visits only), and one head call on the two sums added.
Padding (tokens past a visit's codes, steps past a patient's visits) is
skipped, masked out or zeroed at every layer, and every sum that padding
extends adds in a fixed order, so a patient's probabilities are bitwise the
same alone as in any batch.

Ablation variants substitute documented replacements for single components:
without cross-event attention the visit vector holds raw embeddings in the
same slot layout; without visit attention the hidden states are summed over
visits in place of its contexts; without the global gate that route
contributes nothing; without the interval signal every gap is embedded as 0,
so one learned interval token serves every visit; dropped event types are
removed from every visit.  Every variant has the same parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from catnet import autodiff as ad
from catnet.aggregate import HeadParams, fuse_and_predict, global_time_gate, visit_self_attention
from catnet.attention import attend, build_token_set, raw_slot_layout, slot_bases
from catnet.backbone import GATES, RecurrentParams, run_sequence
from catnet.cohort import (DEMOGRAPHICS_DIM, EVENT_TYPES, VocabSpec, _is_integer, _is_number,
                           check_code_range, check_visits)
from catnet.time_kernel import TimeKernelParams, time_embed

TASKS = EVENT_TYPES + ("mortality",)
MODES = ("task-aware", "task-unaware")
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
    """Architecture-defining settings.  ``task`` is an event type or ``"mortality"``;
    task-aware attention queries with the task type's tokens, task-unaware with all."""

    task: str = "med"
    mode: str = "task-aware"
    backbone: str = "gru"
    embed_dim: int = 16
    hidden_dim: int = 64
    demo_dim: int = 8
    drops: tuple = ()

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task target {self.task!r}; expected one of {TASKS}")
        if self.mode not in MODES:
            raise ValueError(f"unknown attention mode {self.mode!r}; expected one of {MODES}")
        if self.task == "mortality" and self.mode == "task-aware":
            raise ValueError("mortality prediction has no primary event type; "
                             "mode must be task-unaware")
        if self.backbone not in GATES:
            raise ValueError(f"unsupported backbone {self.backbone!r}; "
                             f"expected one of {tuple(GATES)}")
        for name in ("embed_dim", "hidden_dim", "demo_dim"):
            value = getattr(self, name)
            if not _is_integer(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        object.__setattr__(self, "drops", resolve_drops(self.drops, self.task))
        if self.dropped_types() == set(EVENT_TYPES):
            raise ValueError(f"drops {self.drops} leave task {self.task!r} no visible event type")

    @property
    def task_spec(self) -> str:
        """``task``, for the benchmark harness (``bench/workloads.py``), which passes it to
        :func:`build_instances`."""
        return self.task

    def dropped_types(self):
        dropped = set(t for t in self.drops if t in EVENT_TYPES)
        if "aux" in self.drops:
            dropped.update(t for t in EVENT_TYPES if t != self.task)
        return dropped


@dataclass(frozen=True)
class TaskInstance:
    """Model-ready view of one patient for one task; its gaps are derived from its visits.

    The visits must keep :func:`~catnet.cohort.check_visits`'s contract, so the
    gaps are finite, ``delta_prev`` is >= 0 and ``delta_global`` starts at 0 and
    rises; the layers rely on these gaps and do not check them again.  Code ranges
    are not checked here: the model checks them against its vocabulary.  Fields
    cannot be reassigned, the visits are kept as a tuple and the gaps are read-only;
    :func:`dataclasses.replace` checks and derives anew.
    """

    patient_id: str
    visits: tuple
    demo: np.ndarray
    target: np.ndarray
    delta_prev: np.ndarray = field(init=False)    # days since the previous visit, 0 for the first
    delta_global: np.ndarray = field(init=False)  # days since the first visit

    def __post_init__(self):
        pid = self.patient_id
        object.__setattr__(self, "visits", tuple(self.visits))
        if not self.visits:
            raise ValueError(f"patient {pid}: an instance needs at least one visit")
        check_visits(self.visits, pid)
        t = np.array([v.time_days for v in self.visits], dtype=np.float64)
        object.__setattr__(self, "delta_prev", np.concatenate(([0.0], t[1:] - t[:-1])))
        object.__setattr__(self, "delta_global", t - t[0])
        self.delta_prev.flags.writeable = self.delta_global.flags.writeable = False
        self._check_shapes(demo=(DEMOGRAPHICS_DIM,))
        if np.asarray(self.demo).dtype.kind not in "biuf" or not np.isfinite(self.demo).all():
            raise ValueError(f"patient {pid}: demo must be finite numbers, got {self.demo!r}")
        target = np.asarray(self.target)
        if np.count_nonzero(target) != np.count_nonzero(target == 1.0):
            raise ValueError(f"patient {pid}: target entries must be 0 or 1")

    def _check_shapes(self, **shapes):
        """Raise an error naming the patient unless each named array has its shape."""
        for name, shape in shapes.items():
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"patient {self.patient_id}: {name} of shape "
                                 f"{np.shape(getattr(self, name))}, expected {shape}")


def build_instances(records, task: str, vocab: VocabSpec):
    """One instance per record for ``task``, an event type or ``"mortality"``.

    A code task's inputs are all visits but the last, and its target is the last visit's
    multi-hot of the task's event type: that visit is checked as the inputs are, must come
    after the last of them, and its codes of that type are checked against the vocabulary;
    then they (``1.0`` too) mark the target.
    Mortality's inputs are all visits and its target the record's flag: 1 or true makes
    ``[1.0]``.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task target {task!r}; expected one of {TASKS}")
    instances = []
    for rec in records:
        if task != "mortality":
            visits, last = rec.visits[:-1], rec.visits[-1:]   # no visits: TaskInstance rejects
            check_visits(rec.visits[-2:], rec.patient_id)     # the target after the inputs
            codes = [c for v in last for c in v.codes_for(task)]
            size = vocab.size(task)
            check_code_range(codes, task, size, rec.patient_id)
            target = np.zeros(size)
            target[np.array(codes, np.intp)] = 1.0
        else:
            visits, target = rec.visits, np.array([1.0 if rec.mortality else 0.0])
        instances.append(TaskInstance(rec.patient_id, visits, rec.demographics_vector(), target))
    return instances


class CatnetModel:
    """All learnable parameters plus the batched forward pass."""

    def __init__(self, config: ModelConfig, vocab: VocabSpec, rng: np.random.Generator):
        self.config = config
        self.vocab = vocab
        self.n_targets = 1 if config.task == "mortality" else vocab.size(config.task)
        if self.n_targets == 0:
            raise ValueError(f"task {config.task!r} has no codes in the vocabulary")
        self.slot_bases = slot_bases(config.mode, config.task, vocab)
        self.input_width = int(self.slot_bases[-1] + 1) * config.embed_dim
        self.emb = ad.parameter(rng.uniform(-0.1, 0.1, (vocab.total(), config.embed_dim)))
        self.interval_kernel = TimeKernelParams.init(config.embed_dim, rng)
        self.decay_kernel = TimeKernelParams.init(config.hidden_dim, rng)
        self.rnn = RecurrentParams.init(config.backbone, self.input_width,
                                        config.hidden_dim, rng)
        self.head = HeadParams.init(DEMOGRAPHICS_DIM, config.demo_dim, config.hidden_dim,
                                    self.n_targets, rng)

    def parameters(self) -> dict:
        named = {"emb": self.emb}
        named.update(self.interval_kernel.named("dt"))
        named.update(self.decay_kernel.named("gt"))
        named.update(self.rnn.named())
        named.update(self.head.named())
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
        if not (_is_number(dropout) and 0.0 <= dropout < 1.0):
            raise ValueError(f"dropout must be in [0, 1), got {dropout!r}")
        drop_visits = train and dropout > 0.0
        if drop_visits and rng is None:
            raise ValueError("dropout in training needs an explicit rng (a numpy Generator); "
                             "got rng=None")
        if not instances:
            raise ValueError("forward_batch: empty batch; pass at least one instance")
        lengths = np.array([len(inst.visits) for inst in instances])
        visits = [visit for inst in instances for visit in inst.visits]
        delta_prev = (np.zeros(len(visits)) if "time" in cfg.drops
                      else np.concatenate([inst.delta_prev for inst in instances]))
        intervals = time_embed(delta_prev / TIME_SCALE_DAYS, self.interval_kernel)
        visible = tuple(t for t in EVENT_TYPES if t not in cfg.dropped_types())
        owners = np.repeat([inst.patient_id for inst in instances], lengths)
        tokens = build_token_set(visits, self.emb, intervals, self.vocab, visible, owners)
        if "cross" in cfg.drops:
            x, attention = raw_slot_layout(tokens, self.slot_bases), None
        else:
            x, attention = attend(tokens, self.slot_bases)
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
        arrays = {}
        for name, t in params.items():   # check every array before writing any
            try:
                arrays[name] = np.asarray(state[name], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: not an array of numbers: {exc}") from exc
            if arrays[name].shape != t.data.shape:
                raise ValueError(f"{name}: shape {arrays[name].shape} != expected {t.data.shape}")
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"{name}: non-finite values")
        for name, t in params.items():
            t.data[...] = arrays[name]
