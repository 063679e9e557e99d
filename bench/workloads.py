"""Workloads of the catnet benchmark: set-up, timed loops, checks and metrics.

catnet is driven only through its public entry points, each looked up through
its module at call time so that the tracer's patches apply.  ``src/`` has no
trainer yet, so the minibatch Adam loop lives here.

An untraced run sets up ``SETUP_REPEATS`` times, then measures a window of
``seconds``: one full epoch (or, for a predict workload, one full pass) and one
evaluation pass always run, so quality and loss come from the same work on
every machine; further steps, alternating with evaluation chunks, fill the
window.  A traced run sets up once and does only that fixed work, so its
per-layer totals can be compared between commits.

Times of an untraced run are scaled to a reference host speed (see
:class:`HostSpeed`); the raw figures are printed beside them.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import gc
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from catnet import autodiff as ad
from catnet import cohort, generate, metrics, network

import spans

SETUP_REPEATS = 3
MODEL_SEED = 0            # weights start from one seed; the workload seed drives the data
TAIL_PERCENTILE = 80      # every workload guarantees >= 50 steps, so >= 10 lie beyond it
LEARNING_RATE = 1e-2
CHECK_SAMPLE = 8
OVERHEAD_REPEATS = 7
REFERENCE_LOOPS = 300     # probe of about 2 ms: small numpy ops and allocations, like the tape
REFERENCE_S = 0.0016      # the probe's time on an uncontended host of the reference kind
HOST_WINDOW = 5           # probes whose median gives the current host speed
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class Workload:
    """Cohort shape, model configuration and loop kind of one workload.

    ``kind`` is "train" (minibatch Adam over the training split, scored on the
    held-out val and test splits) or "predict" (forward-only ``predict`` over
    the whole cohort in fixed-size chunks; nothing is trained, so every
    patient is held out and the first pass is what gets scored).
    """

    name: str
    kind: str
    task: str
    mode: str
    backbone: str
    n_patients: int = 2000
    max_visits: int = None
    continue_prob: float = None
    prevalence_scale: float = 1.0
    batch: int = 32
    auc_floor: float = None

    def gen_config(self) -> generate.GenConfig:
        config = generate.GenConfig.default()
        changes = {"n_patients": self.n_patients}
        if self.max_visits is not None:
            changes["max_visits"] = self.max_visits
        if self.continue_prob is not None:
            changes["continue_prob"] = self.continue_prob
        if self.prevalence_scale != 1.0:
            changes["base_prevalence"] = {
                t: list(config.prevalence(t) * self.prevalence_scale) for t in cohort.EVENT_TYPES}
        return dataclasses.replace(config, **changes)

    def model_config(self) -> network.ModelConfig:
        return network.ModelConfig(task=self.task, mode=self.mode, backbone=self.backbone)

    @property
    def idle_layers(self):
        """Traced layers this workload never calls by design."""
        return ("autodiff.backward", "bench.optimizer") if self.kind == "predict" else ()


WORKLOADS = {w.name: w for w in (
    Workload("train-med-aware", "train", "med", "task-aware", "gru", auc_floor=0.65),
    Workload("train-med-unaware", "train", "med", "task-unaware", "lstm"),
    Workload("predict-long-sparse", "predict", "med", "task-aware", "gru", n_patients=1600,
             max_visits=48, continue_prob=0.95, prevalence_scale=0.2, batch=16),
)}

END_TO_END = (
    ("setup_s", "s"),
    ("train_inst_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_tail", "ms"),
    ("eval_inst_per_s", "1/s"),
    ("val_auc", "ratio"),
    ("val_aupr", "ratio"),
    ("train_loss", "nats"),
    ("peak_rss_mb", "MB"),
)

# Per-layer counts reported beside each layer's self time.
_COUNTERS = {
    "attention.build_token_set": ("calls", "tokens"),
    "attention.attend": ("calls", "query_rows", "qk_pairs"),
    "backbone.run_sequence": ("steps",),
    "time_kernel.time_embed.interval": ("calls",),
    "time_kernel.time_embed.gate": ("calls",),
    "aggregate.visit_self_attention": ("pairs",),
}
PER_LAYER = tuple(
    [(f"{layer}.{c}", "count") for layer, *_ in spans.LAYERS for c in _COUNTERS.get(layer, ())]
    + [(f"{layer}.self_s", "s") for layer, *_ in spans.LAYERS]
    + [(f"autodiff.ops.{kind}", "1/inst") for kind in spans.OPS + ("total",)]
    + [("bench.optimizer.self_s", "s"), ("other.self_s", "s"), ("trace.wall_s", "s"),
       ("trace.other_share", "ratio"), ("trace.overhead_frac", "ratio"),
       ("trace.missing_layers", "count"), ("trace.zero_call_layers", "count"),
       ("trace.uncounted_layers", "count"),
       ("batch.pad_efficiency", "ratio"), ("aggregate.fuse_and_predict.saturated_share", "ratio")])


@dataclass
class Inputs:
    loop: list        # instances of the step loop: training split, or the whole cohort
    held_out: list    # val and test splits: 20 % of the cohort, never trained on
    model: network.CatnetModel


def setup(workload: Workload, seed: int, workdir: str) -> Inputs:
    """Generate, save, load, split, build and initialise, all from ``seed``."""
    records, vocab = generate.generate(workload.gen_config(), seed)
    data_path = os.path.join(workdir, f"cohort-{workload.name}-{seed}.jsonl")
    vocab_path = os.path.join(workdir, f"vocab-{workload.name}-{seed}.json")
    cohort.save_dataset(records, vocab, data_path, vocab_path)
    records, vocab = cohort.load_dataset(data_path, vocab_path)
    train, val, test = cohort.split_dataset(records, seed)
    config = workload.model_config()
    loop = network.build_instances(train if workload.kind == "train" else records,
                                   config.task_spec, vocab)
    held_out = network.build_instances(val + test, config.task_spec, vocab)
    model = network.CatnetModel(config, vocab, np.random.default_rng(MODEL_SEED))
    return Inputs(loop=loop, held_out=held_out, model=model)


class Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980) over named parameter tensors."""

    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.t = 0

    def step(self):
        """Apply the stored gradients, then clear them."""
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            p.grad = None


class HostSpeed:
    """Factor that scales a time measured now to the reference host speed.

    A shared host's speed drifts by tens of percent over minutes as other
    tenants come and go, and contention only ever slows work down.  A fixed
    probe that does what the tape does (tiny numpy ops, Python allocations),
    timed just before and just after each measured step, slows down with it,
    so ``time * REFERENCE_S / probe`` stays steady where wall time does not.
    The median of the last few probes smooths the probe's own noise.
    """

    def __init__(self):
        self.recent = collections.deque(maxlen=HOST_WINDOW)
        rng = np.random.default_rng(0)
        self.matrix, self.vector = rng.random((16, 16)), rng.random(16)

    def _reference_work(self):
        kept = []
        for i in range(REFERENCE_LOOPS):
            x = np.tanh(self.matrix @ self.vector) * 0.5 + self.vector
            kept.append((i, x, [x.sum()]))
        return kept

    def probe(self) -> float:
        """Time the probe once; return the current scale factor.

        The collector is off while the probe runs: its allocations could
        otherwise start a collection whose cost grows with the program's live
        heap, and the factor would then follow the heap, not the host.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            begin = time.perf_counter()
            self._reference_work()
            self.recent.append(time.perf_counter() - begin)
        finally:
            if collecting:
                gc.enable()
        return REFERENCE_S / statistics.median(self.recent)

    def timed(self, fn, *args):
        """``(fn(*args), raw seconds, scaled seconds)``, with probes on both sides."""
        self.probe()
        begin = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - begin
        return result, elapsed, elapsed * self.probe()


@dataclass
class Tally:
    """Timings, attempts, failures and checks of one measured window.

    ``step_s`` and ``eval_s`` hold scaled seconds when a ``host`` is given,
    ``raw_s`` the unscaled total per kind.
    """

    host: HostSpeed = None
    step_s: list = field(default_factory=list)
    step_inst: int = 0
    eval_s: list = field(default_factory=list)
    eval_inst: int = 0
    raw_s: dict = field(default_factory=lambda: {"step": 0.0, "eval chunk": 0.0})
    model_inst: int = 0
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)

    def attempt(self, what, fn, *args):
        """Run one step or eval chunk; returns (result or None, scaled seconds)."""
        self.attempted += 1
        try:
            if self.host is None:
                start = time.perf_counter()
                result = fn(*args)
                elapsed = scaled = time.perf_counter() - start
            else:
                result, elapsed, scaled = self.host.timed(fn, *args)
        except Exception as exc:  # a failed step is counted and the run goes on
            self.failed += 1
            print(f"failed {what}: {exc!r}", file=sys.stderr)
            return None, 0.0
        self.raw_s[what] += elapsed
        return result, scaled

    def check(self, name, fn):
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception as exc:  # a check that raises is a failed check
            print(f"check {name} raised {exc!r}", file=sys.stderr)
            ok = False
        self.checks[name] = ok
        self.failed += not ok


def _batches(instances, size, rng):
    """Endless minibatches: each epoch in a fresh order from ``rng``, or in input order."""
    n = len(instances)
    while True:
        order = rng.permutation(n) if rng is not None else range(n)
        for lo in range(0, n, size):
            yield [instances[i] for i in order[lo:lo + size]]


def _pad_efficiency(batch) -> float:
    lengths = [len(inst.visits) for inst in batch]
    return sum(lengths) / (len(lengths) * max(lengths))


def _checked_predict(model, chunk):
    probs = model.predict(chunk)
    if probs.shape != (len(chunk), model.n_targets) or not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise ValueError(f"predictions of shape {probs.shape} not all finite and in [0, 1]")
    return probs


def _train_step(model, batch, optimizer, span):
    with ad.Tape():
        loss = model.batch_loss(batch, train=True)
    ad.backward(loss)
    with span("bench.optimizer"):
        optimizer.step()
    value = loss.item()
    if not math.isfinite(value):
        raise FloatingPointError("non-finite training loss")
    return value


def _eval_mode_loss(batch, probs) -> float:
    return float(np.mean([ad.binary_cross_entropy(ad.tensor(row), inst.target).item()
                          for row, inst in zip(probs, batch)]))


@dataclass
class Outcome:
    tally: Tally
    losses: list
    pad: list
    quality: dict
    saturated_share: float


def measure(workload: Workload, inputs: Inputs, seed: int, seconds, span,
            host: HostSpeed = None) -> Outcome:
    """One epoch/pass, the scoring of held-out predictions and the checks; then fill ``seconds``.

    ``seconds=None`` stops after the fixed part.  ``span`` opens a named span
    around the optimizer step (``contextlib.nullcontext`` when untraced);
    ``host``, when given, scales step times to the reference host speed.
    """
    model, tally = inputs.model, Tally(host=host)
    start = time.perf_counter()
    if workload.kind == "train":
        optimizer = Adam(model.parameters(), LEARNING_RATE)
        batches = _batches(inputs.loop, workload.batch, np.random.default_rng([seed, 1]))

        def step(batch):
            return _train_step(model, batch, optimizer, span)
    else:
        batches = _batches(inputs.loop, workload.batch, None)

        def step(batch):
            return _checked_predict(model, batch)

    def run_step(losses=None, pad=None, rows=None):
        batch = next(batches)
        out, elapsed = tally.attempt("step", step, batch)
        tally.model_inst += len(batch)
        if pad is not None:
            pad.append(_pad_efficiency(batch))
        if out is None:
            return
        tally.step_s.append(elapsed)
        tally.step_inst += len(batch)
        if losses is not None:
            losses.append(out if workload.kind == "train" else _eval_mode_loss(batch, out))
        if rows is not None:
            rows.append(out)

    def run_eval_chunk(chunk, rows=None):
        probs, elapsed = tally.attempt("eval chunk", _checked_predict, model, chunk)
        tally.model_inst += len(chunk)
        if probs is not None:
            tally.eval_s.append(elapsed)
            tally.eval_inst += len(chunk)
            if rows is not None:
                rows.append(probs)

    training = workload.kind == "train"
    losses, pad, rows = [], [], []
    for _ in range(math.ceil(len(inputs.loop) / workload.batch)):
        run_step(losses, pad, None if training else rows)
    if training:
        for lo in range(0, len(inputs.held_out), workload.batch):
            run_eval_chunk(inputs.held_out[lo:lo + workload.batch], rows)
    scored = inputs.held_out if training else inputs.loop
    quality, saturated = None, 0.0
    if sum(len(r) for r in rows) == len(scored):
        scores = np.vstack(rows)
        saturated = float(np.mean((scores == 0.0) | (scores == 1.0)))
        quality = metrics.evaluate_predictions(scores, np.stack([inst.target for inst in scored]))
    _run_checks(workload, inputs, tally, losses, quality)

    # Training steps and pairs of evaluation chunks alternate, so both see the
    # same host for about the same time.  These chunks cycle over the whole
    # cohort, not the 400 held-out patients alone: the cost of an instance
    # depends on its history, and a larger sample varies less between seeds.
    fill_chunks = _batches(inputs.loop + inputs.held_out, workload.batch, None)
    while seconds is not None and time.perf_counter() < start + seconds:
        run_step()
        if training:
            run_eval_chunk(next(fill_chunks))
            run_eval_chunk(next(fill_chunks))
    return Outcome(tally=tally, losses=losses, pad=pad, quality=quality,
                   saturated_share=saturated)


def _run_checks(workload, inputs, tally, losses, quality):
    model = inputs.model
    sample = inputs.held_out[:CHECK_SAMPLE]
    tally.model_inst += 4 * len(sample)
    tally.check("batch_transparency", lambda: all(
        np.array_equal(row, model.forward_instance(inst).data)
        for row, inst in zip(model.predict(sample), sample)))
    tally.check("predict_repeatable",
                lambda: np.array_equal(model.predict(sample), model.predict(sample)))
    tally.check("quality_evaluated", lambda: quality is not None)
    if workload.kind == "train":
        q = len(losses) // 4
        tally.check("loss_decreases", lambda: q >= 1 and np.mean(losses[-q:]) < np.mean(losses[:q]))
    if workload.auc_floor is not None:
        tally.check("val_auc_floor",
                    lambda: quality is not None and quality["auc"] >= workload.auc_floor)


def input_properties(workload: Workload, instances, pad) -> dict:
    """Measured shape of the step loop's inputs, as recorded in BENCHMARK.json."""
    lengths = np.array([len(inst.visits) for inst in instances])
    visits = [v for inst in instances for v in inst.visits]
    query_types = (workload.task,) if workload.mode == "task-aware" else cohort.EVENT_TYPES
    codes = sum(len(v.codes_for(t)) for v in visits for t in cohort.EVENT_TYPES)
    queries = sum(len(v.codes_for(t)) for v in visits for t in query_types) + len(visits)
    return {"patients": len(instances), "mean_visits": float(lengths.mean()),
            "max_visits": int(lengths.max()), "codes_per_visit": codes / len(visits),
            "query_rows_per_visit": queries / len(visits), "sum_T2": int((lengths ** 2).sum()),
            "pad_efficiency": float(np.mean(pad)) if pad else 0.0}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict                 # name -> (value, unit)
    checks: dict                  # check name -> passed
    notes: list = field(default_factory=list)


def _ratio(num, den):
    return num / den if den else 0.0


def run_untraced(workload: Workload, seed: int, seconds: float, workdir: str) -> Result:
    host = HostSpeed()
    setup_s, raw_setup_s, inputs = [], [], None
    for _ in range(SETUP_REPEATS):
        inputs = None   # every set-up starts from the same heap
        gc.collect()
        for _ in range(HOST_WINDOW):
            host.probe()
        inputs, raw, scaled = host.timed(setup, workload, seed, workdir)
        raw_setup_s.append(raw)
        setup_s.append(scaled)
    outcome = measure(workload, inputs, seed, seconds, contextlib.nullcontext, host)
    tally, quality = outcome.tally, outcome.quality or {}
    step_ms = np.array(tally.step_s) * 1e3
    # a predict workload's step loop is its evaluation
    eval_inst, eval_s, eval_raw_s = (
        (tally.eval_inst, sum(tally.eval_s), tally.raw_s["eval chunk"])
        if workload.kind == "train" else (tally.step_inst, sum(tally.step_s), tally.raw_s["step"]))
    values = {
        "setup_s": statistics.median(setup_s),
        "train_inst_per_s": _ratio(tally.step_inst, sum(tally.step_s)),
        "step_ms_p50": float(np.percentile(step_ms, 50)) if step_ms.size else 0.0,
        "step_ms_tail": float(np.percentile(step_ms, TAIL_PERCENTILE)) if step_ms.size else 0.0,
        "eval_inst_per_s": _ratio(eval_inst, eval_s),
        "val_auc": quality.get("auc", 0.0),
        "val_aupr": quality.get("aupr", 0.0),
        "train_loss": float(np.mean(outcome.losses)) if outcome.losses else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    props = input_properties(workload, inputs.loop, outcome.pad)
    notes = [f"input {k} {v:.6g}" for k, v in props.items()]
    notes.append(f"steps {len(tally.step_s)} (tail = p{TAIL_PERCENTILE}), "
                 f"eval chunks {len(tally.eval_s)}, setups {SETUP_REPEATS}")
    notes.append(f"unscaled: setup_s {statistics.median(raw_setup_s):.6g}, train_inst_per_s "
                 f"{_ratio(tally.step_inst, tally.raw_s['step']):.6g}, eval_inst_per_s "
                 f"{_ratio(eval_inst, eval_raw_s):.6g}, "
                 f"host speed {REFERENCE_S / statistics.median(host.recent):.4g} x reference")
    notes.append(f"failed_frac {_ratio(tally.failed, tally.attempted):.6g}")
    notes.append(f"saturated_share {outcome.saturated_share:.6g} "
                 f"(scored probabilities that round to exactly 0 or 1)")
    notes += [f"check {name} {'ok' if ok else 'FAILED'}" for name, ok in tally.checks.items()]
    return Result(correct=tally.failed == 0 and bool(quality), attempted=tally.attempted,
                  failed=tally.failed,
                  metrics={name: (values[name], unit) for name, unit in END_TO_END},
                  checks=tally.checks, notes=notes)


def _trace_overhead(workload: Workload, inputs: Inputs) -> float:
    """Median traced over median untraced time of one fixed step, minus 1 (times scaled)."""
    model = inputs.model
    sample = inputs.loop[:workload.batch]

    def once():
        if workload.kind == "predict":
            model.predict(sample)
            return
        with ad.Tape():
            loss = model.batch_loss(sample, train=True)
        ad.backward(loss)
        for p in model.parameters().values():
            p.grad = None

    once()
    host, plain, traced = HostSpeed(), [], []
    for _ in range(OVERHEAD_REPEATS):
        gc.collect()
        plain.append(host.timed(once)[2])
        with spans.Tracer().patched():
            gc.collect()
            traced.append(host.timed(once)[2])
    return statistics.median(traced) / statistics.median(plain) - 1.0


def run_traced(workload: Workload, seed: int, workdir: str) -> Result:
    tracer = spans.Tracer()
    with tracer.patched():
        with tracer.span("bench.run"):
            inputs = setup(workload, seed, workdir)
            outcome = measure(workload, inputs, seed, None, tracer.span)
    overhead = _trace_overhead(workload, inputs)
    tracer.write(os.path.join(workdir, f"trace-{workload.name}-seed{seed}.jsonl"))

    totals = tracer.self_times()
    counts, tally = tracer.counts, outcome.tally
    values = {}
    for layer, *_ in spans.LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
    values.update({k: v for k, v in counts.items() if not k.startswith("autodiff.ops.")})
    ops = {kind: _ratio(counts[f"autodiff.ops.{kind}"], tally.model_inst) for kind in spans.OPS}
    values.update({f"autodiff.ops.{kind}": v for kind, v in ops.items()})
    values["autodiff.ops.total"] = sum(ops.values())
    values["bench.optimizer.self_s"] = totals.get("bench.optimizer", (0, 0.0))[1]
    root = tracer.spans[0]
    values["trace.wall_s"] = root[2] - root[1]
    values["other.self_s"] = totals["bench.run"][1]
    values["trace.other_share"] = values["other.self_s"] / values["trace.wall_s"]
    values["trace.overhead_frac"] = overhead
    values["trace.missing_layers"] = len(tracer.missing)
    expected = [layer for layer, *_ in spans.LAYERS] + ["bench.optimizer"]
    zero = [layer for layer in expected if layer not in tracer.missing
            and layer not in workload.idle_layers and totals.get(layer, (0,))[0] == 0]
    values["trace.zero_call_layers"] = len(zero)
    values["trace.uncounted_layers"] = len(tracer.uncounted)
    values["batch.pad_efficiency"] = float(np.mean(outcome.pad)) if outcome.pad else 0.0
    values["aggregate.fuse_and_predict.saturated_share"] = outcome.saturated_share

    notes = [f"layer missing: {layer}" for layer in tracer.missing]
    notes += [f"layer with zero calls: {layer}" for layer in zero]
    notes += [f"layer uncounted: {layer}" for layer in sorted(tracer.uncounted)]
    notes += [f"check {name} {'ok' if ok else 'FAILED'}" for name, ok in tally.checks.items()]
    return Result(correct=tally.failed == 0 and bool(outcome.quality),
                  attempted=tally.attempted, failed=tally.failed,
                  metrics={name: (values.get(name, 0), unit) for name, unit in PER_LAYER},
                  checks=tally.checks, notes=notes)
