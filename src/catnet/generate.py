"""Seeded synthetic cohorts with planted cross-event rules and time decay.

Codes are sampled per visit from a logistic model: each code's logit is its
base-prevalence logit plus, for every planted rule whose trigger code appeared
at the previous visit, ``ln(boost) * 2**(-gap/halflife)``.  At the default
settings the gap moves that boost only a little: gaps run about 9 to 25 days
(5th to 95th percentile) against a 30-day half-life, so decay keeps between
81 % and 57 % of the boost's log-odds.  The trigger, not the gap, is what a
model must find to predict the effect codes.

Generation is a pure function of (config, seed): patient ``i`` draws from its
own Philox counter-based stream keyed by (seed, i), so patients can be
generated independently and in parallel without changing the output; one
Philox bit generator is rekeyed for each patient in turn.  A stream
is read in one order, which fixes the cohort's bytes: sex, age, the continue
draws, the start time; per visit one ``random(n_codes)`` over all codes in
``EVENT_TYPES`` order, then one lognormal gap; last, mortality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from catnet.cohort import (EVENT_TYPES, PatientRecord, Visit, VocabSpec, _is_integer, _is_number,
                           collector_paused)

_MIN_GAP_DAYS = 0.05


def _check_numbers(owner, names, prefix=""):
    """Raise an error naming the field unless each named field of ``owner`` is a number that
    fits a float; the error for one too large names the class as well."""
    for name in names:
        value = getattr(owner, name)
        if not _is_number(value):
            raise ValueError(f"{prefix}{name} must be a number, got {value!r}")
        try:
            float(value)
        except OverflowError:   # the value itself may be too long to print
            raise ValueError(f"{type(owner).__name__}: {name} is too large for a float") from None


@dataclass
class PlantedRule:
    """Trigger code at one visit boosts an effect code's odds at the next."""

    trigger_type: str
    trigger_code: int
    effect_type: str
    effect_code: int
    boost: float
    halflife_days: float

    def __post_init__(self):
        for etype in (self.trigger_type, self.effect_type):
            if etype not in EVENT_TYPES:
                raise ValueError(f"unknown event type {etype!r} in rule")
        for name in ("trigger_code", "effect_code"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"rule {name} must be an integer, got {getattr(self, name)!r}")
        _check_numbers(self, ("boost", "halflife_days"), prefix="rule ")
        if not (math.isfinite(self.boost) and self.boost > 1.0):
            raise ValueError(f"rule boost must be a finite number above 1, got {self.boost!r}")
        if not (math.isfinite(self.halflife_days) and self.halflife_days > 0.0):
            raise ValueError(f"rule halflife_days must be finite and positive, "
                             f"got {self.halflife_days!r}")

    def log_odds_at(self, gap_days: float) -> float:
        return math.log(self.boost) * 2.0 ** (-gap_days / self.halflife_days)


@dataclass
class GenConfig:
    """Cohort shape: vocabulary, visit process, prevalences, rules, mortality.

    The defaults are the standard benchmark cohort: three diag->med rules with
    a 30-day decay.  ``base_prevalence`` holds one list per event type, one
    entry per code, and so fixes the vocabulary: a type has as many codes as
    its list has entries.
    """

    n_patients: int = 2000
    min_visits: int = 2
    max_visits: int = 12
    continue_prob: float = 0.55
    gap_log_mu: float = 2.7
    gap_log_sigma: float = 0.3
    base_prevalence: dict = field(default_factory=lambda: {
        "med": [0.05, 0.05, 0.05] + list(np.round(np.linspace(0.10, 0.45, 9), 3)),
        "diag": [0.30, 0.30, 0.30] + list(np.round(np.linspace(0.08, 0.28, 7), 3)),
        "lab": list(np.round(np.linspace(0.06, 0.30, 8), 3)),
        "proc": list(np.round(np.linspace(0.05, 0.25, 6), 3))})
    rules: list = field(default_factory=lambda: [
        PlantedRule("diag", i, "med", i, boost=14.0, halflife_days=30.0) for i in range(3)])
    severe_codes: list = field(
        default_factory=lambda: [("diag", 0), ("diag", 1), ("diag", 2), ("lab", 0)])
    mortality_intercept: float = -2.6
    mortality_weight: float = 0.55

    def __post_init__(self):
        for name in ("n_patients", "min_visits", "max_visits"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_patients < 1:
            raise ValueError(f"n_patients must be at least 1, got {self.n_patients}")
        if self.min_visits < 2:
            raise ValueError("min_visits must be at least 2")
        if self.max_visits < self.min_visits:
            raise ValueError("max_visits must be >= min_visits")
        floats = ("gap_log_mu", "gap_log_sigma", "mortality_intercept", "mortality_weight")
        _check_numbers(self, ("continue_prob",) + floats)
        if not 0.0 <= self.continue_prob <= 1.0:
            raise ValueError("continue_prob must lie in [0, 1]")
        for name in floats:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.gap_log_sigma <= 0.0:
            raise ValueError("gap_log_sigma must be positive")
        missing = [t for t in EVENT_TYPES if t not in self.base_prevalence]
        extra = [t for t in self.base_prevalence if t not in EVENT_TYPES]
        if missing or extra:
            raise ValueError(f"base_prevalence needs one list per event type {EVENT_TYPES}; "
                             f"missing {missing}, extra {extra}")
        for etype in EVENT_TYPES:
            values = self.base_prevalence[etype]
            if np.ndim(values) != 1 or not all(_is_number(p) and 0 <= p <= 1 for p in values):
                raise ValueError(f"base prevalence for {etype} must be a list of values in [0, 1]")
        vocab = self.vocab()
        for rule in self.rules:
            if not isinstance(rule, PlantedRule):
                raise ValueError(f"rules must hold PlantedRule entries, got {rule!r}")
            for etype, code in ((rule.trigger_type, rule.trigger_code),
                                (rule.effect_type, rule.effect_code)):
                if not 0 <= code < vocab.size(etype):
                    raise ValueError(f"rule code {etype}:{code} outside vocabulary")
        for entry in self.severe_codes:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
                raise ValueError(f"severe_codes must hold (event type, code) pairs, got {entry!r}")
            etype, code = entry
            if not _is_integer(code):
                raise ValueError(f"severe code {etype}:{code!r} must be an integer")
            if etype not in EVENT_TYPES or not 0 <= code < vocab.size(etype):
                raise ValueError(f"severe code {etype}:{code} outside vocabulary")

    def vocab(self) -> VocabSpec:
        return VocabSpec(**{etype: len(self.base_prevalence[etype]) for etype in EVENT_TYPES})

    def prevalence(self, etype: str) -> np.ndarray:
        return np.asarray(self.base_prevalence[etype], dtype=np.float64)

    @classmethod
    def default(cls) -> "GenConfig":
        """The standard benchmark cohort: every field at its default."""
        return cls()


def _logit(p: float) -> float:
    p = min(max(p, 1e-9), 1.0 - 1e-9)
    return math.log(p / (1.0 - p))


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def conditional_effect_probability(rule: PlantedRule, base_p: float, gap_days: float) -> float:
    """Closed-form probability of the effect code given its trigger fired."""
    return _sigmoid(_logit(base_p) + rule.log_odds_at(gap_days))


def _patient_stream(rng: Generator, seed: int, index: int) -> Generator:
    """``rng``, a Philox generator, rekeyed to the start of patient ``index``'s stream."""
    rng.bit_generator.state = {
        "bit_generator": "Philox", "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([index, seed], np.uint64)}}
    return rng


def _generate_patient(config: GenConfig, rng: Generator, index: int, base_logits: np.ndarray,
                      offsets: np.ndarray, local_codes: np.ndarray, rules: list) -> PatientRecord:
    pid = f"synth-{index:05d}"
    sex = "F" if rng.random() < 0.5 else "M"
    age = round(float(rng.uniform(20.0, 90.0)), 1)

    n_visits = config.min_visits
    while n_visits < config.max_visits and rng.random() < config.continue_prob:
        n_visits += 1

    time = round(float(rng.uniform(0.0, 30.0)), 6)
    visits = []
    present = np.zeros(base_logits.shape[0], dtype=bool)
    prev_gap = 0.0
    for _ in range(n_visits):
        logits = base_logits.copy()
        for rule, trigger, effect in rules:
            if present[trigger]:
                logits[effect] += rule.log_odds_at(prev_gap)
        # One draw over every code; `offsets` then splits the present ones by type.
        present = rng.random(logits.shape[0]) < 1.0 / (1.0 + np.exp(-logits))
        flat = present.nonzero()[0]
        bounds = flat.searchsorted(offsets).tolist()
        codes = local_codes[flat].tolist()
        if not time < math.inf:   # a comparison only, so the draws stay as they are
            raise ValueError(f"patient {pid}: visit {len(visits)} time is {time}; gaps drawn with "
                             f"gap_log_mu={config.gap_log_mu!r} and "
                             f"gap_log_sigma={config.gap_log_sigma!r} overflow")
        visits.append(Visit(time_days=time, codes={
            etype: codes[lo:hi] for etype, lo, hi in zip(EVENT_TYPES, bounds, bounds[1:])}))
        gap = max(float(rng.lognormal(config.gap_log_mu, config.gap_log_sigma)),
                  _MIN_GAP_DAYS)
        prev_gap = round(gap, 6)
        time = round(time + prev_gap, 6)

    severe = 0
    for visit in visits[-2:]:
        for etype, code in config.severe_codes:
            if code in visit.codes_for(etype):
                severe += 1
    p_mort = _sigmoid(config.mortality_intercept + config.mortality_weight * severe)
    mortality = bool(rng.random() < p_mort)

    return PatientRecord(patient_id=pid, age_years=age, sex=sex,
                         visits=visits, mortality=mortality)


def generate(config: GenConfig, seed: int):
    """Deterministic cohort for (config, seed); returns (records, vocab).

    ``seed`` is an integer in [0, 2**64), the high half of each patient's Philox key.
    Only ``config`` and ``seed`` are checked here: the records are built to keep the
    visit contract and are not validated again, so whoever uses them checks them
    (``load_dataset`` on a saved cohort, ``TaskInstance`` and the model in code).
    The records are built with the cyclic garbage collector paused, as ``load_dataset``
    builds them: they hold no reference cycles, so a collection would free nothing.
    """
    if not _is_integer(seed) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    seed = int(seed)
    vocab = config.vocab()
    base_logits = np.array([_logit(p) for etype in EVENT_TYPES for p in config.prevalence(etype)])
    offsets = vocab.offsets()
    local_codes = np.arange(offsets[-1]) - np.repeat(offsets[:-1], np.diff(offsets))
    start = dict(zip(EVENT_TYPES, offsets.tolist()))
    rules = [(rule, start[rule.trigger_type] + rule.trigger_code,
              start[rule.effect_type] + rule.effect_code) for rule in config.rules]
    rng = Generator(Philox(0))   # one bit generator, rekeyed per patient
    with collector_paused():
        records = [_generate_patient(config, _patient_stream(rng, seed, i), i, base_logits,
                                     offsets, local_codes, rules) for i in range(config.n_patients)]
    return records, vocab

