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
generated independently and in parallel without changing the output.  A stream
is read in one order, which fixes the cohort's bytes: sex, age, the continue
draws, the start time; per visit one ``random(n_codes)`` over all codes in
``EVENT_TYPES`` order, then one lognormal gap; last, mortality.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from catnet.cohort import EVENT_TYPES, PatientRecord, Visit, VocabSpec

_MIN_GAP_DAYS = 0.05


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
        if self.boost <= 1.0:
            raise ValueError(f"rule boost must exceed 1, got {self.boost}")
        if self.halflife_days <= 0.0:
            raise ValueError(f"rule halflife must be positive, got {self.halflife_days}")

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
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_patients < 1:
            raise ValueError(f"n_patients must be at least 1, got {self.n_patients}")
        if self.min_visits < 2:
            raise ValueError("min_visits must be at least 2")
        if self.max_visits < self.min_visits:
            raise ValueError("max_visits must be >= min_visits")
        if not 0.0 <= self.continue_prob <= 1.0:
            raise ValueError("continue_prob must lie in [0, 1]")
        if self.gap_log_sigma <= 0.0:
            raise ValueError("gap_log_sigma must be positive")
        missing = [t for t in EVENT_TYPES if t not in self.base_prevalence]
        extra = [t for t in self.base_prevalence if t not in EVENT_TYPES]
        if missing or extra:
            raise ValueError(f"base_prevalence needs one list per event type {EVENT_TYPES}; "
                             f"missing {missing}, extra {extra}")
        for etype in EVENT_TYPES:
            values = self.prevalence(etype)
            if values.ndim != 1 or np.any((values < 0) | (values > 1)):
                raise ValueError(f"base prevalence for {etype} must be a list of values in [0, 1]")
        vocab = self.vocab()
        for rule in self.rules:
            for etype, code in ((rule.trigger_type, rule.trigger_code),
                                (rule.effect_type, rule.effect_code)):
                if not 0 <= code < vocab.size(etype):
                    raise ValueError(f"rule code {etype}:{code} outside vocabulary")

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


def _patient_stream(seed: int, index: int) -> Generator:
    return Generator(Philox(key=(seed << 64) | index))


def _generate_patient(config: GenConfig, seed: int, index: int, base_logits: np.ndarray,
                      offsets: np.ndarray, local_codes: np.ndarray, rules: list) -> PatientRecord:
    rng = _patient_stream(seed, index)
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

    return PatientRecord(patient_id=f"synth-{index:05d}", age_years=age, sex=sex,
                         visits=visits, mortality=mortality)


def generate(config: GenConfig, seed: int):
    """Deterministic cohort for (config, seed); returns (records, vocab).

    ``seed`` is an integer in [0, 2**64), the high half of each patient's Philox key.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    seed = int(seed)
    vocab = config.vocab()
    base_logits = np.array([_logit(p) for etype in EVENT_TYPES for p in config.prevalence(etype)])
    offsets = np.cumsum([0] + [vocab.size(etype) for etype in EVENT_TYPES])
    local_codes = np.arange(offsets[-1]) - np.repeat(offsets[:-1], np.diff(offsets))
    start = dict(zip(EVENT_TYPES, offsets.tolist()))
    rules = [(rule, start[rule.trigger_type] + rule.trigger_code,
              start[rule.effect_type] + rule.effect_code) for rule in config.rules]
    records = [_generate_patient(config, seed, i, base_logits, offsets, local_codes, rules)
               for i in range(config.n_patients)]
    for rec in records:
        rec.validate(vocab)
    return records, vocab

