"""Patient records, vocabularies, temporal intervals, and dataset handling.

A cohort is a JSONL file (one patient per line) plus a ``vocab.json`` sidecar
giving the per-event-type code counts.  Records are treated as immutable after
loading and are safe to share across threads for reading.
"""

from __future__ import annotations

import bisect
import json
import math
import numbers
import operator
import os
from dataclasses import dataclass

import numpy as np

EVENT_TYPES = ("med", "diag", "lab", "proc")
TASKS = EVENT_TYPES + ("mortality",)
MODES = ("task-aware", "task-unaware")
DEMOGRAPHICS_DIM = 3  # width of PatientRecord.demographics_vector


@dataclass
class VocabSpec:
    """Code-space sizes per event type."""

    med: int
    diag: int
    lab: int
    proc: int

    def __post_init__(self):
        for etype in EVENT_TYPES:
            n = getattr(self, etype)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
                raise ValueError(f"vocab size for {etype} must be a non-negative integer, got {n!r}")
        if self.total() < 1:
            raise ValueError("vocabulary must contain at least one code overall")

    def size(self, event_type: str) -> int:
        return int(getattr(self, event_type))

    def total(self) -> int:
        return sum(self.size(t) for t in EVENT_TYPES)

    def to_dict(self) -> dict:
        return {t: self.size(t) for t in EVENT_TYPES}

    @classmethod
    def from_dict(cls, d: dict) -> "VocabSpec":
        spec = cls(med=d["med"], diag=d["diag"], lab=d["lab"], proc=d["proc"])
        for key in d:
            if key not in EVENT_TYPES:
                raise ValueError(f"unknown event type {key!r}; expected one of {EVENT_TYPES}")
        return spec


@dataclass
class Visit:
    """One timestamped encounter holding sorted, duplicate-free code lists."""

    time_days: float
    codes: dict

    def validate(self, vocab: VocabSpec, owner: str = "?"):
        if not (math.isfinite(self.time_days) and self.time_days >= 0):
            raise ValueError(f"patient {owner}: visit time must be finite and >= 0")
        if self.codes.keys() - EVENT_TYPES:
            key = next(k for k in self.codes if k not in EVENT_TYPES)
            raise ValueError(f"patient {owner}: unknown event type {key!r} in visit codes; "
                             f"expected one of {EVENT_TYPES}")
        for etype in EVENT_TYPES:
            lst = self.codes.get(etype, [])
            if not len(lst):
                continue
            for c in lst:
                if type(c) is not int and not _is_code(c):
                    raise ValueError(f"patient {owner}: non-integer {etype} code {c!r}")
            if not all(map(operator.lt, lst, lst[1:])):
                raise ValueError(
                    f"patient {owner}: {etype} codes must be sorted and duplicate-free")
            # Sorted, so only the ends can fall outside; name the first such code in the list.
            size = vocab.size(etype)
            if lst[0] < 0 or lst[-1] >= size:
                c = lst[0] if lst[0] < 0 else lst[bisect.bisect_left(lst, size)]
                raise ValueError(f"patient {owner}: {etype} code {c} outside vocab of size {size}")

    def codes_for(self, event_type: str):
        return self.codes.get(event_type, [])


@dataclass
class PatientRecord:
    """Demographics plus at least two visits in strictly increasing time."""

    patient_id: str
    age_years: float
    sex: str
    visits: list
    mortality: bool

    def validate(self, vocab: VocabSpec):
        pid = self.patient_id
        if not 0.0 <= self.age_years <= 120.0:
            raise ValueError(f"patient {pid}: age_years {self.age_years} outside [0, 120]")
        if self.sex not in ("F", "M"):
            raise ValueError(f"patient {pid}: sex must be 'F' or 'M'")
        if len(self.visits) < 2:
            raise ValueError(f"patient {pid}: records need at least two visits")
        times = [v.time_days for v in self.visits]
        if any(map(operator.le, times[1:], times)):
            raise ValueError(f"patient {pid}: visit times must be strictly increasing")
        for v in self.visits:
            v.validate(vocab, owner=pid)

    def demographics_vector(self) -> np.ndarray:
        """``DEMOGRAPHICS_DIM`` raw features: (age/100, female one-hot, male one-hot)."""
        return np.array([self.age_years / 100.0,
                         1.0 if self.sex == "F" else 0.0,
                         1.0 if self.sex == "M" else 0.0])

    def to_dict(self) -> dict:
        return {
            "patient_id": self.patient_id,
            "demographics": {"age_years": self.age_years, "sex": self.sex},
            "mortality": int(self.mortality),
            "visits": [
                {"time_days": v.time_days,
                 "codes": {t: list(v.codes_for(t)) for t in EVENT_TYPES}}
                for v in self.visits
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PatientRecord":
        pid, demo, mortality = str(d["patient_id"]), d["demographics"], d["mortality"]
        if type(mortality) not in (bool, int) or mortality not in (0, 1):
            raise ValueError(f"patient {pid}: mortality must be 0, 1, true or false, "
                             f"got {mortality!r}")
        visits = [Visit(time_days=_as_number(v["time_days"], pid, "time_days"),
                        codes=_code_lists(v["codes"], pid)) for v in d["visits"]]
        return cls(patient_id=pid, age_years=_as_number(demo["age_years"], pid, "age_years"),
                   sex=str(demo["sex"]), visits=visits, mortality=bool(mortality))


def _is_number(x) -> bool:
    """True for a real number that is not a bool; plain floats and ints skip the slow ABC check."""
    return type(x) in (float, int) or (isinstance(x, numbers.Real) and not isinstance(x, bool))


def _as_number(x, pid, field) -> float:
    """``x`` as a float if it is a number; else an error naming the patient and the field."""
    if not _is_number(x):
        raise ValueError(f"patient {pid}: {field} must be a number, got {x!r}")
    return float(x)


def _is_code(c) -> bool:
    """True for a finite integral number that is not a bool."""
    return type(c) is int or (_is_number(c) and math.isfinite(c) and int(c) == c)


def _as_code(c):
    """``c`` as an int if it is a code; else unchanged, for ``Visit.validate`` to reject."""
    return int(c) if _is_code(c) else c


def _code_lists(codes, pid) -> dict:
    """A visit's code lists, keyed as in the input; else an error naming the patient."""
    if not isinstance(codes, dict):
        raise ValueError(f"patient {pid}: visit codes must be an object, got {codes!r}")
    return {t: [c if type(c) is int else _as_code(c) for c in lst] if t in EVENT_TYPES else lst
            for t, lst in codes.items()}


@dataclass
class IntervalView:
    """Per-visit gaps: since the previous visit and since the first visit."""

    delta_prev_days: np.ndarray
    delta_global_days: np.ndarray


@dataclass
class TaskSpec:
    """Prediction target and attention mode.

    Code targets read the label from the final visit's multi-hot of the target
    type (inputs are all earlier visits); the mortality target is the record's
    flag (inputs are all visits).
    """

    target: str
    mode: str = "task-aware"

    def __post_init__(self):
        if self.target not in TASKS:
            raise ValueError(f"unknown task target {self.target!r}; expected one of {TASKS}")
        if self.mode not in MODES:
            raise ValueError(f"unknown attention mode {self.mode!r}; expected one of {MODES}")
        if self.target == "mortality" and self.mode == "task-aware":
            raise ValueError("mortality prediction has no primary event type; "
                             "mode must be task-unaware")

    @property
    def is_code_task(self) -> bool:
        return self.target != "mortality"

    def target_dim(self, vocab: VocabSpec) -> int:
        if self.is_code_task and vocab.size(self.target) == 0:
            raise ValueError(f"task {self.target!r} has no codes in the vocabulary")
        return vocab.size(self.target) if self.is_code_task else 1


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def derive_intervals(record: PatientRecord) -> IntervalView:
    """Backward-looking gaps: delta_prev[0] = 0, delta_global[i] = t_i - t_1."""
    times = [v.time_days for v in record.visits]
    if any(map(operator.le, times[1:], times)):
        raise ValueError(f"patient {record.patient_id}: visit times must be strictly increasing")
    t = np.array(times, dtype=np.float64)
    return IntervalView(delta_prev_days=np.concatenate(([0.0], t[1:] - t[:-1])),
                        delta_global_days=t - t[0])


def extract_task_instances(record: PatientRecord, task: TaskSpec, vocab: VocabSpec):
    """Input visits and the target label vector for one record.

    Code tasks use all but the final visit as input and the final visit's
    multi-hot of the target type as the label; mortality uses every visit and
    the record's flag.
    """
    if task.is_code_task:
        if len(record.visits) < 2:
            raise ValueError(f"patient {record.patient_id}: code tasks need >= 2 visits")
        target = np.zeros(vocab.size(task.target), dtype=np.float64)
        target[list(record.visits[-1].codes_for(task.target))] = 1.0
        return record.visits[:-1], target
    return record.visits, np.array([1.0 if record.mortality else 0.0])


def split_dataset(records, seed: int):
    """Deterministic shuffle and 8:1:1 split with floor-sized val/test."""
    n = len(records)
    if n < 10:
        raise ValueError(f"need at least 10 records to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    k = n // 10
    shuffled = [records[i] for i in order]
    return shuffled[: n - 2 * k], shuffled[n - 2 * k: n - k], shuffled[n - k:]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_dataset(records, vocab: VocabSpec, data_path: str, vocab_path: str = None):
    """Write the cohort JSONL and its vocab.json sidecar."""
    if vocab_path is None:
        vocab_path = os.path.join(os.path.dirname(data_path), "vocab.json")
    with open(data_path, "w") as fh:
        for rec in records:
            fh.write(_dumps(rec.to_dict()))
            fh.write("\n")
    with open(vocab_path, "w") as fh:
        fh.write(_dumps(vocab.to_dict()))
        fh.write("\n")


def load_vocab(vocab_path: str) -> VocabSpec:
    with open(vocab_path) as fh:
        try:
            return VocabSpec.from_dict(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{vocab_path}: malformed vocab: {exc}") from exc


def load_dataset(data_path: str, vocab_path: str = None):
    """Read a cohort, validating every record and id; errors carry line numbers."""
    if vocab_path is None:
        vocab_path = os.path.join(os.path.dirname(data_path), "vocab.json")
    vocab = load_vocab(vocab_path)
    records, first_line = [], {}
    with open(data_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = PatientRecord.from_dict(json.loads(line))
                rec.validate(vocab)
            except (KeyError, TypeError, ValueError, OverflowError, json.JSONDecodeError) as exc:
                raise ValueError(f"{data_path}:{lineno}: malformed record: {exc}") from exc
            if rec.patient_id in first_line:
                raise ValueError(f"{data_path}:{lineno}: duplicate patient_id {rec.patient_id!r}, "
                                 f"first on line {first_line[rec.patient_id]}")
            first_line[rec.patient_id] = lineno
            records.append(rec)
    return records, vocab
