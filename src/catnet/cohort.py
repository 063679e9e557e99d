"""Patient records, vocabularies, and dataset handling.

A cohort is a JSONL file (one patient per line) plus a ``vocab.json`` sidecar
giving the per-event-type code counts.  Records are treated as immutable after
loading and are safe to share across threads for reading.  A :class:`Visit` is
frozen, so its time and its code mapping cannot be reassigned; the code lists
inside that mapping can still be edited in place.

Records are trees of records, visits, dicts and lists with no reference cycles,
so a collection of the cyclic garbage collector while a cohort is built walks
every object built so far and frees none.  :func:`load_dataset` and
``generate.generate`` therefore build records inside :func:`collector_paused`.

The loader keeps each JSON value as parsed (integer times and ages, ``1.0``
codes, 0/1 mortality) and makes only the patient id a string; the ``validate``
methods alone judge them, and a re-save writes them back as read.

:func:`check_visits` holds the visit contract: each visit passes
:meth:`Visit.validate`, and the visit times strictly increase.
:meth:`PatientRecord.validate` (so :func:`load_dataset`) calls it with the
vocabulary.  ``network.TaskInstance`` calls it without one and derives the gaps
that the model's layers use unchecked; ``network.build_instances`` calls it on a
code task's last input visit and target visit.  The model checks input code ranges
against its own vocabulary, and ``build_instances`` a code task's target codes.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import json
import math
import numbers
import operator
import os
from dataclasses import dataclass

import numpy as np

EVENT_TYPES = ("med", "diag", "lab", "proc")
DEMOGRAPHICS_DIM = 3  # width of PatientRecord.demographics_vector
# what parsing and judging a malformed cohort or vocab file raises; the loaders name the file
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


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
            if not _is_integer(n) or n < 0:
                raise ValueError(f"vocab size for {etype} must be a non-negative integer, got {n!r}")
        if self.total() < 1:
            raise ValueError("vocabulary must contain at least one code overall")

    def size(self, event_type: str) -> int:
        return int(getattr(self, event_type))

    def total(self) -> int:
        return sum(self.size(t) for t in EVENT_TYPES)

    def offsets(self) -> np.ndarray:
        """First flat code index of each event type, in ``EVENT_TYPES`` order, then the total."""
        return np.cumsum([0] + [self.size(t) for t in EVENT_TYPES])

    def to_dict(self) -> dict:
        return {t: self.size(t) for t in EVENT_TYPES}

    @classmethod
    def from_dict(cls, d: dict) -> "VocabSpec":
        spec = cls(med=d["med"], diag=d["diag"], lab=d["lab"], proc=d["proc"])
        for key in d:
            if key not in EVENT_TYPES:
                raise ValueError(f"unknown event type {key!r}; expected one of {EVENT_TYPES}")
        return spec


@dataclass(frozen=True)
class Visit:
    """One timestamped encounter holding sorted, duplicate-free code lists."""

    time_days: float
    codes: dict

    def validate(self, vocab: VocabSpec = None, owner: str = "?"):
        """Raise an error naming patient ``owner`` unless the time is a finite number >= 0
        and the codes map event types to sorted, duplicate-free lists of integers, each
        inside ``vocab`` when one is given."""
        time = _as_number(self.time_days, owner, "time_days")
        if not (math.isfinite(time) and time >= 0):
            raise ValueError(f"patient {owner}: visit time must be finite and >= 0")
        if not isinstance(self.codes, dict):
            raise ValueError(f"patient {owner}: visit codes must be an object, got {self.codes!r}")
        for etype, lst in self.codes.items():
            if etype not in EVENT_TYPES:
                raise ValueError(f"patient {owner}: unknown event type {etype!r} in visit codes; "
                                 f"expected one of {EVENT_TYPES}")
            if type(lst) is not list:
                raise ValueError(f"patient {owner}: {etype} codes must be a list, got {lst!r}")
            if not lst:
                continue
            for c in lst:
                if type(c) is not int and not _is_code(c):
                    raise ValueError(f"patient {owner}: non-integer {etype} code {c!r}")
            if not all(map(operator.lt, lst, lst[1:])):
                raise ValueError(
                    f"patient {owner}: {etype} codes must be sorted and duplicate-free")
            if vocab is not None:
                check_code_range(lst, etype, vocab.size(etype), owner)

    def codes_for(self, event_type: str):
        return self.codes.get(event_type, [])


def check_code_range(codes, etype, size, owner):
    """Raise an error naming patient ``owner`` and the first code of the sorted integer
    list ``codes`` outside ``[0, size)``."""
    # Sorted, so only the ends can fall outside; name the first such code in the list.
    if codes and (codes[0] < 0 or codes[-1] >= size):
        c = codes[0] if codes[0] < 0 else codes[bisect.bisect_left(codes, size)]
        raise ValueError(f"patient {owner}: {etype} code {c} outside vocab of size {size}")


def check_visits(visits, owner, vocab: VocabSpec = None):
    """Raise an error naming patient ``owner`` unless every visit passes
    :meth:`Visit.validate` and the visit times strictly increase."""
    for v in visits:
        v.validate(vocab, owner)
    times = [v.time_days for v in visits]
    if any(map(operator.le, times[1:], times)):
        raise ValueError(f"patient {owner}: visit times must be strictly increasing")


@dataclass
class PatientRecord:
    """Demographics plus at least two visits in strictly increasing time; mortality 0, 1,
    true or false."""

    patient_id: str
    age_years: float
    sex: str
    visits: list
    mortality: bool

    def validate(self, vocab: VocabSpec):
        pid = self.patient_id
        if not 0.0 <= _as_number(self.age_years, pid, "age_years") <= 120.0:
            raise ValueError(f"patient {pid}: age_years {self.age_years} outside [0, 120]")
        if self.sex not in ("F", "M"):
            raise ValueError(f"patient {pid}: sex must be 'F' or 'M'")
        if type(self.mortality) not in (bool, int) or self.mortality not in (0, 1):
            raise ValueError(f"patient {pid}: mortality must be 0, 1, true or false, "
                             f"got {self.mortality!r}")
        if len(self.visits) < 2:
            raise ValueError(f"patient {pid}: records need at least two visits")
        check_visits(self.visits, pid, vocab)

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
        """The record as parsed, with the patient id (a non-empty string or an integer) made a
        string; :meth:`validate` judges the rest.  Mortality may be 0, 1, true or false."""
        pid = d["patient_id"]
        if not (_is_integer(pid) or isinstance(pid, str) and pid):
            raise ValueError(f"patient_id must be a non-empty string or an integer, got {pid!r}")
        demo = d["demographics"]
        return cls(patient_id=str(pid), age_years=demo["age_years"], sex=demo["sex"],
                   visits=[Visit(v["time_days"], v["codes"]) for v in d["visits"]],
                   mortality=d["mortality"])


def _is_number(x) -> bool:
    """True for a real number that is not a bool; plain floats and ints skip the slow ABC check."""
    return type(x) in (float, int) or (isinstance(x, numbers.Real) and not isinstance(x, bool))


def _is_integer(x) -> bool:
    """True for an integer that is not a bool (numpy integers included)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _as_number(x, pid, field) -> float:
    """``x`` as a float if it is a number that fits one; else an error naming patient and field."""
    if not _is_number(x):
        raise ValueError(f"patient {pid}: {field} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:   # the value itself may be too long to print
        raise ValueError(f"patient {pid}: {field} is too large for a float") from None


def _is_code(c) -> bool:
    """True for a finite integral number that is not a bool."""
    return type(c) is int or (_is_number(c) and math.isfinite(c) and int(c) == c)


@contextlib.contextmanager
def collector_paused():
    """Run the body with the cyclic garbage collector off, then turn it back on only if it
    was on before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def split_dataset(records, seed: int):
    """Deterministic shuffle and 8:1:1 split with floor-sized val/test; ``seed`` is an
    integer >= 0."""
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"split_dataset: seed must be a non-negative integer, got {seed!r}")
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
        except _MALFORMED as exc:
            raise ValueError(f"{vocab_path}: malformed vocab: {exc}") from exc


def load_dataset(data_path: str, vocab_path: str = None):
    """Read a UTF-8 cohort, one record per line (``\\n`` or ``\\r\\n`` endings), validating
    every record and id; errors carry line numbers."""
    if vocab_path is None:
        vocab_path = os.path.join(os.path.dirname(data_path), "vocab.json")
    vocab = load_vocab(vocab_path)
    records, first_line = [], {}
    with open(data_path, "rb") as fh, collector_paused():
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = PatientRecord.from_dict(json.loads(line))
                rec.validate(vocab)
            except _MALFORMED as exc:
                raise ValueError(f"{data_path}:{lineno}: malformed record: {exc}") from exc
            if rec.patient_id in first_line:
                raise ValueError(f"{data_path}:{lineno}: duplicate patient_id {rec.patient_id!r}, "
                                 f"first on line {first_line[rec.patient_id]}")
            first_line[rec.patient_id] = lineno
            records.append(rec)
    return records, vocab
