"""CATNet: time-aware, event-aware prediction of next-visit medical events."""

from catnet.cohort import PatientRecord, TaskSpec, Visit, VocabSpec

__all__ = [
    "PatientRecord",
    "TaskSpec",
    "Visit",
    "VocabSpec",
]
