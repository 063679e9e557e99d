"""CATNet: time-aware, event-aware prediction of next-visit medical events."""
