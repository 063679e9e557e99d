import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from catnet.cohort import EVENT_TYPES, save_dataset
from catnet.generate import GenConfig, PlantedRule, conditional_effect_probability, generate


def as_dicts(records):
    return [rec.to_dict() for rec in records]


@pytest.fixture(scope="module")
def cohort():
    return generate(GenConfig.default(), 7919)


def test_same_seed_same_cohort_other_seed_differs():
    config = dataclasses.replace(GenConfig.default(), n_patients=200)
    first, vocab = generate(config, 7919)
    again, vocab_again = generate(config, 7919)
    assert vocab == vocab_again
    assert as_dicts(first) == as_dicts(again)
    other, _ = generate(config, 7920)
    assert as_dicts(other) != as_dicts(first)


def test_patient_stream_independent_of_cohort_size(cohort):
    small, _ = generate(dataclasses.replace(GenConfig.default(), n_patients=50), 7919)
    records, _ = cohort
    assert len(records) == 2000
    assert as_dicts(small) == as_dicts(records[:50])


def test_planted_rules_match_closed_form_rates(cohort):
    config = GenConfig.default()
    records, _ = cohort
    for rule in config.rules:
        base = float(config.prevalence(rule.effect_type)[rule.effect_code])
        observed = expected = variance = 0.0
        for rec in records:
            for prev, nxt in zip(rec.visits, rec.visits[1:]):
                if rule.trigger_code not in prev.codes_for(rule.trigger_type):
                    continue
                p = conditional_effect_probability(rule, base, nxt.time_days - prev.time_days)
                observed += rule.effect_code in nxt.codes_for(rule.effect_type)
                expected += p
                variance += p * (1.0 - p)
        assert variance > 0.0
        z = (observed - expected) / math.sqrt(variance)
        assert abs(z) < 4.0, f"{rule}: z = {z:.2f}"


def test_bare_config_is_the_standard_cohort():
    assert GenConfig() == GenConfig.default()


def test_prevalence_lists_fix_the_vocabulary():
    standard = GenConfig().base_prevalence
    config = GenConfig(n_patients=50, base_prevalence=dict(standard, med=[0.3] * 11))
    assert config.vocab().size("med") == 11
    records, vocab = generate(config, 7919)
    assert vocab.size("med") == 11
    med = [c for rec in records for visit in rec.visits for c in visit.codes_for("med")]
    assert med and max(med) < 11


def test_prevalence_types_must_be_the_event_types():
    standard = GenConfig().base_prevalence
    without_lab = {etype: p for etype, p in standard.items() if etype != "lab"}
    with pytest.raises(ValueError, match=r"missing \['lab'\], extra \[\]"):
        GenConfig(base_prevalence=without_lab)
    with pytest.raises(ValueError, match=r"missing \[\], extra \['vitals'\]"):
        GenConfig(base_prevalence=dict(standard, vitals=[0.1, 0.2]))


@pytest.mark.parametrize("lab", [[0.1, 1.5], [-0.1], [[0.1, 0.2]]],
                         ids=["above-one", "negative", "nested"])
def test_prevalence_lists_must_be_flat_probabilities(lab):
    with pytest.raises(ValueError, match=r"^base prevalence for lab must be a list of values "
                                         r"in \[0, 1\]$"):
        GenConfig(base_prevalence=dict(GenConfig().base_prevalence, lab=lab))


def _long_sparse():
    base = GenConfig.default()
    return dataclasses.replace(
        base, n_patients=200, max_visits=48, continue_prob=0.95,
        base_prevalence={t: list(base.prevalence(t) * 0.2) for t in EVENT_TYPES})


def _stacked_rules():
    """Two rules on med:0, and a proc -> proc rule whose trigger and effect share a type."""
    return dataclasses.replace(GenConfig.default(), n_patients=200, rules=[
        PlantedRule("diag", 0, "med", 0, boost=14.0, halflife_days=30.0),
        PlantedRule("lab", 3, "med", 0, boost=5.0, halflife_days=10.0),
        PlantedRule("proc", 1, "proc", 4, boost=8.0, halflife_days=20.0)])


# sha256 of the saved JSONL at seed 7919.  The per-patient stream layout in the
# generate docstring decides these bytes; a change that moves them changes every cohort.
GOLDEN_COHORTS = {
    "default-200": (lambda: dataclasses.replace(GenConfig.default(), n_patients=200),
                    "3d4052dadd634a54bf119f021cd71933ea3030eafce3dc944aa5e0d7b99f73d5"),
    "long-sparse-200": (_long_sparse,
                        "f06e565a865b89b944bd1562a2454b604832e54c40e7f55a45cbf5c354aa7336"),
    "stacked-rules-200": (_stacked_rules,
                          "1260dd7ee27845dce411c70176eb41a2b4fcf1b1e8fabe09ebfdae476b3f5000"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COHORTS))
def test_saved_cohort_bytes_are_pinned(tmp_path, name):
    make_config, expected = GOLDEN_COHORTS[name]
    records, vocab = generate(make_config(), 7919)
    data = tmp_path / "cohort.jsonl"
    save_dataset(records, vocab, str(data), str(tmp_path / "vocab.json"))
    assert hashlib.sha256(data.read_bytes()).hexdigest() == expected


@pytest.mark.parametrize("field, value, message", [
    ("n_patients", 2.5, "n_patients must be an integer, got 2.5"),
    ("n_patients", True, "n_patients must be an integer, got True"),
    ("n_patients", -3, "n_patients must be at least 1, got -3"),
    ("n_patients", 0, "n_patients must be at least 1, got 0"),
    ("min_visits", 2.0, "min_visits must be an integer, got 2.0"),
    ("max_visits", 3.5, "max_visits must be an integer, got 3.5"),
], ids=["n_patients-float", "n_patients-bool", "n_patients-negative", "n_patients-zero",
        "min_visits-float", "max_visits-float"])
def test_integer_fields_checked_at_construction(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataclasses.replace(GenConfig.default(), **{field: value})


def test_numpy_integer_fields_accepted():
    config = dataclasses.replace(GenConfig.default(), n_patients=np.int64(3),
                                 max_visits=np.int32(4))
    records, _ = generate(config, 7919)
    assert len(records) == 3 and all(2 <= len(rec.visits) <= 4 for rec in records)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 1.0, True, "7"])
def test_bad_seed_rejected_naming_it(seed):
    config = dataclasses.replace(GenConfig.default(), n_patients=2)
    with pytest.raises(ValueError, match=f"^seed must be an integer in \\[0, 2\\*\\*64\\), "
                                         f"got {re.escape(repr(seed))}$"):
        generate(config, seed)


def test_seed_range_ends_and_numpy_seeds_accepted():
    config = dataclasses.replace(GenConfig.default(), n_patients=10)
    first, _ = generate(config, 0)
    last, _ = generate(config, 2**64 - 1)
    assert as_dicts(first) != as_dicts(last)
    numpy_seeded, _ = generate(config, np.uint64(7919))
    assert as_dicts(numpy_seeded) == as_dicts(generate(config, 7919)[0])
