import dataclasses
import gc
import hashlib
import math
import re

import numpy as np
import pytest

from catnet.cohort import EVENT_TYPES, load_dataset, save_dataset
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



@pytest.mark.parametrize("entry", [("diagg", 0), ("diag", 99), ("lab", -1)],
                         ids=["unknown-type", "past-vocab", "negative"])
def test_severe_codes_checked_against_the_vocabulary(entry):
    etype, code = entry
    with pytest.raises(ValueError, match=f"^severe code {etype}:{code} outside vocabulary$"):
        GenConfig(severe_codes=[("diag", 0), entry])

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


# The benchmark's workload cohorts: both train workloads have the default shape.
WORKLOAD_COHORTS = {
    "default-2000": GenConfig.default,
    "long-sparse-1600": lambda: dataclasses.replace(_long_sparse(), n_patients=1600),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COHORTS) + sorted(WORKLOAD_COHORTS))
def test_generated_records_keep_the_visit_contract(name):
    make_config = WORKLOAD_COHORTS[name] if name in WORKLOAD_COHORTS else GOLDEN_COHORTS[name][0]
    records, vocab = generate(make_config(), 7919)
    for rec in records:
        rec.validate(vocab)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_cohort_building_restores_collector_state(tmp_path, enabled):
    """generate and load_dataset pause the collector and leave it as they found it,
    also when the load fails."""
    data = tmp_path / "cohort.jsonl"
    if not enabled:
        gc.disable()
    try:
        records, vocab = generate(dataclasses.replace(GenConfig.default(), n_patients=20), 1)
        assert gc.isenabled() is enabled
        save_dataset(records, vocab, str(data))
        load_dataset(str(data))
        assert gc.isenabled() is enabled
        with open(data, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(ValueError, match=r"cohort\.jsonl:21: malformed record"):
            load_dataset(str(data))
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_cohort_records_hold_no_reference_cycles(tmp_path):
    """generate and load_dataset pause the collector because the records they build hold no
    reference cycles; a cycle brought into them leaves garbage that only a collection frees."""
    data = tmp_path / "cohort.jsonl"
    gc.collect()
    gc.disable()
    try:
        records, vocab = generate(dataclasses.replace(GenConfig.default(), n_patients=200), 7919)
        save_dataset(records, vocab, str(data))
        loaded, _ = load_dataset(str(data))
        del records, loaded
        assert gc.collect() == 0
    finally:
        gc.enable()


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["gap_log_mu", "gap_log_sigma", "mortality_intercept",
                                   "mortality_weight"])
def test_non_finite_float_fields_rejected_naming_them(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        dataclasses.replace(GenConfig.default(), **{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field, message", [
    ("boost", "rule boost must be a finite number above 1"),
    ("halflife_days", "rule halflife_days must be finite and positive")])
def test_non_finite_rule_fields_rejected_naming_them(field, message, value):
    rule = dict(trigger_type="diag", trigger_code=0, effect_type="med", effect_code=0,
                boost=14.0, halflife_days=30.0)
    with pytest.raises(ValueError, match=f"^{message}, got {value!r}$"):
        PlantedRule(**dict(rule, **{field: value}))


def test_nan_prevalence_rejected():
    with pytest.raises(ValueError, match=r"^base prevalence for med must be a list of values "
                                         r"in \[0, 1\]$"):
        GenConfig(base_prevalence=dict(GenConfig().base_prevalence, med=[0.1, math.nan]))


@pytest.mark.parametrize("value", [1.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("field", ["trigger_code", "effect_code"])
def test_rule_codes_must_be_integers(field, value):
    rule = dict(trigger_type="diag", trigger_code=0, effect_type="med", effect_code=0,
                boost=14.0, halflife_days=30.0)
    with pytest.raises(ValueError, match=f"^rule {field} must be an integer, got {value!r}$"):
        PlantedRule(**dict(rule, **{field: value}))


@pytest.mark.parametrize("code", [1.5, True], ids=["float", "bool"])
def test_severe_codes_must_be_integers(code):
    with pytest.raises(ValueError, match=f"^severe code diag:{code!r} must be an integer$"):
        GenConfig(severe_codes=[("diag", 0), ("diag", code)])


@pytest.mark.parametrize("value", ["14", "0.5", None, True], ids=["string", "fraction-string",
                                                                  "none", "bool"])
@pytest.mark.parametrize("field", ["continue_prob", "gap_log_mu", "gap_log_sigma",
                                   "mortality_intercept", "mortality_weight"])
def test_float_fields_that_are_not_numbers_rejected_naming_them(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a number, got {re.escape(repr(value))}$"):
        dataclasses.replace(GenConfig.default(), **{field: value})


@pytest.mark.parametrize("value", ["14", None, True], ids=["string", "none", "bool"])
@pytest.mark.parametrize("field", ["boost", "halflife_days"])
def test_rule_float_fields_that_are_not_numbers_rejected_naming_them(field, value):
    rule = dict(trigger_type="diag", trigger_code=0, effect_type="med", effect_code=0,
                boost=14.0, halflife_days=30.0)
    with pytest.raises(ValueError, match=f"^rule {field} must be a number, "
                                         f"got {re.escape(repr(value))}$"):
        PlantedRule(**dict(rule, **{field: value}))


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["huge", "minus-huge"])
@pytest.mark.parametrize("field", ["continue_prob", "gap_log_mu", "gap_log_sigma",
                                   "mortality_intercept", "mortality_weight"])
def test_float_fields_too_large_for_a_float_rejected_naming_them(field, value):
    with pytest.raises(ValueError, match=f"^GenConfig: {field} is too large for a float$"):
        dataclasses.replace(GenConfig.default(), **{field: value})


@pytest.mark.parametrize("field", ["boost", "halflife_days"])
def test_rule_float_fields_too_large_for_a_float_rejected_naming_them(field):
    rule = dict(trigger_type="diag", trigger_code=0, effect_type="med", effect_code=0,
                boost=14.0, halflife_days=30.0)
    with pytest.raises(ValueError, match=f"^PlantedRule: {field} is too large for a float$"):
        PlantedRule(**dict(rule, **{field: 10 ** 400}))


def test_gaps_that_overflow_rejected_naming_the_patient_and_the_gap_fields():
    config = dataclasses.replace(GenConfig.default(), n_patients=3, gap_log_mu=800.0)
    with pytest.raises(ValueError, match=r"^patient synth-00000: visit 1 time is inf; gaps drawn "
                                         r"with gap_log_mu=800.0 and gap_log_sigma=0.3 overflow$"):
        generate(config, 0)


@pytest.mark.parametrize("entry", ["0.1", True], ids=["string", "bool"])
def test_prevalence_entries_that_are_not_numbers_rejected(entry):
    with pytest.raises(ValueError, match=r"^base prevalence for med must be a list of values "
                                         r"in \[0, 1\]$"):
        GenConfig(base_prevalence=dict(GenConfig().base_prevalence, med=[0.1, entry]))


@pytest.mark.parametrize("entry", [("diag",), ("diag", 0, 1), "diag0", None],
                         ids=["short", "long", "string", "none"])
def test_severe_codes_that_are_not_pairs_rejected(entry):
    with pytest.raises(ValueError, match=r"^severe_codes must hold \(event type, code\) pairs, "
                                         f"got {re.escape(repr(entry))}$"):
        GenConfig(severe_codes=[("diag", 0), entry])


def test_rules_that_are_not_planted_rules_rejected():
    with pytest.raises(ValueError, match=r"^rules must hold PlantedRule entries, "
                                         r"got \('diag', 0, 'med', 0\)$"):
        GenConfig(rules=[("diag", 0, "med", 0)])
