import dataclasses
import math

import pytest

from catnet.generate import GenConfig, conditional_effect_probability, generate


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


def test_wrong_length_prevalence_rejected_at_construction():
    standard = GenConfig().base_prevalence
    with pytest.raises(ValueError, match="med: 11 prevalences for 12 codes"):
        GenConfig(base_prevalence=dict(standard, med=[0.1] * 11))
    without_lab = {etype: p for etype, p in standard.items() if etype != "lab"}
    with pytest.raises(ValueError, match="lab: 0 prevalences for 8 codes"):
        GenConfig(base_prevalence=without_lab)
