import dataclasses
import json
import re

import numpy as np
import pytest

from catnet.cohort import (
    PatientRecord,
    Visit,
    VocabSpec,
    load_dataset,
    load_vocab,
    save_dataset,
    split_dataset,
)
from catnet.network import CatnetModel, ModelConfig, TaskInstance, build_instances


def make_record(pid="p0", times=(0.0, 3.0, 10.0), mortality=False):
    visits = [Visit(time_days=t,
                    codes={"med": [0, 2], "diag": [1], "lab": [], "proc": [0]})
              for t in times]
    return PatientRecord(patient_id=pid, age_years=63.0, sex="F",
                         visits=visits, mortality=mortality)


@pytest.fixture
def vocab():
    return VocabSpec(med=4, diag=3, lab=2, proc=1)


def make_cohort(n, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        t0 = float(rng.uniform(0, 5))
        times = np.round(np.cumsum([t0] + list(rng.uniform(1, 30, rng.integers(1, 4)))), 6)
        visits = [Visit(time_days=float(t),
                        codes={"med": sorted(set(rng.integers(0, 4, 2).tolist())),
                               "diag": [int(rng.integers(0, 3))],
                               "lab": [], "proc": []})
                  for t in times]
        records.append(PatientRecord(patient_id=f"p{i}", age_years=float(rng.uniform(20, 90)),
                                     sex="F" if rng.random() < 0.5 else "M",
                                     visits=visits, mortality=bool(rng.random() < 0.2)))
    return records


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, vocab):
        records = make_cohort(25)
        data = tmp_path / "cohort.jsonl"
        save_dataset(records, vocab, str(data))
        loaded, loaded_vocab = load_dataset(str(data))
        assert loaded_vocab.to_dict() == vocab.to_dict()
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]

    def test_resave_byte_identical(self, tmp_path, vocab):
        records = make_cohort(10)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        save_dataset(records, vocab, str(a), str(tmp_path / "va.json"))
        loaded, v = load_dataset(str(a), str(tmp_path / "va.json"))
        save_dataset(loaded, v, str(b), str(tmp_path / "vb.json"))
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_values_kept_as_read(self, tmp_path):
        """Integral-float codes, an integer time and an integer age load, re-save as read,
        and predict the same bits as the canonical file."""
        vocab = VocabSpec(med=4, diag=3, lab=2, proc=1)
        records = make_cohort(12)
        records[1] = make_record(pid="p1", times=(2.0, 3.0, 10.0))
        canonical = tmp_path / "canonical.jsonl"
        save_dataset(records, vocab, str(canonical), str(tmp_path / "vocab.json"))
        lines = canonical.read_text().splitlines()
        lines[1] = (lines[1].replace('"med":[0,2]', '"med":[0.0,2.0]')
                    .replace('"diag":[1]', '"diag":[1.0]').replace('"time_days":2.0', '"time_days":2')
                    .replace('"age_years":63.0', '"age_years":63'))
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join(lines) + "\n")

        loaded, _ = load_dataset(str(edited), str(tmp_path / "vocab.json"))
        rec = loaded[1]
        assert type(rec.age_years) is int and type(rec.visits[0].time_days) is int
        assert [type(c) for v in rec.visits for c in v.codes["med"] + v.codes["diag"]] == [float] * 9
        assert type(rec.mortality) is int
        resaved = tmp_path / "resaved.jsonl"
        save_dataset(loaded, vocab, str(resaved), str(tmp_path / "vocab-resaved.json"))
        assert resaved.read_bytes() == edited.read_bytes()

        reference, _ = load_dataset(str(canonical), str(tmp_path / "vocab.json"))
        for task, mode in (("med", "task-aware"), ("diag", "task-unaware"),
                           ("mortality", "task-unaware")):
            model = CatnetModel(ModelConfig(task=task, mode=mode, embed_dim=3,
                                            hidden_dim=4, demo_dim=2),
                                vocab, np.random.default_rng(5))
            a, b = (build_instances(recs, task, vocab) for recs in (loaded, reference))
            assert [x.target.tobytes() for x in a] == [x.target.tobytes() for x in b]
            assert model.predict(a).tobytes() == model.predict(b).tobytes()


class TestValidation:
    def test_single_visit_rejected(self, vocab):
        rec = make_record(times=(5.0,))
        with pytest.raises(ValueError, match="two visits"):
            rec.validate(vocab)

    def test_code_out_of_vocab_rejected(self, vocab):
        rec = make_record()
        rec.visits[0].codes["med"] = [0, 99]
        with pytest.raises(ValueError, match="99"):
            rec.validate(vocab)

    def test_unsorted_codes_rejected(self, vocab):
        rec = make_record()
        rec.visits[0].codes["med"] = [2, 0]
        with pytest.raises(ValueError, match="sorted"):
            rec.validate(vocab)

    @pytest.mark.parametrize("codes, named", [([1, 12, 13], 12), ([-1, 3], -1),
                                              ([-2, 5, 30], -2), ([11, 12], 12)])
    def test_first_out_of_vocab_code_in_list_order_named(self, codes, named):
        rec = make_record()
        rec.visits[1].codes["med"] = codes
        with pytest.raises(ValueError) as err:
            rec.validate(VocabSpec(med=12, diag=3, lab=2, proc=1))
        assert str(err.value) == f"patient p0: med code {named} outside vocab of size 12"

    @pytest.mark.parametrize("codes, shown", [([3, 1.5], "1.5"), (["x", 2, 1], "'x'"),
                                              ([5, 2, 99, 2.5], "2.5")])
    def test_non_integer_reported_before_unsorted_and_range(self, vocab, codes, shown):
        rec = make_record()
        rec.visits[0].codes["diag"] = codes
        with pytest.raises(ValueError) as err:
            rec.validate(vocab)
        assert str(err.value) == f"patient p0: non-integer diag code {shown}"

    @pytest.mark.parametrize("codes", [[0, 0], [1, 3, 2], [2, 2.0]])
    def test_unsorted_reported_before_range(self, codes):
        rec = make_record()
        rec.visits[0].codes["med"] = [*codes, 50]
        with pytest.raises(ValueError) as err:
            rec.validate(VocabSpec(med=4, diag=3, lab=2, proc=1))
        assert str(err.value) == "patient p0: med codes must be sorted and duplicate-free"

    def test_non_increasing_times_rejected(self, vocab):
        rec = make_record(times=(3.0, 3.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            rec.validate(vocab)

    def test_malformed_line_reports_line_number(self, tmp_path, vocab):
        data = tmp_path / "cohort.jsonl"
        save_dataset(make_cohort(3), vocab, str(data))
        with open(data, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(ValueError, match=":4:"):
            load_dataset(str(data))

    @pytest.mark.parametrize("line, shown", [
        (b'{"patient_id":"p\xff1"}', "'utf-8' codec can't decode byte 0xff in position 16"),
        (b"[" * 100000, "maximum recursion depth exceeded"),
    ], ids=["not-utf-8", "nested-too-deep"])
    def test_unreadable_line_names_file_and_line(self, tmp_path, vocab, line, shown):
        data = tmp_path / "cohort.jsonl"
        save_dataset(make_cohort(3), vocab, str(data))
        lines = data.read_bytes().splitlines()
        data.write_bytes(b"\n".join([lines[0], line, lines[2]]) + b"\n")
        with pytest.raises(ValueError, match=rf"cohort\.jsonl:2: malformed record: {shown}"):
            load_dataset(str(data))

    def test_crlf_line_endings_load(self, tmp_path, vocab):
        records = make_cohort(5)
        data = tmp_path / "cohort.jsonl"
        save_dataset(records, vocab, str(data))
        data.write_bytes(data.read_bytes().replace(b"\n", b"\r\n"))
        loaded, _ = load_dataset(str(data))
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]

    @pytest.mark.parametrize("field, value", [("time_days", 0.5), ("codes", {"med": [1]})],
                             ids=["time_days", "codes"])
    def test_visit_fields_cannot_be_reassigned(self, field, value):
        """A visit's time and code mapping are fixed once built, so gaps derived from them
        (``TaskInstance``) cannot go stale."""
        visit = make_record().visits[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(visit, field, value)
        assert visit == make_record().visits[1]

    def test_invariant_violation_names_patient(self, tmp_path, vocab):
        records = make_cohort(3)
        records[1].visits[0].codes["diag"] = [7]
        data = tmp_path / "cohort.jsonl"
        save_dataset(records, vocab, str(data))
        with pytest.raises(ValueError, match=r":2: .*p1"):
            load_dataset(str(data))

    @pytest.mark.parametrize("code, message", [
        ("1.5", r"cohort\.jsonl:2: .*p1: non-integer med code 1\.5"),
        ("Infinity", r"cohort\.jsonl:2: malformed record: patient p1: non-integer med code inf"),
        ("true", r"cohort\.jsonl:2: malformed record: patient p1: non-integer med code True"),
        ("null", r"cohort\.jsonl:2: malformed record: patient p1: non-integer med code None"),
        ("[1]", r"cohort\.jsonl:2: malformed record: patient p1: non-integer med code \[1\]"),
        ('"x"', r"cohort\.jsonl:2: malformed record: patient p1: non-integer med code 'x'"),
        ("NaN", r"cohort\.jsonl:2: malformed record: patient p1: non-integer med code nan"),
    ], ids=["fraction", "infinity", "bool", "null", "list", "string", "nan"])
    def test_non_integer_code_rejected_on_load(self, tmp_path, vocab, code, message):
        data = tmp_path / "cohort.jsonl"
        save_dataset(make_cohort(3), vocab, str(data))
        lines = data.read_text().splitlines()
        lines[1] = lines[1].replace('"med":[', f'"med":[{code},', 1)
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            load_dataset(str(data))

    @pytest.mark.parametrize("codes, shown", [([1, 2], r"\[1, 2\]"), ("med", "'med'"),
                                              (None, "None")], ids=["list", "string", "null"])
    def test_visit_codes_not_an_object_rejected_on_load(self, tmp_path, vocab, codes, shown):
        data = tmp_path / "cohort.jsonl"
        save_dataset(make_cohort(3), vocab, str(data))
        lines = data.read_text().splitlines()
        record = json.loads(lines[1])
        record["visits"][0]["codes"] = codes
        lines[1] = json.dumps(record)
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"cohort\.jsonl:2: malformed record: patient p1: "
                                             rf"visit codes must be an object, got {shown}$"):
            load_dataset(str(data))

    @pytest.mark.parametrize("value, shown", [("null", "None"), ('"old"', "'old'"),
                                              ("true", "True")], ids=["null", "string", "bool"])
    @pytest.mark.parametrize("field", ["time_days", "age_years"])
    def test_non_number_time_or_age_rejected_on_load(self, tmp_path, vocab, field, value, shown):
        data = tmp_path / "cohort.jsonl"
        save_dataset(make_cohort(3), vocab, str(data))
        lines = data.read_text().splitlines()
        lines[1] = re.sub(f'"{field}":[0-9.]+', f'"{field}":{value}', lines[1], count=1)
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"cohort\.jsonl:2: malformed record: patient p1: "
                                             f"{field} must be a number, got {shown}"):
            load_dataset(str(data))

    @pytest.mark.parametrize("field", ["time_days", "age_years"])
    def test_number_too_large_for_a_float_rejected_on_load(self, tmp_path, vocab, field):
        data = tmp_path / "cohort.jsonl"
        save_dataset(make_cohort(3), vocab, str(data))
        lines = data.read_text().splitlines()
        lines[1] = re.sub(f'"{field}":[0-9.]+', f'"{field}":1{"0" * 400}', lines[1], count=1)
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"cohort\.jsonl:2: malformed record: patient p1: "
                                             f"{field} is too large for a float$"):
            load_dataset(str(data))

    def test_time_too_large_for_a_float_rejected_naming_the_patient(self):
        with pytest.raises(ValueError, match="^patient p7: time_days is too large for a float$"):
            TaskInstance("p7", [Visit(10**400, {"med": [1]})], np.zeros(3), np.zeros(2))

    @pytest.mark.parametrize("time, shown", [("3", "'3'"), (None, "None"), (True, "True")],
                             ids=["string", "none", "bool"])
    def test_non_number_time_rejected_by_validate(self, vocab, time, shown):
        with pytest.raises(ValueError, match=f"^patient p1: time_days must be a number, got {shown}$"):
            Visit(time, {"med": [1]}).validate(vocab, owner="p1")

    @pytest.mark.parametrize("label, shown", [('"0"', "'0'"), ("2", "2"), ("-1", "-1"),
                                              ("null", "None")],
                             ids=["string", "two", "minus-one", "null"])
    def test_malformed_mortality_rejected_on_load(self, tmp_path, vocab, label, shown):
        records = make_cohort(3)
        records[1].mortality = False
        data = tmp_path / "cohort.jsonl"
        save_dataset(records, vocab, str(data))
        lines = data.read_text().splitlines()
        lines[1] = lines[1].replace('"mortality":0', f'"mortality":{label}', 1)
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"cohort\.jsonl:2: malformed record: patient p1: "
                                             r"mortality must be 0, 1, true or false, got " + shown):
            load_dataset(str(data))

    def test_boolean_mortality_loads(self, tmp_path, vocab):
        data = tmp_path / "cohort.jsonl"
        save_dataset(make_cohort(2), vocab, str(data))
        lines = data.read_text().splitlines()
        lines = [line.replace('"mortality":0', '"mortality":true')
                 .replace('"mortality":1', '"mortality":false') for line in lines]
        data.write_text("\n".join(lines) + "\n")
        before = [r.mortality for r in make_cohort(2)]
        assert [r.mortality for r in load_dataset(str(data))[0]] == [not m for m in before]

    def test_non_number_age_rejected_by_validate(self, vocab):
        rec = make_record()
        rec.age_years = "63"
        with pytest.raises(ValueError, match="^patient p0: age_years must be a number, got '63'$"):
            rec.validate(vocab)

    @pytest.mark.parametrize("mortality", ["no", 2, None], ids=["string", "two", "none"])
    def test_malformed_mortality_rejected_by_validate(self, vocab, mortality):
        with pytest.raises(ValueError, match="^patient p0: mortality must be 0, 1, true or "
                                             f"false, got {re.escape(repr(mortality))}$"):
            make_record(mortality=mortality).validate(vocab)

    def test_code_range_checked_only_against_a_given_vocab(self, vocab):
        visit = Visit(1.0, {"med": [0, 99]})
        visit.validate()
        with pytest.raises(ValueError, match="^patient p1: med code 99 outside vocab of size 4$"):
            visit.validate(vocab, owner="p1")

    def test_unknown_event_type_in_visit_rejected_on_load(self, tmp_path, vocab):
        data = tmp_path / "cohort.jsonl"
        save_dataset(make_cohort(3), vocab, str(data))
        lines = data.read_text().splitlines()
        record = json.loads(lines[1])
        record["visits"][0]["codes"] = {"med": [1], "diagg": [2], "vitals": [7]}
        lines[1] = json.dumps(record)
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"cohort\.jsonl:2: malformed record: patient p1: "
                                             r"unknown event type 'diagg' in visit codes"):
            load_dataset(str(data))

    def test_unknown_event_type_in_visit_built_in_code_rejected(self, vocab):
        visit = Visit(1.0, {"medd": [1], "med": [2]})
        with pytest.raises(ValueError, match=r"^patient p9: unknown event type 'medd' in visit "
                                             r"codes; expected one of \('med', "):
            visit.validate(vocab, owner="p9")

    @pytest.mark.parametrize("codes", ["12", 5, None], ids=["string", "int", "null"])
    def test_code_list_that_is_not_a_list_rejected(self, vocab, codes):
        visit = Visit(1.0, {"med": codes, "diag": [1]})
        with pytest.raises(ValueError, match=rf"^patient p9: med codes must be a list, "
                                             rf"got {re.escape(repr(codes))}$"):
            visit.validate(vocab, owner="p9")

    @pytest.mark.parametrize("codes, shown", [('"12"', "'12'"), ("5", "5")],
                             ids=["string", "int"])
    def test_code_list_that_is_not_a_list_rejected_on_load(self, tmp_path, vocab, codes, shown):
        data = tmp_path / "cohort.jsonl"
        save_dataset(make_cohort(3), vocab, str(data))
        lines = data.read_text().splitlines()
        lines[1] = re.sub(r'"med":\[[0-9,]*\]', f'"med":{codes}', lines[1], count=1)
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"cohort\.jsonl:2: malformed record: patient p1: "
                                             rf"med codes must be a list, got {shown}$"):
            load_dataset(str(data))

    def test_duplicate_patient_id_rejected_on_load(self, tmp_path, vocab):
        records = make_cohort(3)
        records[2].patient_id = "p0"
        data = tmp_path / "cohort.jsonl"
        save_dataset(records, vocab, str(data))
        with pytest.raises(ValueError, match=r"cohort\.jsonl:3: duplicate patient_id 'p0', "
                                             r"first on line 1$"):
            load_dataset(str(data))

    @pytest.mark.parametrize("value, shown", [
        ("null", "None"), ("true", "True"), ('{"a":1}', "{'a': 1}"), ("[1]", r"\[1\]"),
        ("1.5", "1.5"), ('""', "''"),
    ], ids=["null", "bool", "object", "list", "fraction", "empty"])
    def test_patient_id_that_is_not_an_id_rejected_on_load(self, tmp_path, vocab, value, shown):
        data = tmp_path / "cohort.jsonl"
        save_dataset(make_cohort(3), vocab, str(data))
        lines = data.read_text().splitlines()
        data.write_text("\n".join([lines[0], lines[1].replace('"p1"', "7"), lines[2]]) + "\n")
        assert load_dataset(str(data))[0][1].patient_id == "7"   # integer ids load as strings
        data.write_text("\n".join([lines[0], lines[1].replace('"p1"', value), lines[2]]) + "\n")
        with pytest.raises(ValueError, match=r"cohort\.jsonl:2: malformed record: patient_id must "
                                             rf"be a non-empty string or an integer, got {shown}$"):
            load_dataset(str(data))

    BAD_MED_SIZE = "vocab size for med must be a non-negative integer, got "

    @pytest.mark.parametrize("text, shown", [
        ('{"med":2.5,"diag":3,"lab":2,"proc":1}', BAD_MED_SIZE + "2.5"),
        ('{"med":"3","diag":3,"lab":2,"proc":1}', BAD_MED_SIZE + "'3'"),
        ('{"med":true,"diag":3,"lab":2,"proc":1}', BAD_MED_SIZE + "True"),
        ('{"med":4,"diag":3,"lab":2}', "'proc'"),
        ("[4, 3, 2, 1]", "list indices must be integers"),
        ('{"med":4,"diag":3,"lab":2,"proc":1,"vitals":5}', "unknown event type 'vitals'"),
        ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
    ], ids=["fraction", "string", "bool", "missing-key", "list", "unknown-type",
            "nested-too-deep"])
    def test_malformed_vocab_rejected_with_path(self, tmp_path, text, shown):
        path = tmp_path / "vocab.json"
        path.write_text(text + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed vocab: {shown}")):
            load_vocab(str(path))


class TestSplit:
    def test_ten_records(self):
        train, val, test = split_dataset(make_cohort(10), seed=1)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_table_sized_cohort_uses_floor_rule(self):
        # 5438 records -> 4352 / 543 / 543 by the floor rule
        records = list(range(5438))
        train, val, test = split_dataset(records, seed=3)
        assert (len(train), len(val), len(test)) == (4352, 543, 543)

    def test_partition_exact_and_disjoint(self):
        records = list(range(137))
        train, val, test = split_dataset(records, seed=9)
        assert sorted(train + val + test) == records
        assert not (set(train) & set(val)) and not (set(val) & set(test))

    def test_same_seed_same_partition(self):
        records = list(range(57))
        assert split_dataset(records, seed=4) == split_dataset(records, seed=4)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            split_dataset(list(range(9)), seed=0)

    @pytest.mark.parametrize("seed", ["1", -1, 1.0, True, None])
    def test_bad_seed_rejected_naming_it(self, seed):
        with pytest.raises(ValueError, match="^split_dataset: seed must be a non-negative "
                                             f"integer, got {re.escape(repr(seed))}$"):
            split_dataset(list(range(20)), seed)


def gaps(times, task="mortality"):
    """The gaps of the instance built from a record with visits at ``times``."""
    vocab = VocabSpec(med=4, diag=3, lab=2, proc=1)
    inst, = build_instances([make_record(times=times)], task, vocab)
    return inst.delta_prev, inst.delta_global


class TestIntervals:
    def test_direct_subtraction(self):
        delta_prev, delta_global = gaps((0.0, 3.0, 10.0))
        np.testing.assert_array_equal(delta_prev, [0.0, 3.0, 7.0])
        np.testing.assert_array_equal(delta_global, [0.0, 3.0, 10.0])
        delta_prev, delta_global = gaps((0.0, 3.0, 10.0), "med")
        np.testing.assert_array_equal(delta_prev, [0.0, 3.0])
        np.testing.assert_array_equal(delta_global, [0.0, 3.0])

    def test_half_day_interval(self):
        np.testing.assert_array_equal(gaps((5.0, 5.5))[0], [0.0, 0.5])

    def test_global_gap_is_last_minus_first(self):
        rng = np.random.default_rng(11)
        times = np.cumsum(rng.uniform(0.5, 20, 6)) + 2.0
        assert gaps(tuple(times))[1][-1] == pytest.approx(times[-1] - times[0], abs=1e-12)

    def test_time_shift_invariance(self):
        times = (2.0, 9.0, 30.0)
        shifted = tuple(t + 1234.5 for t in times)
        for a, b in zip(gaps(times), gaps(shifted)):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_same_bits_as_diff_with_prepend(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 7, 40):
            for scale in (0.01, 1.0, 1e4):
                times = np.cumsum(rng.uniform(0.05, 30.0, n + 1) * scale) + rng.uniform(0, 1e3)
                for task, t in (("mortality", times), ("med", times[:-1])):
                    delta_prev, delta_global = gaps(tuple(times.tolist()), task)
                    assert delta_prev.tobytes() == np.diff(t, prepend=t[0]).tobytes()
                    assert delta_global.tobytes() == (t - t[0]).tobytes()

    def test_bad_times_rejected(self):
        for times in ((0.0, 3.0, 3.0), (0.0, 5.0, 2.0)):
            with pytest.raises(ValueError, match="^patient p0: visit times must be strictly "
                                                 "increasing$"):
                gaps(times)
        for times in ((0.0, np.nan, 10.0), (np.inf,)):
            with pytest.raises(ValueError, match="^patient p0: visit time must be finite "
                                                 "and >= 0$"):
                gaps(times)


class TestTaskInstances:
    def test_medication_task_uses_final_visit_label(self, vocab):
        rec = make_record(times=(0.0, 5.0, 9.0))
        rec.visits[-1].codes["med"] = [1, 3]
        inst, = build_instances([rec], "med", vocab)
        assert inst.visits == tuple(rec.visits[:2])
        np.testing.assert_array_equal(inst.target, [0.0, 1.0, 0.0, 1.0])

    def test_mortality_uses_all_visits(self, vocab):
        rec = make_record(mortality=True)
        inst, = build_instances([rec], "mortality", vocab)
        assert inst.visits == tuple(rec.visits)
        np.testing.assert_array_equal(inst.target, [1.0])

    def test_target_length_matches_vocab(self):
        vocab = VocabSpec(med=346, diag=1, lab=1, proc=1)
        inst, = build_instances([make_record()], "med", vocab)
        assert inst.target.shape == (346,)

    @pytest.mark.parametrize("times", [(4.0,), ()], ids=["one-visit", "no-visits"])
    def test_code_task_needs_two_visits(self, vocab, times):
        with pytest.raises(ValueError, match="^patient p0: an instance needs at least one visit$"):
            build_instances([make_record(times=times)], "med", vocab)

    def test_integral_float_target_code_marks_its_index(self, vocab):
        rec = make_record(times=(0.0, 5.0, 9.0))
        rec.visits[-1].codes["med"] = [1.0, 3]
        inst, = build_instances([rec], "med", vocab)
        np.testing.assert_array_equal(inst.target, [0.0, 1.0, 0.0, 1.0])

    @pytest.mark.parametrize("codes, shown", [([1.5], "non-integer med code 1.5"),
                                              (["1"], "non-integer med code '1'"),
                                              ([3, 1], "med codes must be sorted")],
                             ids=["fraction", "string", "unsorted"])
    def test_bad_target_code_rejected_naming_the_patient(self, vocab, codes, shown):
        rec = make_record(times=(0.0, 5.0, 9.0))
        rec.visits[-1].codes["med"] = codes
        with pytest.raises(ValueError, match=f"^patient p0: {shown}"):
            build_instances([rec], "med", vocab)

    @pytest.mark.parametrize("code", [-1, 9, 10**30], ids=["negative", "past-the-end", "huge"])
    def test_target_code_outside_vocab_rejected_naming_the_patient(self, vocab, code):
        rec = make_record(pid="q", times=(0.0, 5.0, 9.0))
        rec.visits[-1].codes["med"] = [code]
        with pytest.raises(ValueError, match=f"^patient q: med code {code} outside vocab "
                                             "of size 4$"):
            build_instances([rec], "med", vocab)

    @pytest.mark.parametrize("times", [(1.0, 5.0, 3.0), (1.0, 1.0)], ids=["earlier", "same-time"])
    def test_target_visit_not_after_the_inputs_rejected_naming_the_patient(self, vocab, times):
        rec = make_record(pid="q", times=times)   # built in code, so never validated
        with pytest.raises(ValueError, match="^patient q: visit times must be strictly increasing$"):
            build_instances([rec], "med", vocab)

    def test_unknown_task_rejected_naming_it(self, vocab):
        with pytest.raises(ValueError, match="^unknown task target 'surgery'; expected one of "):
            build_instances([make_record()], "surgery", vocab)
