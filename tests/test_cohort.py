import json
import re

import numpy as np
import pytest

from catnet.cohort import (
    PatientRecord,
    TaskSpec,
    Visit,
    VocabSpec,
    derive_intervals,
    extract_task_instances,
    load_dataset,
    load_vocab,
    save_dataset,
    split_dataset,
)


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

    def test_duplicate_patient_id_rejected_on_load(self, tmp_path, vocab):
        records = make_cohort(3)
        records[2].patient_id = "p0"
        data = tmp_path / "cohort.jsonl"
        save_dataset(records, vocab, str(data))
        with pytest.raises(ValueError, match=r"cohort\.jsonl:3: duplicate patient_id 'p0', "
                                             r"first on line 1$"):
            load_dataset(str(data))

    BAD_MED_SIZE = "vocab size for med must be a non-negative integer, got "

    @pytest.mark.parametrize("text, shown", [
        ('{"med":2.5,"diag":3,"lab":2,"proc":1}', BAD_MED_SIZE + "2.5"),
        ('{"med":"3","diag":3,"lab":2,"proc":1}', BAD_MED_SIZE + "'3'"),
        ('{"med":true,"diag":3,"lab":2,"proc":1}', BAD_MED_SIZE + "True"),
        ('{"med":4,"diag":3,"lab":2}', "'proc'"),
        ("[4, 3, 2, 1]", "list indices must be integers"),
        ('{"med":4,"diag":3,"lab":2,"proc":1,"vitals":5}', "unknown event type 'vitals'"),
    ], ids=["fraction", "string", "bool", "missing-key", "list", "unknown-type"])
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


class TestIntervals:
    def test_direct_subtraction(self):
        iv = derive_intervals(make_record(times=(0.0, 3.0, 10.0)))
        np.testing.assert_array_equal(iv.delta_prev_days, [0.0, 3.0, 7.0])
        np.testing.assert_array_equal(iv.delta_global_days, [0.0, 3.0, 10.0])

    def test_half_day_interval(self):
        iv = derive_intervals(make_record(times=(5.0, 5.5)))
        np.testing.assert_array_equal(iv.delta_prev_days, [0.0, 0.5])

    def test_global_gap_is_last_minus_first(self):
        rng = np.random.default_rng(11)
        times = np.cumsum(rng.uniform(0.5, 20, 6)) + 2.0
        iv = derive_intervals(make_record(times=tuple(times)))
        assert iv.delta_global_days[-1] == pytest.approx(times[-1] - times[0], abs=1e-12)

    def test_time_shift_invariance(self):
        times = (2.0, 9.0, 30.0)
        shifted = tuple(t + 1234.5 for t in times)
        a = derive_intervals(make_record(times=times))
        b = derive_intervals(make_record(times=shifted))
        np.testing.assert_allclose(a.delta_prev_days, b.delta_prev_days, atol=1e-9)
        np.testing.assert_allclose(a.delta_global_days, b.delta_global_days, atol=1e-9)

    def test_same_bits_as_diff_with_prepend(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 7, 40):
            for scale in (0.01, 1.0, 1e4):
                times = np.cumsum(rng.uniform(0.05, 30.0, n) * scale) + rng.uniform(0, 1e3)
                iv = derive_intervals(make_record(times=tuple(times.tolist())))
                assert iv.delta_prev_days.tobytes() == np.diff(times, prepend=times[0]).tobytes()
                assert iv.delta_global_days.tobytes() == (times - times[0]).tobytes()

    def test_bad_times_rejected(self):
        rec = make_record()
        rec.visits[1].time_days = rec.visits[0].time_days
        with pytest.raises(ValueError, match="strictly increasing"):
            derive_intervals(rec)


class TestTaskInstances:
    def test_medication_task_uses_final_visit_label(self, vocab):
        rec = make_record(times=(0.0, 5.0, 9.0))
        rec.visits[-1].codes["med"] = [1, 3]
        inputs, target = extract_task_instances(rec, TaskSpec("med"), vocab)
        assert inputs == rec.visits[:2]
        np.testing.assert_array_equal(target, [0.0, 1.0, 0.0, 1.0])

    def test_mortality_uses_all_visits(self, vocab):
        rec = make_record(mortality=True)
        task = TaskSpec("mortality", mode="task-unaware")
        inputs, target = extract_task_instances(rec, task, vocab)
        assert inputs == rec.visits
        np.testing.assert_array_equal(target, [1.0])

    def test_target_length_matches_vocab(self):
        vocab = VocabSpec(med=346, diag=1, lab=1, proc=1)
        rec = make_record()
        _, target = extract_task_instances(rec, TaskSpec("med"), vocab)
        assert target.shape == (346,)

    def test_mortality_forces_task_unaware(self):
        with pytest.raises(ValueError, match="task-unaware"):
            TaskSpec("mortality", mode="task-aware")

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown task target"):
            TaskSpec("surgery")
