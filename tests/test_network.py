import dataclasses
import re

import numpy as np
import pytest

from catnet import autodiff as ad
from catnet.cohort import EVENT_TYPES, PatientRecord, Visit, VocabSpec
from catnet.network import (COMPONENT_DROPS, EVENT_DROPS, CatnetModel, ModelConfig, TaskInstance,
                            build_instances, resolve_drops)
from gradcheck import central_difference, max_relative_error


def tiny_vocab():
    return VocabSpec(med=3, diag=2, lab=1, proc=1)


def tiny_records():
    """Four patients with 2, 2, 3 and 1 input visits and 1 to 6 codes per visit."""
    v = [
        Visit(0.0, {"med": [0, 2], "diag": [1], "lab": [0], "proc": []}),
        Visit(12.0, {"med": [1], "diag": [0], "lab": [], "proc": [0]}),
        Visit(40.0, {"med": [0], "diag": [], "lab": [0], "proc": []}),
    ]
    w = [
        Visit(3.0, {"med": [], "diag": [0, 1], "lab": [], "proc": []}),
        Visit(7.5, {"med": [2], "diag": [], "lab": [0], "proc": [0]}),
        Visit(90.0, {"med": [0, 1, 2], "diag": [1], "lab": [], "proc": []}),
    ]
    x = [
        Visit(1.0, {"med": [1, 2], "diag": [0, 1], "lab": [0], "proc": []}),
        Visit(5.0, {"med": [], "diag": [1], "lab": [], "proc": [0]}),
        Visit(6.5, {"med": [0, 1, 2], "diag": [0], "lab": [0], "proc": [0]}),
        Visit(30.0, {"med": [2], "diag": [], "lab": [], "proc": []}),
    ]
    y = [
        Visit(10.0, {"med": [1], "diag": [], "lab": [], "proc": []}),
        Visit(11.0, {"med": [0], "diag": [1], "lab": [], "proc": []}),
    ]
    return [
        PatientRecord("a", 64.0, "F", v, mortality=True),
        PatientRecord("b", 41.0, "M", w, mortality=False),
        PatientRecord("c", 77.0, "M", x, mortality=True),
        PatientRecord("d", 25.0, "F", y, mortality=False),
    ]


def tiny_config(**kw):
    defaults = dict(task="med", mode="task-aware", backbone="gru",
                    embed_dim=3, hidden_dim=4, demo_dim=2)
    defaults.update(kw)
    return ModelConfig(**defaults)


def build(config, seed=0):
    vocab = tiny_vocab()
    model = CatnetModel(config, vocab, np.random.default_rng(seed))
    instances = build_instances(tiny_records(), config.task, vocab)
    return model, instances


@pytest.mark.parametrize("mode,backbone", [
    ("task-aware", "gru"),
    ("task-unaware", "lstm"),
])
def test_end_to_end_gradients_match_finite_differences(mode, backbone):
    task = "med" if mode == "task-aware" else "mortality"
    model, instances = build(tiny_config(task=task, mode=mode, backbone=backbone), seed=3)
    params = model.parameters()

    def forward():
        return model.batch_loss(instances)

    with ad.Tape():
        ad.backward(forward())
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params.values()]
    numeric = central_difference(lambda: forward().item(),
                                 [p.data for p in params.values()])
    assert max_relative_error(analytic, numeric) <= 1e-4


def test_modes_identical_when_auxiliary_vocabs_empty():
    vocab = VocabSpec(med=4, diag=0, lab=0, proc=0)
    records = [
        PatientRecord("a", 30.0, "F",
                      [Visit(0.0, {"med": [0, 1], "diag": [], "lab": [], "proc": []}),
                       Visit(20.0, {"med": [2], "diag": [], "lab": [], "proc": []}),
                       Visit(33.0, {"med": [3], "diag": [], "lab": [], "proc": []})],
                      mortality=False),
    ]
    aware_cfg = tiny_config(task="med", mode="task-aware")
    unaware_cfg = tiny_config(task="med", mode="task-unaware")
    aware = CatnetModel(aware_cfg, vocab, np.random.default_rng(5))
    unaware = CatnetModel(unaware_cfg, vocab, np.random.default_rng(5))
    unaware.load_state_arrays(aware.state_arrays())

    instances = build_instances(records, "med", vocab)
    pa = aware.predict(instances)
    pu = unaware.predict(instances)
    assert np.max(np.abs(pa - pu)) <= 1e-12


def test_code_task_without_codes_rejected():
    vocab = VocabSpec(med=0, diag=3, lab=1, proc=1)
    with pytest.raises(ValueError, match="task 'med' has no codes in the vocabulary"):
        CatnetModel(tiny_config(), vocab, np.random.default_rng(0))


@pytest.mark.parametrize("mode,backbone,nodes", [
    ("task-aware", "gru", 36),
    ("task-unaware", "lstm", 34),
])
def test_training_forward_tape_nodes(mode, backbone, nodes):
    model, instances = build(tiny_config(mode=mode, backbone=backbone), seed=3)
    with ad.Tape() as tape:
        model.batch_loss(instances, train=True)
    ops = [backward_fn.__qualname__.split(".")[0] for _, backward_fn in tape._nodes]
    assert len(ops) == nodes
    assert ops.count("concat") == 2


@pytest.mark.parametrize("field, change, shown", [
    ("visits", lambda v: [], "an instance needs at least one visit"),
    ("demo", lambda d: d[:2], r"demo of shape \(2,\), expected \(3,\)"),
    ("demo", lambda d: np.where(np.arange(3) == 1, np.nan, d), "demo must be finite"),
    ("target", lambda t: np.where(np.arange(3) == 0, 0.5, t), "target entries must be 0 or 1"),
    ("target", lambda t: np.where(np.arange(3) == 2, np.nan, t), "target entries must be 0 or 1"),
], ids=["no-visits", "demo-short", "demo-nan", "target-half", "target-nan"])
def test_instance_arrays_checked_against_its_visits(field, change, shown):
    _, instances = build(tiny_config())
    patient_c = instances[2]                         # 3 input visits
    with pytest.raises(ValueError, match=f"^patient c: {shown}"):
        dataclasses.replace(patient_c, **{field: change(getattr(patient_c, field))})


def test_visit_time_that_is_not_a_number_rejected_naming_the_patient():
    _, instances = build(tiny_config())
    with pytest.raises(ValueError, match="^patient c: time_days must be a number, got '3'$"):
        dataclasses.replace(instances[2], visits=[Visit(1.0, {"med": [1]}), Visit("3", {})])


@pytest.mark.parametrize("codes, shown", [
    ({"med": [3]}, "med code 3 outside vocab of size 3"),
    ({"diag": [2]}, "diag code 2 outside vocab of size 2"),
    ({"med": [-1]}, "med code -1 outside vocab of size 3"),
    ({"med": [40]}, "med code 40 outside vocab of size 3"),
    ({"diag": [2 ** 63]}, f"diag code {2 ** 63} outside vocab of size 2"),
    ({"diag": [-10 ** 30]}, f"diag code {-10 ** 30} outside vocab of size 2"),
], ids=["med-reads-diag", "diag-reads-lab", "med-reads-padding", "med-past-the-table",
        "diag-past-any-index", "diag-below-any-index"])
def test_codes_outside_their_vocab_rejected_naming_the_patient(codes, shown):
    model, instances = build(tiny_config())
    bad = dataclasses.replace(instances[2], visits=[Visit(1.0, {"med": [0]}), Visit(2.0, codes)])
    with pytest.raises(ValueError, match=f"^patient c: {shown}$"):
        model.predict([instances[0], bad])


@pytest.mark.parametrize("visit, shown", [
    (Visit(2.0, {"med": [1.7]}), "non-integer med code 1.7"),
    (Visit(2.0, {"med": ["1"]}), "non-integer med code '1'"),
    (Visit(2.0, {"med": [1, 1]}), "med codes must be sorted and duplicate-free"),
    (Visit(2.0, {"med": [2, 1]}), "med codes must be sorted and duplicate-free"),
    (Visit(2.0, {"medd": [1]}), "unknown event type 'medd' in visit codes"),
    (Visit(True, {"med": [1]}), "time_days must be a number, got True"),
    (Visit(-2.0, {"med": [1]}), "visit time must be finite and >= 0"),
    (Visit(2.0, {"med": (1,)}), r"med codes must be a list, got \(1,\)"),
    (Visit(2.0, [1, 2]), r"visit codes must be an object, got \[1, 2\]"),
], ids=["float-code", "string-code", "duplicate-code", "unsorted-codes", "misspelt-type",
        "bool-time", "negative-time", "tuple-codes", "codes-not-a-dict"])
def test_instance_visits_keep_the_loaders_contract(visit, shown):
    _, instances = build(tiny_config())
    with pytest.raises(ValueError, match=f"^patient c: {shown}"):
        dataclasses.replace(instances[2], visits=[Visit(1.0, {"med": [0]}), visit])


def test_instance_gaps_derived_from_its_visits():
    _, instances = build(tiny_config())
    patient_c = instances[2]                         # input visits at days 1, 5 and 6.5
    with pytest.raises(ValueError, match="^patient c: visit times must be strictly increasing$"):
        dataclasses.replace(patient_c, visits=patient_c.visits[::-1])
    shorter = dataclasses.replace(patient_c, visits=patient_c.visits[1:])
    assert shorter.delta_prev.tolist() == [0.0, 1.5]
    assert shorter.delta_global.tolist() == [0.0, 1.5]
    with pytest.raises(TypeError, match="delta_prev"):
        TaskInstance("c", shorter.visits, shorter.demo, shorter.target, delta_prev=[0.0, 1.0])


@pytest.mark.parametrize("field", ["visits", "delta_prev", "target"])
def test_instance_fields_cannot_be_reassigned(field):
    _, instances = build(tiny_config())
    patient_c = instances[2]                         # input visits at days 1, 5 and 6.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(patient_c, field, getattr(patient_c, field)[::-1])
    assert [v.time_days for v in patient_c.visits] == [1.0, 5.0, 6.5]
    assert patient_c.delta_prev.tolist() == [0.0, 4.0, 1.5]


def test_instance_visits_and_gaps_cannot_be_edited_in_place():
    model, instances = build(tiny_config())
    patient_c = instances[2]                         # input visits at days 1, 5 and 6.5
    before = model.predict([patient_c])
    with pytest.raises(AttributeError):
        patient_c.visits.reverse()
    for gaps in (patient_c.delta_prev, patient_c.delta_global):
        with pytest.raises(ValueError, match="read-only"):
            gaps[1] = -50.0
    assert [v.time_days for v in patient_c.visits] == [1.0, 5.0, 6.5]
    assert patient_c.delta_prev.tolist() == [0.0, 4.0, 1.5]
    assert patient_c.delta_global.tolist() == [0.0, 4.0, 5.5]
    np.testing.assert_array_equal(model.predict([patient_c]), before)


def test_target_of_wrong_width_rejected_by_batch_loss():
    model, instances = build(tiny_config())
    short = dataclasses.replace(instances[1], target=instances[1].target[:2])
    with pytest.raises(ValueError, match=r"^patient b: target of shape \(2,\), expected \(3,\)"):
        model.batch_loss([instances[0], short])


def test_non_finite_state_rejected_by_name():
    model, instances = build(tiny_config(), seed=2)
    before = model.predict(instances)
    state = model.state_arrays()
    state["emb"] = np.zeros_like(state["emb"])   # would load, but must not
    state["out_b"] = np.full_like(state["out_b"], np.nan)
    with pytest.raises(ValueError, match="^out_b: non-finite values$"):
        model.load_state_arrays(state)
    np.testing.assert_array_equal(model.predict(instances), before)


@pytest.mark.parametrize("name", ["dt_b1", "gt_w2", "rnn_w"])
def test_state_of_wrong_shape_rejected_by_name(name):
    model, instances = build(tiny_config(), seed=2)
    before = model.predict(instances)
    state = model.state_arrays()
    expected = state[name].shape
    state[name] = state[name][..., :1]   # a length-1 axis would broadcast in the tape ops
    with pytest.raises(ValueError, match=re.escape(f"{name}: shape {state[name].shape} != "
                                                   f"expected {expected}")):
        model.load_state_arrays(state)
    np.testing.assert_array_equal(model.predict(instances), before)


def test_forward_deterministic_given_seed():
    a, instances = build(tiny_config(), seed=11)
    b, _ = build(tiny_config(), seed=11)
    np.testing.assert_array_equal(a.predict(instances), b.predict(instances))


def test_state_round_trip():
    model, instances = build(tiny_config(), seed=2)
    other, _ = build(tiny_config(), seed=99)
    assert not np.allclose(model.predict(instances), other.predict(instances))
    other.load_state_arrays(model.state_arrays())
    np.testing.assert_array_equal(model.predict(instances), other.predict(instances))


def test_dropout_only_affects_training_mode():
    model, instances = build(tiny_config(), seed=4)
    eval_a = model.predict(instances)
    rng = np.random.default_rng(0)
    with ad.Tape():
        loss_a = model.batch_loss(instances, train=True, dropout=0.5, rng=rng)
    rng = np.random.default_rng(1)
    with ad.Tape():
        loss_b = model.batch_loss(instances, train=True, dropout=0.5, rng=rng)
    assert loss_a.item() != loss_b.item()
    np.testing.assert_array_equal(model.predict(instances), eval_a)


def test_dropout_in_training_requires_an_rng():
    model, instances = build(tiny_config(), seed=4)
    with pytest.raises(ValueError, match="rng"):
        model.forward_batch(instances[:1], train=True, dropout=0.5)
    with ad.Tape():
        a = model.batch_loss(instances, train=True, dropout=0.5, rng=np.random.default_rng(3))
        b = model.batch_loss(instances, train=True, dropout=0.5, rng=np.random.default_rng(3))
    assert a.item() == b.item()


@pytest.mark.parametrize("dropout", [1.0, -0.5, 1.5, float("nan")])
def test_dropout_outside_unit_interval_rejected(dropout):
    model, instances = build(tiny_config(), seed=4)
    with pytest.raises(ValueError, match=rf"dropout must be in \[0, 1\), got {dropout}$"):
        model.forward_batch(instances, train=True, dropout=dropout, rng=np.random.default_rng(0))


@pytest.mark.parametrize("dropout", ["0.5", None, False], ids=["string", "none", "bool"])
def test_dropout_that_is_not_a_number_rejected(dropout):
    model, instances = build(tiny_config(), seed=4)
    with pytest.raises(ValueError, match=rf"^dropout must be in \[0, 1\), got {dropout!r}$"):
        model.forward_batch(instances, train=True, dropout=dropout, rng=np.random.default_rng(0))


def test_demo_that_is_not_numbers_rejected_naming_the_patient():
    _, instances = build(tiny_config())
    with pytest.raises(ValueError, match="^patient c: demo must be finite numbers, got "):
        dataclasses.replace(instances[2], demo=np.array(["0.7", "0", "1"]))


@pytest.mark.parametrize("value", ["x", [[1.0], [2.0, 3.0]], {"a": 1.0}],
                         ids=["string", "ragged", "dict"])
def test_state_that_is_not_numbers_rejected_by_name(value):
    model, instances = build(tiny_config(), seed=2)
    before = model.predict(instances)
    state = model.state_arrays()
    state["emb"] = np.zeros_like(state["emb"])   # would load, but must not
    state["out_b"] = value
    with pytest.raises(ValueError, match="^out_b: not an array of numbers: "):
        model.load_state_arrays(state)
    np.testing.assert_array_equal(model.predict(instances), before)


def test_empty_batch_rejected():
    model, _ = build(tiny_config())
    with pytest.raises(ValueError, match="forward_batch: empty batch"):
        model.forward_batch([])
    with pytest.raises(ValueError, match="forward_batch: empty batch"):
        model.predict([])


def test_forward_batch_reports_each_visits_attention():
    model, instances = build(tiny_config(), seed=5)
    probs, attention = model.forward_batch([instances[2]])
    assert probs.shape == (1, model.n_targets)
    type_ids = attention.tokens.type_ids
    assert len(type_ids) == len(attention.queries) == len(instances[2].visits)
    for v, row in enumerate(attention.queries):
        # task-aware med: the med tokens and the interval token query, in token order
        queries = np.flatnonzero(np.isin(type_ids[v], [0, len(EVENT_TYPES)]))
        assert row.tolist() == queries.tolist() + [-1] * (len(row) - len(queries))
        weights = attention.query_weights[v, :len(queries)]
        assert np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12)
        assert not weights[:, type_ids[v] < 0].any()
    model, instances = build(tiny_config(drops=("cross",)), seed=5)
    _, attention = model.forward_batch([instances[2]])
    assert attention is None


@pytest.mark.parametrize("field, value", [
    ("embed_dim", 0), ("embed_dim", 2.5), ("embed_dim", True), ("hidden_dim", -1),
    ("hidden_dim", 4.0), ("demo_dim", 0), ("demo_dim", "8"), ("demo_dim", -2),
], ids=["embed-zero", "embed-float", "embed-bool", "hidden-negative", "hidden-float",
        "demo-zero", "demo-str", "demo-negative"])
def test_model_sizes_must_be_positive_integers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a positive integer, got "
                                         f"{re.escape(repr(value))}$"):
        tiny_config(**{field: value})


@pytest.mark.parametrize("change, shown", [
    ({"task": "surgery"}, "unknown task target 'surgery'"),
    ({"mode": "aware"}, "unknown attention mode 'aware'"),
    ({"backbone": "rnn"}, "unsupported backbone 'rnn'"),
    ({"task": "mortality"}, "mortality prediction has no primary event type"),
], ids=["unknown-task", "unknown-mode", "unknown-backbone", "task-aware-mortality"])
def test_model_config_rejects_unknown_mode_backbone_and_primary(change, shown):
    with pytest.raises(ValueError, match=f"^{shown}"):
        tiny_config(**change)


def test_numpy_integer_model_sizes_accepted():
    model, instances = build(tiny_config(hidden_dim=np.int64(4), embed_dim=np.int32(3)))
    assert model.predict(instances).shape == (4, 3)


class TestBatchContracts:
    """Exactness of the batched forward on patients of unequal visit and code counts."""

    configs = [tiny_config(), tiny_config(mode="task-unaware", backbone="lstm"),
               tiny_config(backbone="lstm"), tiny_config(drops=("cross", "time", "visit")),
               tiny_config(drops=("global",)), tiny_config(drops=("visit", "global"))]
    ids = ["aware-gru", "unaware-lstm", "aware-lstm", "drops", "no-gate", "no-visit-no-gate"]

    @pytest.mark.parametrize("cfg", configs, ids=ids)
    def test_predict_rows_equal_forward_instance_bitwise(self, cfg):
        model, instances = build(cfg, seed=12)
        assert len({len(inst.visits) for inst in instances}) >= 3
        for row, inst in zip(model.predict(instances), instances):
            np.testing.assert_array_equal(row, model.forward_instance(inst).data)

    def test_patient_unchanged_when_longer_patients_join(self):
        for cfg in self.configs:
            model, instances = build(cfg, seed=13)
            short = instances[3]
            alone = model.predict([short])[0]
            for batch in (instances, instances[::-1], [short, instances[2], short]):
                rows = model.predict(batch)
                for i, inst in enumerate(batch):
                    if inst is short:
                        np.testing.assert_array_equal(rows[i], alone)

    def test_within_type_permutation_equivariance_through_model(self):
        # diag tokens are keys only in task-aware med, so relabelling diag codes
        # moves no slot of the visit vector and must change no output bit.  Tokens of
        # a type are ordered by their embedding bytes, which the relabelling keeps, so
        # the reported attention keeps every bit and position; only the diag codes change.
        # The generated visits carry up to six diag keys
        cfg = tiny_config()
        rng = np.random.default_rng(14)
        generated = [PatientRecord(f"p{i}", 50.0, "F", [
            Visit(10.0 * t, {"med": [t % 3], "lab": [0], "proc": [],
                             "diag": sorted(rng.choice(6, rng.integers(2, 7), replace=False).tolist())})
            for t in range(rng.integers(3, 6))], mortality=False) for i in range(6)]
        cases = [(tiny_vocab(), tiny_records(), [np.array([1, 0])]),
                 (VocabSpec(med=3, diag=6, lab=1, proc=1), generated,
                  [rng.permutation(6) for _ in range(3)])]
        for vocab, records, perms in cases:
            model = CatnetModel(cfg, vocab, np.random.default_rng(14))
            instances = build_instances(records, cfg.task, vocab)
            expected, expected_att = model.predict(instances), model.forward_batch(instances)[1]
            diag_tokens = expected_att.tokens.type_ids == EVENT_TYPES.index("diag")
            for perm in perms:
                permuted = CatnetModel(cfg, vocab, np.random.default_rng(0))
                state = model.state_arrays()
                diag = slice(*vocab.offsets()[1:3])
                state["emb"][diag] = state["emb"][diag][np.argsort(perm)]
                permuted.load_state_arrays(state)
                relabelled = [
                    PatientRecord(r.patient_id, r.age_years, r.sex,
                                  [Visit(v.time_days, {**v.codes, "diag": sorted(int(perm[c])
                                                                                for c in v.codes["diag"])})
                                   for v in r.visits], r.mortality)
                    for r in records]
                relabelled = build_instances(relabelled, cfg.task, vocab)
                np.testing.assert_array_equal(expected, permuted.predict(relabelled))
                perm_att = permuted.forward_batch(relabelled)[1]
                assert perm_att.query_weights.tobytes() == expected_att.query_weights.tobytes()
                assert perm_att.queries.tobytes() == expected_att.queries.tobytes()
                assert perm_att.tokens.type_ids.tobytes() == expected_att.tokens.type_ids.tobytes()
                codes = expected_att.tokens.codes.copy()
                codes[diag_tokens] = perm[codes[diag_tokens]]
                np.testing.assert_array_equal(perm_att.tokens.codes, codes)

    def test_absent_code_neutrality_through_model(self):
        cfg = tiny_config()
        model, instances = build(cfg, seed=15)
        bigger = VocabSpec(med=3, diag=4, lab=2, proc=1)
        grown = CatnetModel(cfg, bigger, np.random.default_rng(0))
        state = model.state_arrays()
        offsets = tiny_vocab().offsets()       # two diag rows and one lab row appended
        state["emb"] = np.insert(state["emb"], [offsets[2], offsets[2], offsets[3]],
                                 [[9.0] * 3, [9.0] * 3, [-9.0] * 3], axis=0)
        grown.load_state_arrays(state)
        np.testing.assert_array_equal(
            model.predict(instances),
            grown.predict(build_instances(tiny_records(), cfg.task, bigger)))


class TestAblationVariants:
    def test_unknown_drop_rejected(self):
        with pytest.raises(ValueError, match="unknown ablation drop"):
            resolve_drops(("spacetime",), "med")

    def test_dropping_primary_type_rejected(self):
        with pytest.raises(ValueError, match="own event type"):
            ModelConfig(task="diag", drops=("diag",))

    @pytest.mark.parametrize("drops", [("aux",), ("med", "diag", "lab", "proc")])
    def test_drops_that_hide_every_event_type_rejected(self, drops):
        with pytest.raises(ValueError, match=re.escape(
                f"drops {drops} leave task 'mortality' no visible event type")):
            tiny_config(task="mortality", mode="task-unaware", drops=drops)

    @pytest.mark.parametrize("drops", ["cross", None, {"cross"}])
    def test_drops_not_given_as_a_tuple_or_list_rejected(self, drops):
        with pytest.raises(ValueError, match=re.escape(
                f"ablation drops must be a tuple or list of names, got {drops!r}")):
            tiny_config(drops=drops)

    def test_without_cross_attention_uses_raw_embeddings(self):
        base, instances = build(tiny_config(), seed=6)
        variant, _ = build(tiny_config(drops=("cross",)), seed=6)
        variant.load_state_arrays(base.state_arrays())
        assert not np.allclose(base.predict(instances), variant.predict(instances))

    @pytest.mark.parametrize("task", ["med", "diag"])
    def test_every_variant_has_the_full_models_parameters(self, task):
        full = build(tiny_config(task=task), seed=4)[0].state_arrays()
        for name in COMPONENT_DROPS + EVENT_DROPS:
            if name == task:
                continue   # rejected; the other task drops it
            state = build(tiny_config(task=task, drops=(name,)), seed=4)[0].state_arrays()
            assert {k: a.shape for k, a in state.items()} == {k: a.shape for k, a in full.items()}
            assert all(state[k].tobytes() == full[k].tobytes() for k in full), name  # same draws

    def test_without_time_every_gap_embeds_as_a_first_visit(self):
        full, instances = build(tiny_config(), seed=6)
        twin, _ = build(tiny_config(drops=("time",)), seed=9)
        twin.load_state_arrays(full.state_arrays())
        one = [inst for inst in instances if len(inst.visits) == 1]
        many = [inst for inst in instances if len(inst.visits) > 1]
        assert len(one) == 1 and len(many) == 3
        assert twin.predict(one).tobytes() == full.predict(one).tobytes()
        for a, b in zip(twin.predict(many), full.predict(many)):
            assert not np.array_equal(a, b)

    def test_without_time_ignores_gap_sizes(self):
        cfg = tiny_config(drops=("time",))
        vocab = tiny_vocab()
        model = CatnetModel(cfg, vocab, np.random.default_rng(7))
        records = tiny_records()
        stretched = [
            PatientRecord(r.patient_id, r.age_years, r.sex,
                          [Visit(v.time_days * 3.0, dict(v.codes)) for v in r.visits],
                          r.mortality)
            for r in records
        ]
        task = cfg.task
        a = model.predict(build_instances(records, task, vocab))
        b = model.predict(build_instances(stretched, task, vocab))
        # interval token is constant, but the global gate still sees real times
        drop_both = tiny_config(drops=("time", "global"))
        model2 = CatnetModel(drop_both, vocab, np.random.default_rng(7))
        a2 = model2.predict(build_instances(records, task, vocab))
        b2 = model2.predict(build_instances(stretched, task, vocab))
        np.testing.assert_array_equal(a2, b2)
        assert not np.array_equal(a, b)

    def test_dropped_event_type_is_invisible(self):
        cfg = tiny_config(drops=("diag",))
        vocab = tiny_vocab()
        model = CatnetModel(cfg, vocab, np.random.default_rng(8))
        records = tiny_records()
        blanked = [
            PatientRecord(r.patient_id, r.age_years, r.sex,
                          [Visit(v.time_days, {**v.codes, "diag": []}) for v in r.visits],
                          r.mortality)
            for r in records
        ]
        task = cfg.task
        np.testing.assert_array_equal(
            model.predict(build_instances(records, task, vocab)),
            model.predict(build_instances(blanked, task, vocab)))

    @pytest.mark.parametrize("task", ["diag", "mortality"])
    def test_dropped_med_is_invisible_to_other_tasks(self, task):
        mode = "task-aware" if task == "diag" else "task-unaware"
        cfg = tiny_config(task=task, mode=mode, drops=("med",))
        vocab = tiny_vocab()
        model = CatnetModel(cfg, vocab, np.random.default_rng(8))
        records = tiny_records()
        blanked = [
            PatientRecord(r.patient_id, r.age_years, r.sex,
                          [Visit(v.time_days, {**v.codes, "med": []}) for v in r.visits],
                          r.mortality)
            for r in records
        ]
        np.testing.assert_array_equal(
            model.predict(build_instances(records, task, vocab)),
            model.predict(build_instances(blanked, task, vocab)))

    def test_aux_drop_hides_every_non_primary_type(self):
        cfg = tiny_config(drops=("aux",))
        assert cfg.dropped_types() == {"diag", "lab", "proc"}

    @pytest.mark.parametrize("drop", ["visit", "global"])
    def test_component_drops_change_predictions(self, drop):
        base, instances = build(tiny_config(), seed=9)
        variant, _ = build(tiny_config(drops=(drop,)), seed=9)
        variant.load_state_arrays(base.state_arrays())
        assert not np.allclose(base.predict(instances), variant.predict(instances))

    @pytest.mark.parametrize("drops", [("cross",), ("visit",), ("global",), ("time",),
                                       ("cross", "time"), ("diag",), ("lab",), ("proc",),
                                       ("aux",)])
    def test_variant_gradients_match_finite_differences(self, drops):
        model, instances = build(tiny_config(drops=drops), seed=10)
        params = model.parameters()
        with ad.Tape():
            ad.backward(model.batch_loss(instances))
        analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                    for p in params.values()]
        numeric = central_difference(lambda: model.batch_loss(instances).item(),
                                     [p.data for p in params.values()], step=3e-5)
        assert max_relative_error(analytic, numeric) <= 1e-4
