import math

import numpy as np
import pytest

from catnet import autodiff as ad
from catnet.attention import (
    attend as attend_batch,
    build_token_set as build_token_batch,
    raw_slot_layout as raw_slot_batch,
    slot_bases,
)
from catnet.cohort import EVENT_TYPES, Visit, VocabSpec
from catnet.time_kernel import TimeKernelParams, time_embed


def init_table(vocab, embed_dim, rng):
    """The (vocab.total(), E) embedding table of every code in flat order."""
    return ad.parameter(rng.uniform(-0.1, 0.1, (vocab.total(), embed_dim)))


def block(embeddings, vocab, etype):
    """The rows of one event type's codes: a view into the table."""
    offsets, t = vocab.offsets(), EVENT_TYPES.index(etype)
    return embeddings.data[offsets[t]:offsets[t + 1]]


def build_token_set(visit, embeddings, interval, vocab):
    """Tokens of a one-visit batch; ``interval`` is the visit's (E,) interval token."""
    return build_token_batch([visit], embeddings, ad.reshape(interval, (1, -1)), vocab)


def attend(tokens, mode, primary=None, vocab=None):
    """The one visit's vector (a 1-D tensor) and its ``(Q, K)`` attention weights."""
    vectors, attention = attend_batch(tokens, slot_bases(mode, primary, vocab))
    return ad.take_row(vectors, 0), attention.query_weights[0]


def raw_slot_layout(tokens, mode, primary, vocab):
    return ad.take_row(raw_slot_batch(tokens, slot_bases(mode, primary, vocab)), 0)


def interval_of(tokens):
    """The interval token of a one-visit batch: its last present token."""
    return tokens.values.data[0, tokens.n_tokens - 1]


def brute_force(embs, query_ids):
    """Independent softmax/weighted-sum evaluation on plain arrays."""
    K = np.stack(embs)
    n = K.shape[1]
    outs, weights = {}, []
    for qi in query_ids:
        q = embs[qi]
        logits = K @ q / math.sqrt(n)
        e = np.exp(logits - logits.max())
        w = e / e.sum()
        outs[qi] = q + w @ K
        weights.append(w)
    return outs, np.stack(weights)


def make_case(vocab, codes, embed_dim=4, seed=0, interval=None):
    rng = np.random.default_rng(seed)
    embeddings = init_table(vocab, embed_dim, rng)
    visit = Visit(time_days=0.0, codes=codes)
    if interval is None:
        interval = ad.tensor(rng.uniform(-0.1, 0.1, embed_dim))
    return embeddings, build_token_set(visit, embeddings, interval, vocab)


def reference_tokens(visit, embeddings, vocab, interval, types):
    """(type id, code, row) of one visit's tokens: codes by (type, embedding bytes, list
    position), then the interval token with code 0."""
    keyed = sorted((tid, block(embeddings, vocab, etype)[c].tobytes(), pos, c)
                   for tid, etype in enumerate(EVENT_TYPES) if etype in types
                   for pos, c in enumerate(visit.codes_for(etype)))
    return ([(tid, c, block(embeddings, vocab, EVENT_TYPES[tid])[c]) for tid, _, _, c in keyed]
            + [(len(EVENT_TYPES), 0, interval)])


def test_token_layout_matches_per_visit_reference():
    vocab = VocabSpec(med=6, diag=3, lab=4, proc=2)
    rng = np.random.default_rng(20)
    embeddings = init_table(vocab, 4, rng)
    med = block(embeddings, vocab, "med")
    med[3] = med[1]                                  # two codes of one type, equal embeddings
    intervals = rng.uniform(-0.1, 0.1, (5, 4))
    visits = [Visit(0.0, {"med": [0, 1, 3, 5], "diag": [2], "lab": [0, 2], "proc": [1]}),
              Visit(1.0, {"med": [], "diag": [], "lab": [], "proc": []}),
              Visit(2.0, {"med": [1, 3], "diag": [], "lab": [3], "proc": []}),
              Visit(3.0, {"med": [], "diag": [0, 1], "lab": [], "proc": [0]}),
              Visit(4.0, {"med": [2, 4], "diag": [], "lab": [1, 2, 3], "proc": [0, 1]})]
    for types in (EVENT_TYPES, ("med", "lab")):
        tokens = build_token_batch(visits, embeddings, ad.tensor(intervals), vocab, types)
        expected = [reference_tokens(visit, embeddings, vocab, intervals[v], types)
                    for v, visit in enumerate(visits)]
        width = max(len(rows) for rows in expected)
        assert tokens.type_ids.shape == tokens.codes.shape == (len(visits), width)
        assert tokens.values.shape == (len(visits), width, 4)
        assert tokens.n_tokens == sum(len(rows) for rows in expected)
        for v, rows in enumerate(expected):
            n = len(rows)
            assert tokens.type_ids[v, :n].tolist() == [tid for tid, _, _ in rows]
            assert tokens.codes[v, :n].tolist() == [c for _, c, _ in rows]
            np.testing.assert_array_equal(tokens.values.data[v, :n], np.stack([r for *_, r in rows]))
            assert (tokens.type_ids[v, n:] == -1).all() and (tokens.codes[v, n:] == 0).all()
            assert tokens.values.data[v, n:].tobytes() == bytes(8 * 4 * (width - n))
    # the reference is not code-list order: bytes decide, list position breaks the tie
    assert [c for tid, c, _ in expected[0] if tid == 0] == [1, 3, 5, 0]


def test_identical_embeddings_attend_uniformly():
    vocab = VocabSpec(med=1, diag=0, lab=0, proc=0)
    embeddings = init_table(vocab, 3, np.random.default_rng(0))
    shared = block(embeddings, vocab, "med")[0].copy()
    visit = Visit(time_days=0.0, codes={"med": [0], "diag": [], "lab": [], "proc": []})
    tokens = build_token_set(visit, embeddings, ad.tensor(shared), vocab)
    _, weights = attend(tokens, "task-unaware", vocab=vocab)
    np.testing.assert_allclose(weights, 0.5, atol=1e-15)


def test_modes_coincide_without_auxiliary_vocab():
    vocab = VocabSpec(med=5, diag=0, lab=0, proc=0)
    codes = {"med": [0, 2, 4], "diag": [], "lab": [], "proc": []}
    embeddings, tokens = make_case(vocab, codes, seed=5)
    aware, weights_a = attend(tokens, "task-aware", primary="med", vocab=vocab)
    unaware, weights_u = attend(tokens, "task-unaware", vocab=vocab)
    np.testing.assert_array_equal(aware.data, unaware.data)
    np.testing.assert_array_equal(weights_a, weights_u)


def test_three_tokens_match_brute_force():
    vocab = VocabSpec(med=2, diag=2, lab=0, proc=0)
    embed_dim = 4
    embeddings = ad.parameter([[0.3, -0.1, 0.5, 0.2], [0.0, 0.0, 0.0, 0.0],     # med
                               [0.1, 0.1, -0.4, 0.3], [-0.2, 0.6, 0.0, 0.1]])   # diag
    visit = Visit(time_days=0.0, codes={"med": [0], "diag": [1], "lab": [], "proc": []})
    interval = ad.tensor([0.05, -0.3, 0.2, 0.4])
    tokens = build_token_set(visit, embeddings, interval, vocab)

    o_t, weights = attend(tokens, "task-unaware", vocab=vocab)
    embs = [embeddings.data[0], embeddings.data[2 + 1], interval.data]
    outs, expected = brute_force(embs, [0, 1, 2])

    np.testing.assert_allclose(weights, expected, rtol=1e-12)
    slots = o_t.data.reshape(-1, embed_dim)
    np.testing.assert_allclose(slots[0], outs[0], rtol=1e-12)       # med 0
    np.testing.assert_allclose(slots[2 + 1], outs[1], rtol=1e-12)   # diag 1
    np.testing.assert_allclose(slots[4], outs[2], rtol=1e-12)       # interval
    np.testing.assert_array_equal(slots[1], 0.0)
    np.testing.assert_array_equal(slots[2], 0.0)


def test_rows_stochastic_and_layout_widths():
    rng = np.random.default_rng(42)
    vocab = VocabSpec(med=6, diag=5, lab=4, proc=3)
    for trial in range(100):
        codes = {etype: sorted(rng.choice(vocab.size(etype),
                                          size=rng.integers(0, vocab.size(etype)),
                                          replace=False).tolist())
                 for etype in ("med", "diag", "lab", "proc")}
        embeddings, tokens = make_case(vocab, codes, seed=trial)
        mode = "task-aware" if trial % 2 == 0 else "task-unaware"
        o_t, weights = attend(tokens, mode, primary="med", vocab=vocab)
        assert o_t.shape == (((vocab.size("med") if mode == "task-aware" else vocab.total()) + 1) * 4,)
        assert np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-9)


def test_absent_code_neutrality_is_bitwise():
    vocab = VocabSpec(med=3, diag=2, lab=0, proc=0)
    codes = {"med": [0, 2], "diag": [1], "lab": [], "proc": []}
    embeddings, tokens = make_case(vocab, codes, seed=9)
    base, base_weights = attend(tokens, "task-unaware", vocab=vocab)

    bigger = VocabSpec(med=4, diag=2, lab=0, proc=0)
    extended = ad.parameter(np.insert(embeddings.data, vocab.offsets()[1], 9.0, axis=0))
    visit = Visit(time_days=0.0, codes=codes)
    tokens2 = build_token_set(visit, extended, ad.tensor(interval_of(tokens)), bigger)
    grown, grown_weights = attend(tokens2, "task-unaware", vocab=bigger)

    assert grown_weights.tobytes() == base_weights.tobytes()
    base_slots = base.data.reshape(-1, 4)
    grown_slots = grown.data.reshape(-1, 4)
    # slots: med block grows by one (all-zero) row; others shift by one
    np.testing.assert_array_equal(base_slots[0:3], grown_slots[0:3])
    np.testing.assert_array_equal(grown_slots[3], 0.0)
    np.testing.assert_array_equal(base_slots[3:], grown_slots[4:])


def test_within_type_permutation_equivariance_exact():
    rng = np.random.default_rng(31)
    vocab = VocabSpec(med=3, diag=4, lab=0, proc=0)
    for trial in range(100):
        perm = rng.permutation(vocab.size("diag"))
        diag_codes = sorted(rng.choice(4, size=rng.integers(1, 4), replace=False).tolist())
        codes = {"med": [0, 1], "diag": diag_codes, "lab": [], "proc": []}
        embeddings, tokens = make_case(vocab, codes, seed=1000 + trial)

        permuted_emb = ad.parameter(embeddings.data.copy())
        block(permuted_emb, vocab, "diag")[perm] = block(embeddings, vocab, "diag")
        permuted_codes = {**codes, "diag": sorted(int(perm[c]) for c in diag_codes)}
        tokens_p = build_token_set(Visit(time_days=0.0, codes=permuted_codes),
                                   permuted_emb, ad.tensor(interval_of(tokens)), vocab)

        base_o, base_att = attend_batch(tokens, slot_bases("task-unaware", None, vocab))
        perm_o, perm_att = attend_batch(tokens_p, slot_bases("task-unaware", None, vocab))

        # tokens within a type keep their byte order, so every position and bit is kept
        assert perm_att.query_weights.tobytes() == base_att.query_weights.tobytes()
        assert perm_att.queries.tobytes() == base_att.queries.tobytes()
        assert tokens_p.type_ids.tobytes() == tokens.type_ids.tobytes()
        diag = tokens.type_ids == EVENT_TYPES.index("diag")
        np.testing.assert_array_equal(tokens_p.codes, np.where(diag, perm[tokens.codes * diag],
                                                               tokens.codes))

        base_slots = base_o.data.reshape(-1, 4)
        perm_slots = perm_o.data.reshape(-1, 4)
        np.testing.assert_array_equal(base_slots[:3], perm_slots[:3])  # med block
        for c in range(4):
            np.testing.assert_array_equal(base_slots[3 + c], perm_slots[3 + perm[c]])
        np.testing.assert_array_equal(base_slots[-1], perm_slots[-1])  # interval


def test_within_type_permutation_equivariance_batched_task_aware():
    # visits of unequal length in one batch; med queries are gathered out of the tokens
    rng = np.random.default_rng(32)
    vocab = VocabSpec(med=6, diag=5, lab=4, proc=3)
    for trial in range(20):
        embeddings = init_table(vocab, 4, rng)
        perms = {etype: rng.permutation(vocab.size(etype)) for etype in EVENT_TYPES}
        permuted_emb = ad.parameter(np.concatenate(
            [block(embeddings, vocab, etype)[np.argsort(perms[etype])] for etype in EVENT_TYPES]))
        visits = [Visit(time_days=0.0, codes={etype: sorted(rng.choice(
            vocab.size(etype), size=rng.integers(0, vocab.size(etype) + 1), replace=False).tolist())
            for etype in EVENT_TYPES}) for _ in range(5)]
        relabelled = [Visit(time_days=0.0, codes={etype: sorted(int(perms[etype][c])
                                                                for c in visit.codes[etype])
                                                  for etype in EVENT_TYPES}) for visit in visits]
        intervals = ad.tensor(rng.uniform(-0.1, 0.1, (len(visits), 4)))
        bases = slot_bases("task-aware", "med", vocab)
        base, base_att = attend_batch(build_token_batch(visits, embeddings, intervals, vocab),
                                      bases)
        perm, perm_att = attend_batch(build_token_batch(relabelled, permuted_emb, intervals,
                                                        vocab), bases)
        type_ids, codes = base_att.tokens.type_ids, base_att.tokens.codes
        assert len(set((type_ids >= 0).sum(axis=1))) > 1

        assert perm_att.query_weights.tobytes() == base_att.query_weights.tobytes()
        assert perm_att.queries.tobytes() == base_att.queries.tobytes()
        assert perm_att.tokens.type_ids.tobytes() == type_ids.tobytes()
        relabelled_codes = codes.copy()
        for tid, etype in enumerate(EVENT_TYPES):
            relabelled_codes[type_ids == tid] = perms[etype][codes[type_ids == tid]]
        np.testing.assert_array_equal(perm_att.tokens.codes, relabelled_codes)

        base_slots = base.data.reshape(len(visits), -1, 4)
        perm_slots = perm.data.reshape(len(visits), -1, 4)
        np.testing.assert_array_equal(base_slots[:, :6], perm_slots[:, perms["med"]])
        np.testing.assert_array_equal(base_slots[:, 6], perm_slots[:, 6])   # interval


def test_output_depends_on_interval_gap():
    vocab = VocabSpec(med=2, diag=2, lab=1, proc=1)
    codes = {"med": [1], "diag": [0], "lab": [0], "proc": []}
    rng = np.random.default_rng(77)
    kernel = TimeKernelParams.init(4, rng)
    embeddings = init_table(vocab, 4, rng)
    visit = Visit(time_days=0.0, codes=codes)

    def forward(delta):
        tokens = build_token_set(visit, embeddings, time_embed(delta, kernel), vocab)
        o_t, _ = attend(tokens, "task-aware", primary="med", vocab=vocab)
        return o_t.data

    eps = 1e-5
    diff = (forward(2.0 + eps) - forward(2.0 - eps)) / (2 * eps)
    assert np.max(np.abs(diff)) > 1e-6


def test_empty_visit_attends_to_interval_alone():
    vocab = VocabSpec(med=2, diag=1, lab=1, proc=1)
    visit = Visit(time_days=0.0, codes={"med": [], "diag": [], "lab": [], "proc": []})
    embeddings = init_table(vocab, 4, np.random.default_rng(2))
    interval = ad.tensor([0.1, 0.2, -0.3, 0.4])
    tokens = build_token_set(visit, embeddings, interval, vocab)
    o_t, weights = attend(tokens, "task-aware", primary="med", vocab=vocab)
    np.testing.assert_array_equal(weights, [[1.0]])
    slots = o_t.data.reshape(-1, 4)
    np.testing.assert_array_equal(slots[:2], 0.0)
    np.testing.assert_allclose(slots[2], 2.0 * interval.data, rtol=1e-15)


def test_visits_in_a_batch_match_each_alone_bitwise():
    rng = np.random.default_rng(12)
    vocab = VocabSpec(med=6, diag=5, lab=4, proc=3)
    embeddings = init_table(vocab, 4, rng)
    visits = [Visit(time_days=0.0, codes={etype: sorted(rng.choice(
        vocab.size(etype), size=rng.integers(0, vocab.size(etype)), replace=False).tolist())
        for etype in ("med", "diag", "lab", "proc")}) for _ in range(6)]
    intervals = rng.uniform(-0.1, 0.1, (len(visits), 4))
    for mode in ("task-aware", "task-unaware"):
        tokens = build_token_batch(visits, embeddings, ad.tensor(intervals), vocab)
        bases = slot_bases(mode, "med", vocab)
        vectors, attention = attend_batch(tokens, bases)
        for v, visit in enumerate(visits):
            alone_tokens = build_token_set(visit, embeddings, ad.tensor(intervals[v]), vocab)
            alone, alone_att = attend_batch(alone_tokens, bases)
            (n_queries, n_keys), queries = alone_att.query_weights.shape[1:], alone_att.queries[0]
            np.testing.assert_array_equal(vectors.data[v], alone.data[0])
            assert (attention.query_weights[v, :n_queries, :n_keys].tobytes()
                    == alone_att.query_weights[0].tobytes())
            assert not attention.query_weights[v, :n_queries, n_keys:].any()
            assert attention.queries[v].tolist() == queries.tolist() + [-1] * (
                attention.queries.shape[1] - n_queries)
            assert tokens.type_ids[v, :n_keys].tolist() == alone_tokens.type_ids[0].tolist()
            assert tokens.codes[v, :n_keys].tolist() == alone_tokens.codes[0].tolist()


def test_task_aware_queries_equal_their_task_unaware_rows_bitwise():
    rng = np.random.default_rng(13)
    vocab = VocabSpec(med=6, diag=5, lab=4, proc=3)
    embeddings = init_table(vocab, 4, rng)
    visits = [Visit(time_days=0.0, codes={etype: sorted(rng.choice(
        vocab.size(etype), size=rng.integers(0, vocab.size(etype)), replace=False).tolist())
        for etype in ("med", "diag", "lab", "proc")}) for _ in range(6)]
    tokens = build_token_batch(visits, embeddings, ad.tensor(rng.uniform(-0.1, 0.1, (6, 4))),
                               vocab)
    aware, aware_att = attend_batch(tokens, slot_bases("task-aware", "med", vocab))
    unaware, unaware_att = attend_batch(tokens, slot_bases("task-unaware", None, vocab))
    for v, type_ids in enumerate(tokens.type_ids):
        # every present token queries in task-unaware mode, so its row j is token j
        rows = np.flatnonzero(np.isin(type_ids, [0, len(EVENT_TYPES)]))   # med and interval
        n_tokens = np.count_nonzero(type_ids >= 0)
        assert unaware_att.queries[v, :n_tokens].tolist() == list(range(n_tokens))
        assert aware_att.queries[v, :len(rows)].tolist() == rows.tolist()
        assert (aware_att.query_weights[v, :len(rows)].tobytes()
                == unaware_att.query_weights[v, rows].tobytes())
    aware_slots = aware.data.reshape(6, -1, 4)
    unaware_slots = unaware.data.reshape(6, -1, 4)
    np.testing.assert_array_equal(aware_slots[:, :6], unaware_slots[:, :6])   # med block
    np.testing.assert_array_equal(aware_slots[:, -1], unaware_slots[:, -1])   # interval


def test_raw_slot_layout_matches_attend_layout():
    vocab = VocabSpec(med=3, diag=2, lab=0, proc=0)
    codes = {"med": [1], "diag": [0], "lab": [], "proc": []}
    embeddings, tokens = make_case(vocab, codes, seed=3)
    raw = raw_slot_layout(tokens, "task-aware", "med", vocab)
    attended, _ = attend(tokens, "task-aware", primary="med", vocab=vocab)
    assert raw.shape == attended.shape
    slots = raw.data.reshape(-1, 4)
    np.testing.assert_array_equal(slots[1], block(embeddings, vocab, "med")[1])
    np.testing.assert_array_equal(slots[0], 0.0)
    np.testing.assert_array_equal(slots[3], interval_of(tokens))



def test_task_unaware_slot_bases_are_the_flat_code_index():
    vocab = VocabSpec(med=6, diag=5, lab=0, proc=3)
    offsets = vocab.offsets()
    assert offsets.tolist() == [0, 6, 11, 11, 14]
    np.testing.assert_array_equal(slot_bases("task-unaware", None, vocab), offsets)
    np.testing.assert_array_equal(slot_bases("task-aware", "diag", vocab), [-1, 0, -1, -1, 5])
    rng = np.random.default_rng(21)
    embeddings = init_table(vocab, 4, rng)
    visit = Visit(0.0, {"med": [0, 5], "diag": [2, 4], "lab": [], "proc": [0, 2]})
    tokens = build_token_set(visit, embeddings, ad.tensor(rng.uniform(-0.1, 0.1, 4)), vocab)
    codes = tokens.type_ids[0] < len(EVENT_TYPES)                  # no interval token here
    assert codes.sum() == 6
    np.testing.assert_array_equal(tokens.values.data[0, codes],
                                  embeddings.data[offsets[tokens.type_ids[0, codes]]
                                                  + tokens.codes[0, codes]])


@pytest.mark.parametrize("codes, shown", [
    ({"med": [0, 2]}, "med code 2 outside vocab of size 2"),
    ({"med": [-1, 0]}, "med code -1 outside vocab of size 2"),
    ({"med": [1], "lab": [1]}, "lab code 1 outside vocab of size 1"),
], ids=["past-the-end", "negative", "into-the-next-type"])
def test_codes_outside_their_vocab_rejected(codes, shown):
    vocab = VocabSpec(med=2, diag=1, lab=1, proc=1)
    embeddings = init_table(vocab, 4, np.random.default_rng(3))
    visits = [Visit(0.0, {"med": [1]}), Visit(1.0, codes)]
    intervals = ad.tensor(np.zeros((2, 4)))
    with pytest.raises(ValueError, match=f"^patient \\?: {shown}$"):
        build_token_batch(visits, embeddings, intervals, vocab)
    with pytest.raises(ValueError, match=f"^patient q: {shown}$"):
        build_token_batch(visits, embeddings, intervals, vocab, owners=["p", "q"])
