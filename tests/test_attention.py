import math

import numpy as np

from catnet import autodiff as ad
from catnet.attention import (
    CodeEmbeddings,
    attend as attend_batch,
    build_token_set as build_token_batch,
    output_width,
    raw_slot_layout as raw_slot_batch,
)
from catnet.cohort import EVENT_TYPES, Visit, VocabSpec
from catnet.time_kernel import TimeKernelParams, time_embed


def build_token_set(visit, embeddings, interval):
    """Tokens of a one-visit batch; ``interval`` is the visit's (E,) interval token."""
    return build_token_batch([visit], embeddings, ad.reshape(interval, (1, -1)))


def attend(tokens, mode, primary=None, vocab=None):
    """The one visit's vector (a 1-D tensor) and its attention record."""
    vectors, attention = attend_batch(tokens, mode, primary=primary, vocab=vocab)
    return ad.take_row(vectors, 0), attention.records()[0]


def raw_slot_layout(tokens, mode, primary, vocab):
    return ad.take_row(raw_slot_batch(tokens, mode, primary, vocab), 0)


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
    embeddings = CodeEmbeddings.init(vocab, embed_dim, rng)
    visit = Visit(time_days=0.0, codes=codes)
    if interval is None:
        interval = ad.tensor(rng.uniform(-0.1, 0.1, embed_dim))
    return embeddings, build_token_set(visit, embeddings, interval)


def reference_tokens(visit, embeddings, interval, types):
    """(type id, code, row) of one visit's tokens: codes by (type, embedding bytes, list
    position), then the interval token with code 0."""
    keyed = sorted((tid, embeddings.tables[etype].data[c].tobytes(), pos, c)
                   for tid, etype in enumerate(EVENT_TYPES) if etype in types
                   for pos, c in enumerate(visit.codes_for(etype)))
    return ([(tid, c, embeddings.tables[EVENT_TYPES[tid]].data[c]) for tid, _, _, c in keyed]
            + [(len(EVENT_TYPES), 0, interval)])


def test_token_layout_matches_per_visit_reference():
    vocab = VocabSpec(med=6, diag=3, lab=4, proc=2)
    rng = np.random.default_rng(20)
    embeddings = CodeEmbeddings.init(vocab, 4, rng)
    med = embeddings.tables["med"].data
    med[3] = med[1]                                  # two codes of one type, equal embeddings
    intervals = rng.uniform(-0.1, 0.1, (5, 4))
    visits = [Visit(0.0, {"med": [0, 1, 3, 5], "diag": [2], "lab": [0, 2], "proc": [1]}),
              Visit(1.0, {"med": [], "diag": [], "lab": [], "proc": []}),
              Visit(2.0, {"med": [1, 3], "diag": [], "lab": [3], "proc": []}),
              Visit(3.0, {"med": [], "diag": [0, 1], "lab": [], "proc": [0]}),
              Visit(4.0, {"med": [2, 4], "diag": [], "lab": [1, 2, 3], "proc": [0, 1]})]
    for types in (EVENT_TYPES, ("med", "lab")):
        tokens = build_token_batch(visits, embeddings, ad.tensor(intervals), types)
        expected = [reference_tokens(visit, embeddings, intervals[v], types)
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
    embeddings = CodeEmbeddings.init(vocab, 3, np.random.default_rng(0))
    shared = embeddings.tables["med"].data[0].copy()
    visit = Visit(time_days=0.0, codes={"med": [0], "diag": [], "lab": [], "proc": []})
    tokens = build_token_set(visit, embeddings, ad.tensor(shared))
    _, rec = attend(tokens, "task-unaware", vocab=vocab)
    np.testing.assert_allclose(rec.weights, 0.5, atol=1e-15)


def test_modes_coincide_without_auxiliary_vocab():
    vocab = VocabSpec(med=5, diag=0, lab=0, proc=0)
    codes = {"med": [0, 2, 4], "diag": [], "lab": [], "proc": []}
    embeddings, tokens = make_case(vocab, codes, seed=5)
    aware, rec_a = attend(tokens, "task-aware", primary="med", vocab=vocab)
    unaware, rec_u = attend(tokens, "task-unaware", vocab=vocab)
    np.testing.assert_array_equal(aware.data, unaware.data)
    np.testing.assert_array_equal(rec_a.weights, rec_u.weights)


def test_three_tokens_match_brute_force():
    vocab = VocabSpec(med=2, diag=2, lab=0, proc=0)
    embed_dim = 4
    tables = {
        "med": ad.parameter([[0.3, -0.1, 0.5, 0.2], [0.0, 0.0, 0.0, 0.0]]),
        "diag": ad.parameter([[0.1, 0.1, -0.4, 0.3], [-0.2, 0.6, 0.0, 0.1]]),
        "lab": ad.parameter(np.zeros((1, 4))),
        "proc": ad.parameter(np.zeros((1, 4))),
    }
    embeddings = CodeEmbeddings(tables=tables)
    visit = Visit(time_days=0.0, codes={"med": [0], "diag": [1], "lab": [], "proc": []})
    interval = ad.tensor([0.05, -0.3, 0.2, 0.4])
    tokens = build_token_set(visit, embeddings, interval)

    o_t, rec = attend(tokens, "task-unaware", vocab=vocab)
    embs = [tables["med"].data[0], tables["diag"].data[1], interval.data]
    outs, weights = brute_force(embs, [0, 1, 2])

    np.testing.assert_allclose(rec.weights, weights, rtol=1e-12)
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
        o_t, rec = attend(tokens, mode, primary="med", vocab=vocab)
        assert o_t.shape == (output_width(mode, "med", vocab, 4),)
        assert np.all(np.abs(rec.weights.sum(axis=1) - 1.0) <= 1e-9)


def test_absent_code_neutrality_is_bitwise():
    vocab = VocabSpec(med=3, diag=2, lab=0, proc=0)
    codes = {"med": [0, 2], "diag": [1], "lab": [], "proc": []}
    embeddings, tokens = make_case(vocab, codes, seed=9)
    base, base_rec = attend(tokens, "task-unaware", vocab=vocab)

    bigger = VocabSpec(med=4, diag=2, lab=0, proc=0)
    extended = CodeEmbeddings(
        tables={**embeddings.tables,
                "med": ad.parameter(np.vstack([embeddings.tables["med"].data,
                                               [[9.0, 9.0, 9.0, 9.0]]]))})
    visit = Visit(time_days=0.0, codes=codes)
    tokens2 = build_token_set(visit, extended, ad.tensor(interval_of(tokens)))
    grown, grown_rec = attend(tokens2, "task-unaware", vocab=bigger)

    np.testing.assert_array_equal(base_rec.weights, grown_rec.weights)
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

        permuted_tables = dict(embeddings.tables)
        new_diag = np.empty_like(embeddings.tables["diag"].data)
        new_diag[perm] = embeddings.tables["diag"].data
        permuted_tables["diag"] = ad.parameter(new_diag)
        permuted_emb = CodeEmbeddings(tables=permuted_tables)
        permuted_codes = {**codes, "diag": sorted(int(perm[c]) for c in diag_codes)}
        tokens_p = build_token_set(Visit(time_days=0.0, codes=permuted_codes),
                                   permuted_emb, ad.tensor(interval_of(tokens)))

        base_o, base_rec = attend(tokens, "task-unaware", vocab=vocab)
        perm_o, perm_rec = attend(tokens_p, "task-unaware", vocab=vocab)

        base_w = {(q, k): w for q, row in zip(base_rec.query_meta, base_rec.weights)
                  for k, w in zip(base_rec.key_meta, row)}
        relabel = lambda m: ("diag", int(perm[m[1]])) if m[0] == "diag" else m
        for (q, k), w in base_w.items():
            pw = {(qq, kk): ww for qq, row in zip(perm_rec.query_meta, perm_rec.weights)
                  for kk, ww in zip(perm_rec.key_meta, row)}[(relabel(q), relabel(k))]
            assert w == pw

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
        embeddings = CodeEmbeddings.init(vocab, 4, rng)
        perms = {etype: rng.permutation(vocab.size(etype)) for etype in EVENT_TYPES}
        permuted_emb = CodeEmbeddings(
            tables={etype: ad.parameter(table.data[np.argsort(perms[etype])])
                    for etype, table in embeddings.tables.items()})
        visits = [Visit(time_days=0.0, codes={etype: sorted(rng.choice(
            vocab.size(etype), size=rng.integers(0, vocab.size(etype) + 1), replace=False).tolist())
            for etype in EVENT_TYPES}) for _ in range(5)]
        relabelled = [Visit(time_days=0.0, codes={etype: sorted(int(perms[etype][c])
                                                                for c in visit.codes[etype])
                                                  for etype in EVENT_TYPES}) for visit in visits]
        intervals = ad.tensor(rng.uniform(-0.1, 0.1, (len(visits), 4)))
        base, base_att = attend_batch(build_token_batch(visits, embeddings, intervals),
                                      "task-aware", primary="med", vocab=vocab)
        perm, perm_att = attend_batch(build_token_batch(relabelled, permuted_emb, intervals),
                                      "task-aware", primary="med", vocab=vocab)
        assert len({len(rec.key_meta) for rec in base_att.records()}) > 1

        relabel = lambda m: (m[0], int(perms[m[0]][m[1]])) if m[0] in perms else m
        for rec, perm_rec in zip(base_att.records(), perm_att.records()):
            perm_w = {(q, k): w for q, row in zip(perm_rec.query_meta, perm_rec.weights)
                      for k, w in zip(perm_rec.key_meta, row)}
            for q, row in zip(rec.query_meta, rec.weights):
                for k, w in zip(rec.key_meta, row):
                    assert w == perm_w[relabel(q), relabel(k)]

        base_slots = base.data.reshape(len(visits), -1, 4)
        perm_slots = perm.data.reshape(len(visits), -1, 4)
        np.testing.assert_array_equal(base_slots[:, :6], perm_slots[:, perms["med"]])
        np.testing.assert_array_equal(base_slots[:, 6], perm_slots[:, 6])   # interval


def test_output_depends_on_interval_gap():
    vocab = VocabSpec(med=2, diag=2, lab=1, proc=1)
    codes = {"med": [1], "diag": [0], "lab": [0], "proc": []}
    rng = np.random.default_rng(77)
    kernel = TimeKernelParams.init(hidden=3, out=4, rng=rng)
    embeddings = CodeEmbeddings.init(vocab, 4, rng)
    visit = Visit(time_days=0.0, codes=codes)

    def forward(delta):
        tokens = build_token_set(visit, embeddings, time_embed(delta, kernel))
        o_t, _ = attend(tokens, "task-aware", primary="med", vocab=vocab)
        return o_t.data

    eps = 1e-5
    diff = (forward(2.0 + eps) - forward(2.0 - eps)) / (2 * eps)
    assert np.max(np.abs(diff)) > 1e-6


def test_empty_visit_attends_to_interval_alone():
    vocab = VocabSpec(med=2, diag=1, lab=1, proc=1)
    visit = Visit(time_days=0.0, codes={"med": [], "diag": [], "lab": [], "proc": []})
    embeddings = CodeEmbeddings.init(vocab, 4, np.random.default_rng(2))
    interval = ad.tensor([0.1, 0.2, -0.3, 0.4])
    tokens = build_token_set(visit, embeddings, interval)
    o_t, rec = attend(tokens, "task-aware", primary="med", vocab=vocab)
    np.testing.assert_array_equal(rec.weights, [[1.0]])
    slots = o_t.data.reshape(-1, 4)
    np.testing.assert_array_equal(slots[:2], 0.0)
    np.testing.assert_allclose(slots[2], 2.0 * interval.data, rtol=1e-15)


def test_visits_in_a_batch_match_each_alone_bitwise():
    rng = np.random.default_rng(12)
    vocab = VocabSpec(med=6, diag=5, lab=4, proc=3)
    embeddings = CodeEmbeddings.init(vocab, 4, rng)
    visits = [Visit(time_days=0.0, codes={etype: sorted(rng.choice(
        vocab.size(etype), size=rng.integers(0, vocab.size(etype)), replace=False).tolist())
        for etype in ("med", "diag", "lab", "proc")}) for _ in range(6)]
    intervals = rng.uniform(-0.1, 0.1, (len(visits), 4))
    for mode in ("task-aware", "task-unaware"):
        tokens = build_token_batch(visits, embeddings, ad.tensor(intervals))
        vectors, attention = attend_batch(tokens, mode, primary="med", vocab=vocab)
        assert tokens.n_tokens == sum(len(r.key_meta) for r in attention.records())
        for v, (visit, record) in enumerate(zip(visits, attention.records())):
            alone, alone_rec = attend(build_token_set(visit, embeddings, ad.tensor(intervals[v])),
                                      mode, primary="med", vocab=vocab)
            np.testing.assert_array_equal(vectors.data[v], alone.data)
            np.testing.assert_array_equal(record.weights, alone_rec.weights)
            assert record.query_meta == alone_rec.query_meta


def test_task_aware_queries_equal_their_task_unaware_rows_bitwise():
    rng = np.random.default_rng(13)
    vocab = VocabSpec(med=6, diag=5, lab=4, proc=3)
    embeddings = CodeEmbeddings.init(vocab, 4, rng)
    visits = [Visit(time_days=0.0, codes={etype: sorted(rng.choice(
        vocab.size(etype), size=rng.integers(0, vocab.size(etype)), replace=False).tolist())
        for etype in ("med", "diag", "lab", "proc")}) for _ in range(6)]
    tokens = build_token_batch(visits, embeddings, ad.tensor(rng.uniform(-0.1, 0.1, (6, 4))))
    aware, aware_att = attend_batch(tokens, "task-aware", primary="med", vocab=vocab)
    unaware, unaware_att = attend_batch(tokens, "task-unaware", vocab=vocab)
    for rec_a, rec_u in zip(aware_att.records(), unaware_att.records()):
        rows = [j for j, (etype, _) in enumerate(rec_u.query_meta) if etype in ("med", "time")]
        assert rec_a.query_meta == [rec_u.query_meta[j] for j in rows]
        np.testing.assert_array_equal(rec_a.weights, rec_u.weights[rows])
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
    np.testing.assert_array_equal(slots[1], embeddings.tables["med"].data[1])
    np.testing.assert_array_equal(slots[0], 0.0)
    np.testing.assert_array_equal(slots[3], interval_of(tokens))

