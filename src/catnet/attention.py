"""Cross-event attention inside every visit of a batch, all visits at once.

A batch of V visits becomes a padded ``(V, K, E)`` token array.  Visit v holds
its present codes in a fixed global order (med, diag, lab, proc, ascending
code index), then one interval token carrying the embedded gap since the
previous visit, then zero padding up to K, the token count of the batch's
longest visit.  Attention runs over present tokens only: a ``(V, K)`` mask
hides the padding from every softmax, and absent vocabulary codes never enter
the key set.  So neither a longer visit elsewhere in the batch nor a larger
vocabulary of unused codes can change a visit's result.

Two query regimes exist.  Task-aware attention queries with the tokens of the
prediction target's own event type plus the interval token; task-unaware
attention queries with every token.  Keys and values are all present tokens in
both regimes.  Each query's output is its own embedding plus the
attention-weighted sum of all key embeddings, written into a fixed per-code
slot of the visit vector; slots of absent codes stay zero.  Each visit's
query tokens are gathered, in token order, into a ``(V, Q, E)`` array padded
to the visit with the most queries, and scored against all K keys in one
masked ``(V, Q, K)`` softmax; padded query rows are never placed in a slot.
When every present token queries (always in task-unaware mode) the token
array itself is the query array.  A query row's logits, weights and output do
not depend on which other rows are scored, so both regimes give the same bits
for the same query.  The weighted sums add their K summands in ascending
value order, so relabelling codes within a type permutes slots and weights
and changes no bit of any value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from catnet import autodiff as ad
from catnet.cohort import EVENT_TYPES, VocabSpec

_TOKEN_TYPES = EVENT_TYPES + ("time",)  # token type ids index this; padding is -1
_TIME_ID = len(EVENT_TYPES)


@dataclass
class CodeEmbeddings:
    """One learnable embedding table per event type, vocab-size x embed_dim."""

    tables: dict
    embed_dim: int

    @classmethod
    def init(cls, vocab: VocabSpec, embed_dim: int, rng: np.random.Generator):
        tables = {etype: ad.parameter(rng.uniform(-0.1, 0.1, (max(vocab.size(etype), 1), embed_dim)))
                  for etype in EVENT_TYPES}
        return cls(tables=tables, embed_dim=embed_dim)

    def named(self) -> dict:
        return {f"emb_{etype}": self.tables[etype] for etype in EVENT_TYPES}


@dataclass
class TokenBatch:
    """Padded tokens of V visits: present codes in global order, interval token last.

    ``values`` is ``(V, K, E)`` with zero rows at padding; ``type_ids`` and
    ``codes`` are ``(V, K)`` and name each token (type id -1 marks padding).
    """

    values: ad.Tensor
    type_ids: np.ndarray
    codes: np.ndarray

    @property
    def n_tokens(self) -> int:
        """Present tokens over all visits, interval tokens included."""
        return int(np.count_nonzero(self.type_ids >= 0))

    def meta(self, v: int) -> list:
        """``(event type, code)`` of visit v's present tokens, in order."""
        return [(_TOKEN_TYPES[t], int(c)) for t, c in zip(self.type_ids[v], self.codes[v]) if t >= 0]


def build_token_set(visits, embeddings: CodeEmbeddings, interval_tokens: ad.Tensor,
                    types=EVENT_TYPES) -> TokenBatch:
    """Gather the tokens of every visit; codes of event types not in ``types`` are left out.

    ``interval_tokens`` is ``(V, E)``: row v is visit v's interval token.
    """
    active = [(tid, etype) for tid, etype in enumerate(EVENT_TYPES) if etype in types]
    per_visit = [[(tid, visit.codes_for(etype)) for tid, etype in active] for visit in visits]
    n_visits = len(visits)
    width = 1 + max(sum(len(codes) for _, codes in row) for row in per_visit)
    type_ids = np.full((n_visits, width), -1, dtype=np.intp)
    codes = np.zeros((n_visits, width), dtype=np.intp)
    for v, row in enumerate(per_visit):
        k = 0
        for tid, visit_codes in row:
            n = len(visit_codes)
            type_ids[v, k:k + n] = tid
            codes[v, k:k + n] = visit_codes
            k += n
        type_ids[v, k] = _TIME_ID

    # token rows in the stacked table [zero row; med; diag; lab; proc; interval tokens]
    tables = [embeddings.tables[etype] for etype in EVENT_TYPES]
    bases = np.cumsum([1] + [t.shape[0] for t in tables])
    rows = bases[type_ids] + codes
    is_time = type_ids == _TIME_ID
    rows[is_time] += np.nonzero(is_time)[0]
    rows[type_ids < 0] = 0
    table = ad.concat([ad.tensor(np.zeros((1, embeddings.embed_dim))), *tables, interval_tokens],
                      axis=0)
    return TokenBatch(values=ad.take_row(table, rows), type_ids=type_ids, codes=codes)


@dataclass
class AttentionRecord:
    """Attention weights of one visit with the (event type, code) of each query and key."""

    weights: np.ndarray
    query_meta: list
    key_meta: list


@dataclass
class BatchAttention:
    """Cross-event attention weights of a batch of visits, still padded.

    ``queries[v, j]`` is the token position of visit v's j-th query, in token
    order, and -1 past its last query; ``query_weights[v, j, k]`` is the
    weight that query gives token k (padding rows and columns included).
    """

    tokens: TokenBatch
    query_weights: np.ndarray
    queries: np.ndarray

    def records(self) -> list:
        """One :class:`AttentionRecord` per visit, query rows by present key columns."""
        out = []
        for v, row in enumerate(self.queries):
            meta = self.tokens.meta(v)
            queries = row[row >= 0]
            out.append(AttentionRecord(
                weights=self.query_weights[v, :len(queries), :len(meta)],
                query_meta=[meta[q] for q in queries], key_meta=meta))
        return out


def _slot_bases(mode: str, primary: str, vocab: VocabSpec):
    """Per token type id, the slot of its code 0 (-1: no slot); and the slot count."""
    if mode == "task-aware":
        bases = [0 if etype == primary else -1 for etype in EVENT_TYPES] + [vocab.size(primary)]
    else:
        bases = np.cumsum([0] + [vocab.size(etype) for etype in EVENT_TYPES]).tolist()
    return np.array(bases), bases[-1] + 1


def _token_slots(tokens: TokenBatch, mode: str, primary: str, vocab: VocabSpec):
    """(V, K) slot of every token (-1: padding or no slot), and the slot count."""
    bases, n_slots = _slot_bases(mode, primary, vocab)
    base = bases[tokens.type_ids]
    return np.where((tokens.type_ids >= 0) & (base >= 0), base + tokens.codes, -1), n_slots


def output_width(mode: str, primary: str, vocab: VocabSpec, embed_dim: int) -> int:
    return _slot_bases(mode, primary, vocab)[1] * embed_dim


def _place_in_slots(values: ad.Tensor, slots: np.ndarray, n_slots: int) -> ad.Tensor:
    """(V, n_slots * E) visit vectors: token rows of ``values`` at their slots, zeros elsewhere."""
    n_visits, width, embed_dim = values.shape
    v, k = np.nonzero(slots >= 0)
    source = np.zeros((n_visits, n_slots), dtype=np.intp)   # row 0 of ``flat`` is zero
    source[v, slots[v, k]] = 1 + v * width + k
    flat = ad.concat([ad.tensor(np.zeros((1, embed_dim))),
                      ad.reshape(values, (n_visits * width, embed_dim))], axis=0)
    return ad.reshape(ad.take_row(flat, source), (n_visits, n_slots * embed_dim))


def attend(tokens: TokenBatch, mode: str, primary: str = None, *, vocab: VocabSpec):
    """Visit vectors and attention weights for a batch of visits.

    Returns ``(vectors, attention)``: ``vectors`` is ``(V, output_width(...))``,
    the concatenation of per-slot outputs of each visit, and ``attention`` a
    :class:`BatchAttention`.
    """
    if mode not in ("task-aware", "task-unaware"):
        raise ValueError(f"unknown attention mode {mode!r}")
    if mode == "task-aware" and primary not in EVENT_TYPES:
        raise ValueError("task-aware attention requires a primary event type")

    slots, n_slots = _token_slots(tokens, mode, primary, vocab)
    is_query = slots >= 0
    # each visit's query positions first, in token order; the rest pad to the longest
    order = np.argsort(~is_query, axis=1, kind="stable")[:, :is_query.sum(axis=1).max()]
    queries = np.where(np.take_along_axis(is_query, order, axis=1), order, -1)
    x = tokens.values
    if np.array_equal(is_query, tokens.type_ids >= 0):    # every present token queries
        q = x
    else:
        n_visits, width, embed_dim = x.shape
        q = ad.take_row(ad.reshape(x, (n_visits * width, embed_dim)),
                        order + width * np.arange(n_visits)[:, None])
    logits = ad.scale(ad.einsum("vqe,vke->vqk", q, x), 1.0 / math.sqrt(x.shape[-1]))
    weights = ad.stable_softmax(logits, tokens.type_ids[:, None, :] >= 0)
    out = ad.add(q, ad.weighted_row_sum(weights, x))
    return (_place_in_slots(out, np.take_along_axis(slots, order, axis=1), n_slots),
            BatchAttention(tokens=tokens, query_weights=weights.data, queries=queries))


def raw_slot_layout(tokens: TokenBatch, mode: str, primary: str, vocab: VocabSpec) -> ad.Tensor:
    """Visit vectors with raw embeddings in their slots and no attention.

    This is the drop-in replacement used when cross-event attention is
    ablated; layout and width match :func:`attend` exactly.
    """
    slots, n_slots = _token_slots(tokens, mode, primary, vocab)
    return _place_in_slots(tokens.values, slots, n_slots)

