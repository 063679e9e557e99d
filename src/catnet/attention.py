"""Cross-event attention inside every visit of a batch, all visits at once.

A batch of V visits becomes a padded ``(V, K, E)`` token array.  Visit v holds
its present codes grouped by event type (med, diag, lab, proc), within a type
in the order of their embeddings' bytes, then one interval token carrying the
embedded gap since the previous visit, then zero padding up to K, the token
count of the batch's longest visit.  One sort of all the batch's tokens decides
this order.  Attention runs over present tokens only: a ``(V, K)`` mask hides
the padding from every softmax, and absent vocabulary codes never enter the
key set.  So neither a longer visit elsewhere in the batch nor a larger
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
for the same query.  The softmax denominator and the weighted sum add their K
terms in token order.  Relabelling codes within a type leaves the embeddings
of each type's tokens, and so their byte order, as they were; it therefore
permutes slots and weights and changes no bit of any value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from catnet import autodiff as ad
from catnet.cohort import EVENT_TYPES, MODES, VocabSpec

_TOKEN_TYPES = EVENT_TYPES + ("time",)  # token type ids index this; padding is -1
_TIME_ID = len(EVENT_TYPES)


@dataclass
class CodeEmbeddings:
    """One learnable embedding table per event type, vocab-size x embed_dim."""

    tables: dict

    @classmethod
    def init(cls, vocab: VocabSpec, embed_dim: int, rng: np.random.Generator):
        tables = {etype: ad.parameter(rng.uniform(-0.1, 0.1, (max(vocab.size(etype), 1), embed_dim)))
                  for etype in EVENT_TYPES}
        return cls(tables=tables)

    def named(self) -> dict:
        return {f"emb_{etype}": self.tables[etype] for etype in EVENT_TYPES}


@dataclass
class TokenBatch:
    """Padded tokens of V visits: present codes by type, interval token last.

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

    ``interval_tokens`` is ``(V, E)``: row v is visit v's interval token.  One sort of
    the batch's flat token list by (visit, type, byte rank) decides the token order.
    """
    active = np.flatnonzero([etype in types for etype in EVENT_TYPES])
    lists = [visit.codes_for(EVENT_TYPES[tid]) for visit in visits for tid in active]
    lengths = np.fromiter(map(len, lists), np.intp, len(lists))
    n_visits = len(visits)
    # the flat list: each visit's codes type by type in list order, one interval token per
    # visit (code 0), then a padding sentinel (visit V, type -1, code 0, row -1: zeros)
    code_types = np.repeat(np.tile(active, n_visits), lengths)
    codes = np.fromiter((c for lst in lists for c in lst), np.intp, len(code_types))
    visit = np.r_[np.repeat(np.arange(n_visits), len(active)).repeat(lengths), :n_visits + 1]
    type_ids = np.r_[code_types, [_TIME_ID] * n_visits, -1]
    # token rows in the stacked table [med; diag; lab; proc; interval tokens]
    tables = [embeddings.tables[etype] for etype in EVENT_TYPES]
    bases = np.cumsum([0] + [t.shape[0] for t in tables])
    rows = np.r_[bases[code_types] + codes, bases[_TIME_ID] + np.arange(n_visits), -1]
    codes = np.r_[codes, np.zeros(n_visits + 1, dtype=np.intp)]
    embed_dim = tables[0].shape[1]
    table = ad.concat([*tables, interval_tokens], axis=0)
    # within a type, tokens in the order of their bytes, which no code label can change
    rank = np.unique(table.data.view((np.void, table.data.itemsize * embed_dim))[:, 0],
                     return_inverse=True)[1]
    order = np.lexsort((rank[rows], type_ids, visit))      # the sentinel sorts last
    counts = np.bincount(visit)[:-1]
    slot = np.arange(counts.max())
    index = order[np.where(slot < counts[:, None], (np.cumsum(counts) - counts)[:, None] + slot, -1)]
    return TokenBatch(values=ad.take_row(table, rows[index]), type_ids=type_ids[index],
                      codes=codes[index])


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
    source = np.full((n_visits, n_slots), -1)   # -1: take_row's zero row
    source[v, slots[v, k]] = v * width + k
    flat = ad.reshape(values, (n_visits * width, embed_dim))
    return ad.reshape(ad.take_row(flat, source), (n_visits, n_slots * embed_dim))


def attend(tokens: TokenBatch, mode: str, primary: str = None, *, vocab: VocabSpec):
    """Visit vectors and attention weights for a batch of visits.

    Returns ``(vectors, attention)``: ``vectors`` is ``(V, output_width(...))``,
    the concatenation of per-slot outputs of each visit, and ``attention`` a
    :class:`BatchAttention`.
    """
    if mode not in MODES:
        raise ValueError(f"unknown attention mode {mode!r}; expected one of {MODES}")
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

