"""Recurrent encoding of a batch of visit-vector sequences into hidden states.

Single-layer, unidirectional GRU or LSTM cells with zero initial state.  A
batch of B sequences arrives packed: ``inputs`` holds the V = sum(lengths)
input vectors one sequence after another, and ``lengths`` says how many
belong to each.  Each gate's input projection runs once over all V rows; the
recurrence then runs T = max(lengths) steps on ``(B, H)`` state arrays.  The
``(B, T)`` step mask zeroes every state past a sequence's length, so padded
positions read as zeros, and a sequence's own steps never read another row.
Batch composition and trailing padding therefore never change a sequence's
hidden states or gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from catnet import autodiff as ad

_GRU_GATES = ("z", "r", "h")
_LSTM_GATES = ("i", "f", "o", "g")


@dataclass
class RecurrentParams:
    """Gate weights for one cell: per gate, input map, state map, and bias."""

    kind: str
    input_dim: int
    hidden_dim: int
    weights: dict

    @classmethod
    def init(cls, kind: str, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        if kind not in ("gru", "lstm"):
            raise ValueError(f"unknown backbone kind {kind!r}; expected 'gru' or 'lstm'")
        gates = _GRU_GATES if kind == "gru" else _LSTM_GATES
        bound_w = np.sqrt(6.0 / (input_dim + hidden_dim))
        bound_u = np.sqrt(6.0 / (2 * hidden_dim))
        weights = {}
        for gate in gates:
            weights[f"w{gate}"] = ad.parameter(rng.uniform(-bound_w, bound_w, (hidden_dim, input_dim)))
            weights[f"u{gate}"] = ad.parameter(rng.uniform(-bound_u, bound_u, (hidden_dim, hidden_dim)))
            weights[f"b{gate}"] = ad.parameter(np.zeros(hidden_dim))
        return cls(kind=kind, input_dim=input_dim, hidden_dim=hidden_dim, weights=weights)

    def named(self, prefix: str = "rnn") -> dict:
        return {f"{prefix}_{name}": t for name, t in self.weights.items()}


def step_mask(lengths) -> np.ndarray:
    """``(B, T)`` booleans, True at the steps each sequence has."""
    lengths = np.asarray(lengths)
    return np.arange(lengths.max()) < lengths[:, None]


def run_sequence(inputs: ad.Tensor, lengths, params: RecurrentParams) -> ad.Tensor:
    """Hidden states ``(B, T, H)`` of the packed sequences; zero past each length."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 \
            or lengths.sum() != inputs.shape[0]:
        raise ValueError(f"sequence lengths {lengths.tolist()} do not split "
                         f"{inputs.shape[0]} input rows")
    if inputs.data.ndim != 2 or inputs.shape[1] != params.input_dim:
        raise ValueError(f"run_sequence: input shape mismatch {inputs.shape} vs "
                         f"(V, {params.input_dim})")
    mask = step_mask(lengths)
    n_seq, n_steps = mask.shape
    # row of step t of sequence b, time-major; padding reads row 0 and is zeroed below
    rows = np.where(mask.T, np.cumsum(lengths) - lengths + np.arange(n_steps)[:, None], 0)
    w = params.weights
    gates = _GRU_GATES if params.kind == "gru" else _LSTM_GATES
    projected = {g: ad.take_row(ad.linear(inputs, w[f"w{g}"], w[f"b{g}"]), rows) for g in gates}

    h = c = ad.tensor(np.zeros((n_seq, params.hidden_dim)))
    states = []
    for t in range(n_steps):
        x = {g: ad.take_row(p, t) for g, p in projected.items()}
        if params.kind == "gru":
            z = ad.sigmoid(ad.add(x["z"], ad.linear(h, w["uz"])))
            r = ad.sigmoid(ad.add(x["r"], ad.linear(h, w["ur"])))
            candidate = ad.tanh(ad.add(x["h"], ad.linear(ad.mul(r, h), w["uh"])))
            h = ad.add(ad.mul(ad.affine(z, -1.0, 1.0), h), ad.mul(z, candidate))
        else:
            i = ad.sigmoid(ad.add(x["i"], ad.linear(h, w["ui"])))
            f = ad.sigmoid(ad.add(x["f"], ad.linear(h, w["uf"])))
            o = ad.sigmoid(ad.add(x["o"], ad.linear(h, w["uo"])))
            g = ad.tanh(ad.add(x["g"], ad.linear(h, w["ug"])))
            c = ad.add(ad.mul(f, c), ad.mul(i, g))
            h = ad.mul(o, ad.tanh(c))
        if not mask[:, t].all():
            h = ad.mul(h, ad.tensor(mask[:, t, None]))
        states.append(h)
    return ad.stack(states, axis=1)
