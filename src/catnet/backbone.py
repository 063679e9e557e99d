"""Recurrent encoding of a batch of visit-vector sequences into hidden states.

Single-layer, unidirectional GRU or LSTM cells with zero initial state.  A
batch of B sequences arrives packed: ``inputs`` holds the V = sum(lengths)
input vectors one sequence after another, and ``lengths`` says how many
belong to each.  Each gate's input projection runs once over all V rows and
is gathered into a time-major ``(T, B, H)`` array, T = max(lengths).  All T
steps on ``(B, H)`` states are then one tape op in numpy: the forward
evaluates the same expressions, in the same order, as per-step autodiff ops
would; the backward is hand-written backpropagation through time over the
gate activations the forward kept (only while a tape records).  Every gate
pre-activation is checked for finiteness; the error names the op and the
shapes of its inputs.  The
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
    projected = [ad.take_row(ad.linear(inputs, w[f"w{g}"], w[f"b{g}"]), rows) for g in gates]
    return _recurrence(params.kind, projected, [w[f"u{g}"] for g in gates], mask)


def _sigmoid(a):
    """The formula of ``ad.sigmoid``, so that states match the per-step ops bit for bit."""
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _recurrence(kind, projected, state_maps, mask):
    """One tape op: ``(T, B, H)`` gate projections and ``(H, H)`` state maps -> ``(B, T, H)``."""
    inputs = projected + state_maps
    x, u = [p.data for p in projected], [m.data for m in state_maps]
    n_steps, n_seq, hidden = x[0].shape
    # projections carry gradients only while a tape records (their input maps are parameters)
    cache = [] if any(p.requires_grad for p in projected) else None
    pre = np.empty((n_steps, len(x), n_seq, hidden))     # every pre-activation, checked below
    states = np.empty((n_seq, n_steps, hidden))

    def gate(k, t, h, act=_sigmoid):
        return act(np.add(x[k][t], np.einsum("ai,oi->ao", h, u[k]), out=pre[t, k]))

    h = c = np.zeros((n_seq, hidden))
    for t in range(n_steps):
        h_prev, c_prev = h, c
        if kind == "gru":
            z, r = gate(0, t, h), gate(1, t, h)
            cand = gate(2, t, r * h, np.tanh)
            h = (-1.0 * z + 1.0) * h + z * cand
            acts = (z, r, cand)
        else:
            i, f, o, g = gate(0, t, h), gate(1, t, h), gate(2, t, h), gate(3, t, h, np.tanh)
            c = f * c + i * g
            acts = (i, f, o, g, np.tanh(c))
            h = o * acts[-1]
        h = h * mask[:, t, None]           # zero past each sequence's length
        states[:, t] = h
        if cache is not None:
            cache.append((h_prev, c_prev) + acts)
    op = f"{kind} recurrence"
    if not np.isfinite(pre).all():
        shapes = ", ".join(str(t.data.shape) for t in inputs)
        raise FloatingPointError(f"{op} produced non-finite values from inputs of shape {shapes}")

    def bwd(grad):
        """Backpropagation through time, adding each gradient in the order the per-step ops would."""
        dx = np.empty((len(x), n_steps, n_seq, hidden))
        du = [np.zeros_like(m) for m in u]
        dc = np.zeros((n_seq, hidden))
        carry = ()                          # step t+1's gradients for h_t
        for t in reversed(range(n_steps)):
            h_prev, c_prev, *acts = cache[t]
            dh = sum(carry, grad[:, t]) * mask[:, t, None]
            if kind == "gru":
                z, r, cand = acts
                dx[0, t] = (dh * cand - dh * h_prev) * z * (1.0 - z)
                dx[2, t] = dh * z * (1.0 - cand * cand)
                d_rh = np.einsum("ao,oi->ai", dx[2, t], u[2])
                dx[1, t] = d_rh * h_prev * r * (1.0 - r)
                carry = (dh * (-1.0 * z + 1.0), d_rh * r) + tuple(
                    np.einsum("ao,oi->ai", dx[k, t], u[k]) for k in (1, 0))
                sources = (h_prev, h_prev, r * h_prev)
            else:
                i, f, o, g, tanh_c = acts
                dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
                dx[0, t] = dc * g * i * (1.0 - i)
                dx[1, t] = dc * c_prev * f * (1.0 - f)
                dx[2, t] = dh * tanh_c * o * (1.0 - o)
                dx[3, t] = dc * i * (1.0 - g * g)
                dc = dc * f
                carry = tuple(np.einsum("ao,oi->ai", dx[k, t], u[k]) for k in (3, 2, 1, 0))
                sources = (h_prev,) * 4
            for k, source in enumerate(sources):
                du[k] += np.einsum("ai,ao->oi", source, dx[k, t])
        for k, (p, m) in enumerate(zip(projected, state_maps)):
            ad.accumulate(p, dx[k])
            ad.accumulate(m, du[k])

    return ad.record(op, states, inputs, bwd)
