"""Recurrent encoding of a batch of visit-vector sequences into hidden states.

Single-layer, unidirectional GRU or LSTM cells with zero initial state.  A
batch of B sequences arrives packed: ``inputs`` holds the V = sum(lengths)
input vectors one sequence after another, and ``lengths`` says how many
belong to each.  The whole cell, input maps included, is one tape op in
numpy.  All gates' input maps run once over the V rows, gathered time-major:
step t's rows are the sequences still running at t, and each reads its
sequence's state at t - 1 from row ``prev`` (a zero row at t = 0), so no
padded step is computed.  Every map runs as ``ad.row_product`` blocks, one
call for all maps that read the same rows.  The backward is backpropagation
through time over the kept activations: each step adds its state gradient
into rows ``prev``; then each state map gets one ``ad.outer_sum`` over all
rows.  Every gate pre-activation goes through ``ad.check_finite``, so the
error names the op and the shapes of its inputs.  States come back as
``(B, T, H)``, zero past each length.  A row's products never depend on the
other rows, and the sums over rows skip zero rows or add them one after
another, so batch composition and padding never change a sequence's hidden
states or gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from catnet import autodiff as ad

GATES = {"gru": ("z", "r", "h"), "lstm": ("i", "f", "o", "g")}  # gate order of the stacked maps


@dataclass
class RecurrentParams:
    """One cell's input maps ``w`` (G, H, I), state maps ``u`` (G, H, H), biases ``b`` (G, H)."""

    kind: str
    w: ad.Tensor
    u: ad.Tensor
    b: ad.Tensor

    @classmethod
    def init(cls, kind: str, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        """Glorot-uniform maps drawn gate by gate, input map then state map; zero biases."""
        bound_w = np.sqrt(6.0 / (input_dim + hidden_dim))
        bound_u = np.sqrt(6.0 / (2 * hidden_dim))
        w, u = zip(*[(rng.uniform(-bound_w, bound_w, (hidden_dim, input_dim)),
                      rng.uniform(-bound_u, bound_u, (hidden_dim, hidden_dim)))
                     for _ in GATES[kind]])
        return cls(kind, ad.parameter(np.stack(w)), ad.parameter(np.stack(u)),
                   ad.parameter(np.zeros((len(w), hidden_dim))))

    def named(self) -> dict:
        return {"rnn_w": self.w, "rnn_u": self.u, "rnn_b": self.b}


def step_mask(lengths) -> np.ndarray:
    """``(B, T)`` booleans, True at the steps each sequence has."""
    lengths = np.asarray(lengths)
    return np.arange(lengths.max()) < lengths[:, None]


def run_sequence(inputs: ad.Tensor, lengths, params: RecurrentParams) -> ad.Tensor:
    """One tape op: packed ``(V, I)`` inputs -> states ``(B, T, H)``, zero past each length."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 \
            or lengths.sum() != inputs.shape[0]:
        raise ValueError(f"sequence lengths {lengths.tolist()} do not split "
                         f"{inputs.shape[0]} input rows")
    kind, w, u, b = params.kind, params.w.data, params.u.data, params.b.data
    if inputs.data.ndim != 2 or inputs.shape[1] != w.shape[2]:
        raise ValueError(f"run_sequence: input shape mismatch {inputs.shape} vs (V, {w.shape[2]})")
    # the V real rows, time-major; within a step, the running sequences in batch order
    step, seq = np.nonzero(step_mask(lengths).T)
    rows = (np.cumsum(lengths) - lengths)[seq] + step   # each row's patient-major position
    order = np.argsort(rows)                             # each patient-major row's time-major row
    prev = np.where(step > 0, order[rows - 1], -1)       # its sequence's row a step before; -1: zeros
    x = (ad.row_product(inputs.data, w.transpose(0, 2, 1)) + b[:, None])[:, rows]   # (G, V, H)
    u_t = u.transpose(0, 2, 1)
    n_gates, n_rows, hidden = x.shape
    offs = np.searchsorted(step, np.arange(lengths.max() + 1))   # step t: rows offs[t]:offs[t+1]
    spans = list(zip(offs[:-1], offs[1:]))
    pre = np.empty(x.size)        # each step's (G, n, H) pre-activations, checked below
    hs, cs = np.zeros((2, n_rows + 1, hidden))   # states and cells; the last row stays zero
    acts = np.empty((n_gates + (kind == "lstm"), n_rows, hidden))   # gate values (and tanh(c))
    for lo, hi in spans:
        h_prev, a = hs[prev[lo:hi]], acts[:, lo:hi]
        p = pre[n_gates * hidden * lo:n_gates * hidden * hi].reshape(n_gates, hi - lo, hidden)
        if kind == "gru":
            z, r, cand = a
            a[:2] = ad.logistic(np.add(x[:2, lo:hi], ad.row_product(h_prev, u_t[:2]), out=p[:2]))
            a[2] = np.tanh(np.add(x[2, lo:hi], ad.row_product(r * h_prev, u_t[2]), out=p[2]))
            hs[lo:hi] = (-1.0 * z + 1.0) * h_prev + z * cand
        else:
            i, f, o, g, tanh_c = a
            np.add(x[:, lo:hi], ad.row_product(h_prev, u_t), out=p)
            a[:3], a[3] = ad.logistic(p[:3]), np.tanh(p[3])
            cs[lo:hi] = f * cs[prev[lo:hi]] + i * g
            hs[lo:hi] = o * np.tanh(cs[lo:hi], out=tanh_c)
    op = f"{kind} recurrence"
    tensors = (inputs, params.w, params.u, params.b)
    ad.check_finite(op, pre, tensors)
    states = np.zeros((len(lengths), len(spans), hidden))
    states[seq, step] = hs[:n_rows]

    def bwd(grad):
        """Backpropagation through time: each step adds its state gradients into rows ``prev``."""
        dx = np.empty_like(x)
        dh, dc = np.zeros((2, n_rows + 1, hidden))
        dh[:n_rows] = grad[seq, step]
        h_prev = hs[prev]
        for lo, hi in spans[::-1]:
            d, back = dh[lo:hi], prev[lo:hi]
            if kind == "gru":
                z, r, cand = acts[:, lo:hi]
                dx[0, lo:hi] = (d * cand - d * h_prev[lo:hi]) * z * (1.0 - z)
                dx[2, lo:hi] = d * z * (1.0 - cand * cand)
                d_rh = ad.row_product(dx[2, lo:hi], u[2])
                dx[1, lo:hi] = d_rh * h_prev[lo:hi] * r * (1.0 - r)
                dh[back] += d * (-1.0 * z + 1.0) + d_rh * r \
                    + ad.row_product(dx[:2, lo:hi], u[:2]).sum(axis=0)
            else:
                i, f, o, g, tanh_c = acts[:, lo:hi]
                d_c = dc[lo:hi] + d * o * (1.0 - tanh_c * tanh_c)
                dx[0, lo:hi] = d_c * g * i * (1.0 - i)
                dx[1, lo:hi] = d_c * cs[back] * f * (1.0 - f)
                dx[2, lo:hi] = d * tanh_c * o * (1.0 - o)
                dx[3, lo:hi] = d_c * i * (1.0 - g * g)
                dc[back] = d_c * f
                dh[back] += ad.row_product(dx[:, lo:hi], u).sum(axis=0)
        sources = (h_prev, h_prev, acts[1] * h_prev) if kind == "gru" else (h_prev,) * n_gates
        ad.accumulate(params.u, np.stack([ad.outer_sum(d, s) for d, s in zip(dx, sources)]))
        # back to patient-major rows, summed one after another for the bias: rows whose
        # gradient is zero (other sequences, padding) leave each sum's value unchanged
        d_pre = dx[:, order]
        ad.accumulate(params.b, np.cumsum(d_pre, axis=1)[:, -1])
        ad.accumulate(params.w, np.stack([ad.outer_sum(d, inputs.data) for d in d_pre]))
        if inputs.requires_grad:
            ad.accumulate(inputs, ad.row_product(d_pre, w).sum(axis=0))

    return ad.record(op, states, tensors, bwd)
