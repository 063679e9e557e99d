"""Recurrent encoding of a batch of visit-vector sequences into hidden states.

Single-layer, unidirectional GRU or LSTM cells with zero initial state.  A
batch of B sequences arrives packed: ``inputs`` holds the V = sum(lengths)
input vectors one sequence after another, and ``lengths`` says how many
belong to each.  The whole cell, input maps included, is one tape op in
numpy.  All gates' input maps run once over the V rows, gathered time-major:
step t's rows are the sequences still running at t, in batch order, so the
state shrinks by one gather where a sequence ends and no padded step is
computed.  The forward evaluates the same expressions, in the same order, as
per-gate ``ad.linear`` and per-step autodiff ops would, with ``ad.logistic``
as ``ad.sigmoid``'s values and every map as ``ad.row_product`` blocks, whose
gate axis runs all maps that read the same rows in one call; the backward is
hand-written backpropagation through time over the activations kept while a
tape records, then through the input maps, adding each gradient in the order
those ops would (``ad.outer_sum`` for the maps).  Every gate pre-activation
goes through ``ad.check_finite``, so the error names the op and the shapes of
its inputs.  States come back as ``(B, T, H)``, zero past each length.  A
row's products never depend on the other rows, so batch composition and
padding never change a sequence's hidden states or gradients.
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
    rows = (np.cumsum(lengths) - lengths)[seq] + step
    x = (ad.row_product(inputs.data, w.transpose(0, 2, 1)) + b[:, None])[:, rows]   # (G, V, H)
    u_t = u.transpose(0, 2, 1)
    n_gates, n_rows, hidden = x.shape
    offs = np.searchsorted(step, np.arange(lengths.max() + 1))   # step t: rows offs[t]:offs[t+1]
    count = np.diff(offs)
    # per step, the rows of the step before whose sequence runs on (a slice where none ends)
    keeps = [slice(None)] + [slice(None) if count[t] == count[t - 1] else
                             np.flatnonzero(lengths[seq[offs[t - 1]:offs[t]]] > t)
                             for t in range(1, len(count))]
    spans = list(zip(offs[:-1], offs[1:], keeps))
    tensors = (inputs, params.w, params.u, params.b)
    cache = [] if ad.recording(tensors) else None
    pre = np.empty(x.size)        # each step's (G, n, H) pre-activations, checked below
    out = np.empty((n_rows, hidden))
    h = c = np.zeros((count[0], hidden))
    for lo, hi, keep in spans:
        h_prev, c_prev = h, c = h[keep], c[keep]
        p = pre[n_gates * hidden * lo:n_gates * hidden * hi].reshape(n_gates, hi - lo, hidden)
        if kind == "gru":
            z, r = ad.logistic(np.add(x[:2, lo:hi], ad.row_product(h, u_t[:2]), out=p[:2]))
            cand = np.tanh(np.add(x[2, lo:hi], ad.row_product(r * h, u_t[2]), out=p[2]))
            h = (-1.0 * z + 1.0) * h + z * cand
            acts = (z, r, cand)
        else:
            np.add(x[:, lo:hi], ad.row_product(h, u_t), out=p)
            (i, f, o), g = ad.logistic(p[:3]), np.tanh(p[3])
            c = f * c + i * g
            acts = (i, f, o, g, np.tanh(c))
            h = o * acts[-1]
        out[lo:hi] = h
        if cache is not None:
            cache.append((h_prev, c_prev) + acts)
    op = f"{kind} recurrence"
    ad.check_finite(op, pre, tensors)
    states = np.zeros((len(lengths), len(count), hidden))
    states[seq, step] = out

    def bwd(grad):
        """Backpropagation through time, adding each gradient in the order the per-step ops would."""
        dx = np.empty_like(x)
        du = np.zeros_like(u)
        dh_rows, dc = grad[seq, step], 0.0
        carry, carried = (), slice(None)   # step t+1's gradients for h_t, and the rows they reach
        for (lo, hi, keep), (h_prev, c_prev, *acts) in zip(spans[::-1], cache[::-1]):
            dh = dh_rows[lo:hi]
            dh[carried] = sum(carry, dh[carried])
            if kind == "gru":
                z, r, cand = acts
                dx[0, lo:hi] = (dh * cand - dh * h_prev) * z * (1.0 - z)
                dx[2, lo:hi] = dh * z * (1.0 - cand * cand)
                d_rh = ad.row_product(dx[2, lo:hi], u[2])
                dx[1, lo:hi] = d_rh * h_prev * r * (1.0 - r)
                carry = (dh * (-1.0 * z + 1.0), d_rh * r) + tuple(
                    ad.row_product(dx[1::-1, lo:hi], u[1::-1]))
                sources = (h_prev, h_prev, r * h_prev)
            else:
                i, f, o, g, tanh_c = acts
                dc_next = np.zeros((hi - lo, hidden))   # zero for the rows whose sequence ends at t
                dc_next[carried] = dc
                dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
                dx[0, lo:hi] = dc * g * i * (1.0 - i)
                dx[1, lo:hi] = dc * c_prev * f * (1.0 - f)
                dx[2, lo:hi] = dh * tanh_c * o * (1.0 - o)
                dx[3, lo:hi] = dc * i * (1.0 - g * g)
                dc = dc * f
                carry = tuple(ad.row_product(dx[::-1, lo:hi], u[::-1]))
                sources = (h_prev,) * 4
            for k, source in enumerate(sources):
                du[k] += ad.outer_sum(dx[k, lo:hi], source)
            carried = keep
        ad.accumulate(params.u, du)
        # back to patient-major rows; + 0.0 turns -0.0 into +0.0, as take_row's scatter-add does
        d_pre = dx[:, np.argsort(rows)] + 0.0
        ad.accumulate(params.b, np.cumsum(d_pre, axis=1)[:, -1])
        ad.accumulate(params.w, np.stack([ad.outer_sum(d, inputs.data) for d in d_pre]))
        if inputs.requires_grad:
            for d in ad.row_product(d_pre, w)[::-1]:   # last gate first, as the per-gate ops ran
                ad.accumulate(inputs, d)

    return ad.record(op, states, tensors, bwd)
