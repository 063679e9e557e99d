"""Recurrent encoding of a batch of visit-vector sequences into hidden states.

Single-layer, unidirectional GRU or LSTM cells with zero initial state.  A
batch of B sequences arrives packed: ``inputs`` holds the V = sum(lengths)
input vectors one sequence after another, and ``lengths`` says how many
belong to each.  The whole cell, input maps included, is one tape op in
numpy.  All gates' input maps run once over the V rows, gathered time-major:
step t's rows are the sequences still running at t, and each reads its
sequence's state at t - 1 from row ``prev`` (a zero row at t = 0), so no
padded step is computed.  Every map runs in ``ad.ROW_BLOCK``-row blocks, one
call for all maps that read the same rows: the input maps as one
``ad.row_product``, each step's state maps as one ``ad.block_product`` of the
blocks that hold the step's rows, the blocks ``ad.row_product`` would
multiply.  The forward gathers a step's previous states (and the GRU's
``r * h_prev``) into block buffers allocated once per call for step 0, the
step with the most rows; rows past a later step's keep stale values, which no
product row reads.  Gate values go straight into the kept activations.  The
backward is backpropagation through time over them, with the gate gradients
time-major and ``ROW_BLOCK - 1`` zero rows after them, so that the blocks
from a step's first row exist: each step adds its state gradient into rows
``prev``; then each state map gets one ``ad.outer_sum`` over all rows.  Every
gate pre-activation goes through ``ad.check_finite``, so the error names the
op and the shapes of its inputs.  States come back as ``(B, T, H)``, zero
past each length.  A row's products never depend on the other rows, and the
sums over rows skip zero rows or add them one after another, so batch
composition and padding never change a sequence's hidden states or gradients.
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
    grid = ad.packed_rows(lengths)
    step, seq = np.nonzero(grid.T >= 0)
    rows = grid[seq, step]                               # each row's patient-major position
    order = np.argsort(rows)                             # each patient-major row's time-major row
    x = (ad.row_product(inputs.data, w.transpose(0, 2, 1)) + b[:, None])[:, rows]   # (G, V, H)
    u_t = u.transpose(0, 2, 1)
    n_gates, n_rows, hidden = x.shape
    # each row's sequence's row a step before, or n_rows, the zero row (not -1: the step
    # loop's np.take writes straight into its buffer only in mode "clip")
    prev = np.where(step > 0, order[rows - 1], n_rows)
    offs = np.searchsorted(step, np.arange(lengths.max() + 1))   # step t: rows offs[t]:offs[t+1]
    spans = list(zip(offs[:-1], offs[1:]))
    pre = np.empty(x.size)        # each step's (G, n, H) pre-activations, checked below
    hs, cs = np.zeros((2, n_rows + 1, hidden))   # states and cells; the last row stays zero
    acts = np.empty((n_gates + (kind == "lstm"), n_rows, hidden))   # gate values (and tanh(c))
    # a step's previous states and the GRU's r * h_prev, in buffers of whole row blocks;
    # step 0 has the most rows, and later steps leave stale rows past their own
    h_prev, rh = ad.row_blocks(len(lengths), hidden, (2,))
    for lo, hi in spans:
        n, a = hi - lo, acts[:, lo:hi]
        hp = np.take(hs, prev[lo:hi], axis=0, out=h_prev[:n], mode="clip")
        p = pre[n_gates * hidden * lo:n_gates * hidden * hi].reshape(n_gates, n, hidden)
        if kind == "gru":
            z, r, cand = a
            ad.logistic(np.add(x[:2, lo:hi], ad.block_product(h_prev, n, u_t[:2]), out=p[:2]),
                        out=a[:2])
            np.multiply(r, hp, out=rh[:n])
            np.tanh(np.add(x[2:, lo:hi], ad.block_product(rh, n, u_t[2:]), out=p[2:]), out=a[2:])
            np.add((1.0 - z) * hp, z * cand, out=hs[lo:hi])
        else:
            i, f, o, g, tanh_c = a
            np.add(x[:, lo:hi], ad.block_product(h_prev, n, u_t), out=p)
            ad.logistic(p[:3], out=a[:3])
            np.tanh(p[3], out=g)
            np.add(f * cs[prev[lo:hi]], i * g, out=cs[lo:hi])
            np.multiply(o, np.tanh(cs[lo:hi], out=tanh_c), out=hs[lo:hi])
    op = f"{kind} recurrence"
    tensors = (inputs, params.w, params.u, params.b)
    ad.check_finite(op, pre, tensors)
    states = np.zeros((len(lengths), len(spans), hidden))
    states[seq, step] = hs[:n_rows]

    def bwd(grad):
        """Backpropagation through time: each step adds its state gradients into rows ``prev``."""
        # gate gradients, time-major, and ROW_BLOCK - 1 zero rows: ad.block_product reads a
        # step's rows in whole blocks, and past them a later step's rows or the zero rows
        dx = np.zeros((n_gates, n_rows + ad.ROW_BLOCK - 1, hidden))
        dh, dc = np.zeros((2, n_rows + 1, hidden))
        dh[:n_rows] = grad[seq, step]
        h_prev = hs[prev]
        for lo, hi in spans[::-1]:
            n, d, back, hp = hi - lo, dh[lo:hi], prev[lo:hi], h_prev[lo:hi]
            if kind == "gru":
                z, r, cand = acts[:, lo:hi]
                dx[0, lo:hi] = (d * cand - d * hp) * z * (1.0 - z)
                dx[2, lo:hi] = d * z * (1.0 - cand * cand)
                d_rh = ad.block_product(dx[2:, lo:], n, u[2:])[0]
                dx[1, lo:hi] = d_rh * hp * r * (1.0 - r)
                dh[back] += d * (1.0 - z) + d_rh * r \
                    + ad.block_product(dx[:2, lo:], n, u[:2]).sum(axis=0)
            else:
                i, f, o, g, tanh_c = acts[:, lo:hi]
                d_c = dc[lo:hi] + d * o * (1.0 - tanh_c * tanh_c)
                dx[0, lo:hi] = d_c * g * i * (1.0 - i)
                dx[1, lo:hi] = d_c * cs[back] * f * (1.0 - f)
                dx[2, lo:hi] = d * tanh_c * o * (1.0 - o)
                dx[3, lo:hi] = d_c * i * (1.0 - g * g)
                dc[back] = d_c * f
                dh[back] += ad.block_product(dx[:, lo:], n, u).sum(axis=0)
        dx = dx[:, :n_rows]
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
