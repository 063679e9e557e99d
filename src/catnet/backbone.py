"""Recurrent encoding of a batch of visit-vector sequences into hidden states.

Single-layer, unidirectional GRU or LSTM cells with zero initial state.  A
batch of B sequences arrives packed: ``inputs`` holds the V = sum(lengths)
input vectors one sequence after another, and ``lengths`` says how many
belong to each.  Each gate's input projection runs once over all V rows and
is gathered time-major: step t's rows are the sequences still running at t,
in batch order, so the state shrinks by one gather where a sequence ends and
no padded step is computed.  All T = max(lengths) steps are one tape op in
numpy: the forward evaluates the same expressions, in the same order, as
per-step autodiff ops would, with ``ad.logistic`` as ``ad.sigmoid``'s values
and the state maps as ``ad.linear``'s products (``ad.row_product``, whose gate
axis runs every map that reads the same rows in one call, and
``ad.outer_sum`` for their gradients); the backward is hand-written
backpropagation through time over the gate activations the forward kept
(only while a tape records), handing each carried gradient back to the rows
that ran on.  Every gate pre-activation goes through ``ad.check_finite``, the
check every tape op makes, so the error names the op and the shapes of its
inputs.  States come back as ``(B, T, H)``, zero past each length.  A row's
products never depend on the other rows, so batch composition and padding
never change a sequence's hidden states or gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from catnet import autodiff as ad

GATES = {"gru": ("z", "r", "h"), "lstm": ("i", "f", "o", "g")}  # gate names per backbone kind


@dataclass
class RecurrentParams:
    """Gate weights for one cell: per gate, input map, state map, and bias."""

    kind: str
    weights: dict

    @classmethod
    def init(cls, kind: str, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        if kind not in GATES:
            raise ValueError(f"unknown backbone kind {kind!r}; expected one of {tuple(GATES)}")
        bound_w = np.sqrt(6.0 / (input_dim + hidden_dim))
        bound_u = np.sqrt(6.0 / (2 * hidden_dim))
        weights = {}
        for gate in GATES[kind]:
            weights[f"w{gate}"] = ad.parameter(rng.uniform(-bound_w, bound_w, (hidden_dim, input_dim)))
            weights[f"u{gate}"] = ad.parameter(rng.uniform(-bound_u, bound_u, (hidden_dim, hidden_dim)))
            weights[f"b{gate}"] = ad.parameter(np.zeros(hidden_dim))
        return cls(kind=kind, weights=weights)

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
    w = params.weights
    gates = GATES[params.kind]
    width = w[f"w{gates[0]}"].shape[1]
    if inputs.data.ndim != 2 or inputs.shape[1] != width:
        raise ValueError(f"run_sequence: input shape mismatch {inputs.shape} vs (V, {width})")
    # the V real rows, time-major; within a step, the running sequences in batch order
    step, seq = np.nonzero(step_mask(lengths).T)
    rows = (np.cumsum(lengths) - lengths)[seq] + step
    projected = [ad.take_row(ad.linear(inputs, w[f"w{g}"], w[f"b{g}"]), rows) for g in gates]
    return _recurrence(params.kind, projected, [w[f"u{g}"] for g in gates], lengths, step, seq)


def _recurrence(kind, projected, state_maps, lengths, step, seq):
    """One tape op: packed ``(V, H)`` gate projections and ``(H, H)`` state maps -> ``(B, T, H)``."""
    inputs = projected + state_maps
    x = np.stack([p.data for p in projected])           # (G, V, H)
    u = np.stack([m.data for m in state_maps])          # (G, H, H)
    u_t = u.transpose(0, 2, 1)
    n_gates, n_rows, hidden = x.shape
    offs = np.searchsorted(step, np.arange(lengths.max() + 1))   # step t: rows offs[t]:offs[t+1]
    count = np.diff(offs)
    # per step, the rows of the step before whose sequence runs on (a slice where none ends)
    keeps = [slice(None)] + [slice(None) if count[t] == count[t - 1] else
                             np.flatnonzero(lengths[seq[offs[t - 1]:offs[t]]] > t)
                             for t in range(1, len(count))]
    spans = list(zip(offs[:-1], offs[1:], keeps))
    # projections carry gradients only while a tape records (their input maps are parameters)
    cache = [] if any(p.requires_grad for p in projected) else None
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
    ad.check_finite(op, pre, inputs)
    states = np.zeros((len(lengths), len(count), hidden))
    states[seq, step] = out

    def bwd(grad):
        """Backpropagation through time, adding each gradient in the order the per-step ops would."""
        dx = np.empty_like(x)
        du = [np.zeros_like(m) for m in u]
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
        for k, (p, m) in enumerate(zip(projected, state_maps)):
            ad.accumulate(p, dx[k])
            ad.accumulate(m, du[k])

    return ad.record(op, states, inputs, bwd)
