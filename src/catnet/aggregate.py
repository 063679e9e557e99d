"""Visit-level attention, the global time gate, fusion, and the output head.

Hidden states from the backbone arrive as a padded ``(B, T, H)`` array, zero
past each patient's number of visits (``lengths``).  Two routes each sum them
over visits, in visit order, into ``(B, H)``: scaled dot-product
self-attention across each patient's own visits, and a sigmoid gate on each
visit's elapsed time since the first visit that scales its state elementwise
(one kernel call over the V visits' packed times).  Each route is one tape op
with its own backward.  It runs once per group of patients with the same
number of visits n (``ad.length_groups``) on their ``(g, n, H)`` states, so
it reads no padded visit.  Its contractions are ``np.einsum`` calls; those
that sum over visits add the terms one after another in visit order, from
+0.0.  The values and gradients are bitwise those of the same formulas over
the padded grid, where padding adds only exact zeros.  The head maps the
routes' sum, concatenated with the encoded demographics, through a sigmoid
output layer to per-target probabilities, ``(B, n_targets)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from catnet import autodiff as ad
from catnet.time_kernel import TimeKernelParams, time_embed


@dataclass
class HeadParams:
    """Demographic encoder and output layer weights."""

    demo_w: ad.Tensor
    demo_b: ad.Tensor
    out_w: ad.Tensor
    out_b: ad.Tensor

    @classmethod
    def init(cls, demo_in: int, demo_dim: int, hidden_dim: int, n_targets: int,
             rng: np.random.Generator):
        bound_d = np.sqrt(6.0 / (demo_in + demo_dim))
        bound_o = np.sqrt(6.0 / (hidden_dim + demo_dim + n_targets))
        return cls(
            demo_w=ad.parameter(rng.uniform(-bound_d, bound_d, (demo_dim, demo_in))),
            demo_b=ad.parameter(np.zeros(demo_dim)),
            out_w=ad.parameter(rng.uniform(-bound_o, bound_o, (n_targets, hidden_dim + demo_dim))),
            out_b=ad.parameter(np.zeros(n_targets)),
        )

    def named(self) -> dict:
        return {"demo_w": self.demo_w, "demo_b": self.demo_b,
                "out_w": self.out_w, "out_b": self.out_b}


def visit_self_attention(states: ad.Tensor, lengths):
    """Visit attention over each patient's own visits, summed over visits; one tape op.

    Alpha row t is the softmax of scaled dot products of state t against the
    patient's states; context t is ``sum_k alpha[t, k] h_k``.  As
    ``sum_t sum_k alpha[t, k] h_k = sum_k (sum_t alpha[t, k]) h_k``, state k's
    weight is alpha's column k summed over the patient's visits in visit order,
    and ``pooled`` adds the weighted states in visit order.  Patients with the
    same number of visits n run together on their ``(g, n, H)`` states, so no
    padded visit enters a product or a sum.  Returns ``(pooled, alpha)``:
    ``pooled`` is ``(B, H)``; ``alpha`` is a list of one ``(T_b, T_b)`` array
    per patient.
    """
    scale = 1.0 / math.sqrt(states.shape[-1])
    pooled = np.empty((len(lengths), states.shape[-1]))
    alpha, groups = [None] * len(lengths), []
    for idx, n in ad.length_groups(lengths):
        h = states.data[idx, :n]
        logits = np.einsum("bqh,bkh->bqk", h, h) * scale
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        a = e / np.cumsum(e, axis=-1)[..., -1:]
        col = np.einsum("bqk->bk", a)
        pooled[idx] = np.einsum("bk,bkh->bh", col, h)
        for b, a_b in zip(idx, a):
            alpha[b] = a_b
        groups.append((idx, n, h, a, col))

    def bwd(grad):
        """Per group, the states' gradient adds the pooled part, then the logits' query side,
        then their key side; a sum from +0.0 is never -0.0, so a new zero buffer adds the
        first part as it is."""
        if states.grad is None:
            states.grad = np.zeros_like(states.data)
        for idx, n, h, a, col in groups:
            g = grad[idx][:, None]                                   # (g, 1, H)
            d_col = np.einsum("bqn,bkn->bqk", g, h)
            d_logits = a * (d_col - np.cumsum(d_col * a, axis=-1)[..., -1:]) * scale
            pooled_part = np.einsum("bqk,bqn->bkn", col[:, None], g)
            query_side = np.einsum("bqk,bkh->bqh", d_logits, h)
            key_side = np.einsum("bqh,bqk->bkh", h, d_logits)
            states.grad[idx, :n] = states.grad[idx, :n] + pooled_part + query_side + key_side

    return ad.record("visit attention", pooled, (states,), bwd), alpha


def global_time_gate(states: ad.Tensor, delta_global, lengths, kernel: TimeKernelParams):
    """Elementwise sigmoid gates from each visit's global decay time, summed over visits.

    ``delta_global`` holds the V = sum(lengths) decay times (already scaled),
    packed patient after patient.  The gates come from one kernel call over the
    V visits; then one tape op scales each patient's states by its gates and
    sums them over its visits in visit order, on the ``(g, n, H)`` states of
    each group of patients with n visits.  Returns ``(gated, gates)``:
    ``gated`` is ``(B, H)`` like :func:`visit_self_attention`'s ``pooled``;
    ``gates`` is a list of one ``(T_b, H)`` array per patient.
    """
    gates = ad.sigmoid(time_embed(delta_global, kernel))
    rows = ad.packed_rows(lengths)
    gated = np.empty((len(lengths), states.shape[-1]))
    for idx, n in ad.length_groups(lengths):
        gated[idx] = np.einsum("bth,bth->bh", gates.data[rows[idx, :n]], states.data[idx, :n])

    def bwd(grad):
        """Elementwise over the V packed visits, so it needs no group."""
        patient, step = np.nonzero(rows >= 0)   # each packed visit's place in the grid
        g = grad[patient]
        d_states = np.zeros_like(states.data)
        d_states[patient, step] = g * gates.data
        ad.accumulate(gates, g * states.data[patient, step] + 0.0)   # one use, summed from +0.0
        ad.accumulate(states, d_states)

    gated = ad.record("global time gate", gated, (gates, states), bwd)
    return gated, np.split(gates.data, np.cumsum(lengths)[:-1])


def fuse_and_predict(fused: ad.Tensor, demo, params: HeadParams) -> ad.Tensor:
    """Per-target probabilities from the fused visit routes and demographics.

    ``fused`` is ``(..., H)``: the visit route's sum over visits, plus the
    global gate's sum when that route runs.  ``demo`` is ``(..., DEMOGRAPHICS_DIM)``.
    """
    features = ad.concat([fused, ad.linear(ad.tensor(demo), params.demo_w, params.demo_b)])
    return ad.sigmoid(ad.linear(features, params.out_w, params.out_b))
