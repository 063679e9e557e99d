"""Visit-level attention, the global time gate, fusion, and the output head.

Hidden states from the backbone arrive as a padded ``(B, T, H)`` array, zero
past each patient's number of visits (``lengths``).  Two routes each sum them
over visits, in visit order, into ``(B, H)`` (padding adds exact zeros):
scaled dot-product self-attention across each patient's own visits (one
masked ``(B, T, T)`` softmax), and a sigmoid gate on each visit's elapsed time
since the first visit that scales its state elementwise (one kernel call over
the V visits' packed times).  The head maps the routes' sum, concatenated with
the encoded demographics, through a sigmoid output layer to per-target
probabilities, ``(B, n_targets)``.
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
    """Visit attention over each patient's own visits, summed over visits.

    Alpha row t is the softmax of scaled dot products of state t against the
    patient's states; context t is ``sum_k alpha[t, k] h_k``.  As
    ``sum_t sum_k alpha[t, k] h_k = sum_k (sum_t alpha[t, k]) h_k``, state k's
    weight is alpha's column k summed over the patient's visits (in visit
    order, padded query rows masked out), and ``pooled`` adds the weighted
    states in visit order.  Returns ``(pooled, alpha)``: ``pooled`` is
    ``(B, H)``; ``alpha`` is a list of one ``(T_b, T_b)`` array per patient.
    """
    mask = ad.packed_rows(lengths) >= 0
    logits = ad.scale(ad.einsum("bqh,bkh->bqk", states, states), 1.0 / math.sqrt(states.shape[-1]))
    alpha = ad.stable_softmax(logits, mask[:, None, :])
    column = ad.weighted_row_sum(ad.tensor(mask[:, None, :]), alpha)
    pooled = ad.reshape(ad.weighted_row_sum(column, states), (len(mask), states.shape[-1]))
    return pooled, [alpha.data[b, :n, :n] for b, n in enumerate(lengths)]


def global_time_gate(states: ad.Tensor, delta_global, lengths, kernel: TimeKernelParams):
    """Elementwise sigmoid gates from each visit's global decay time, summed over visits.

    ``delta_global`` holds the V = sum(lengths) decay times (already scaled),
    packed patient after patient.  The gates, one kernel call over the V
    visits, are placed in the padded grid (zero at padding), scale the states
    and are summed over visits in visit order.  Returns ``(gated, gates)``:
    ``gated`` is ``(B, H)`` like :func:`visit_self_attention`'s ``pooled``;
    ``gates`` is a list of one ``(T_b, H)`` array per patient.
    """
    gates = ad.sigmoid(time_embed(delta_global, kernel))
    grid = ad.take_row(gates, ad.packed_rows(lengths))   # padding reads zeros
    return ad.sum_over(ad.mul(grid, states), axis=1), np.split(gates.data, np.cumsum(lengths)[:-1])


def fuse_and_predict(fused: ad.Tensor, demo, params: HeadParams) -> ad.Tensor:
    """Per-target probabilities from the fused visit routes and demographics.

    ``fused`` is ``(..., H)``: the visit route's sum over visits, plus the
    global gate's sum when that route runs.  ``demo`` is ``(..., DEMOGRAPHICS_DIM)``.
    """
    features = ad.concat([fused, ad.linear(ad.tensor(demo), params.demo_w, params.demo_b)])
    return ad.sigmoid(ad.linear(features, params.out_w, params.out_b))
