"""Visit-level attention, the global time gate, fusion, and the output head.

Hidden states from the backbone arrive as a padded ``(B, T, H)`` array, zero
past each patient's number of visits (``lengths``).  They are combined along
two routes: scaled dot-product self-attention across each patient's own
visits yields per-visit contexts (one masked ``(B, T, T)`` softmax), and a
sigmoid gate driven by each visit's elapsed time since the first visit scales
the hidden states elementwise (one kernel call over all ``B * T``
positions).  Both routes are zero at padded positions.  Per visit, the two
are added, summed over visits in visit order (padding adds exact zeros),
concatenated with the encoded demographics, and mapped through a sigmoid
output layer to per-target probabilities, ``(B, n_targets)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from catnet import autodiff as ad
from catnet.backbone import step_mask
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
    """Per-visit attention contexts over each patient's own visits.

    Returns ``(contexts, alpha)``: context t of patient b is the alpha-weighted
    sum of the patient's hidden states, added in visit order; alpha row t is
    the softmax of scaled dot products of state t against each of them.
    ``contexts`` is ``(B, T, H)``, zero past each length; ``alpha`` is a list
    of one ``(T_b, T_b)`` array per patient.
    """
    mask = step_mask(lengths)
    if states.data.ndim != 3 or states.shape[:2] != mask.shape:
        raise ValueError(f"visit_self_attention: states {states.shape} vs lengths {list(lengths)}")
    logits = ad.scale(ad.einsum("bqh,bkh->bqk", states, states), 1.0 / math.sqrt(states.shape[-1]))
    alpha = ad.stable_softmax(logits, mask[:, None, :])
    contexts = ad.mul(ad.weighted_row_sum(alpha, states, sort=False), ad.tensor(mask[:, :, None]))
    return contexts, [alpha.data[b, :n, :n] for b, n in enumerate(lengths)]


def global_time_gate(states: ad.Tensor, delta_global, lengths, kernel: TimeKernelParams):
    """Elementwise sigmoid gates from each visit's global decay time.

    ``delta_global`` is ``(B, T)`` (already scaled by the caller); each row
    must start at 0 and be non-decreasing up to its length, and entries past
    it are ignored.  Returns ``(gated_states, gates)``: ``gated_states`` is
    ``(B, T, H)``, zero wherever ``states`` is; ``gates`` is a list of one
    ``(T_b, H)`` array per patient.
    """
    mask = step_mask(lengths)
    deltas = np.asarray(delta_global, dtype=np.float64)
    if deltas.shape != mask.shape:
        raise ValueError(f"decay times of shape {deltas.shape} for visits of shape {mask.shape}")
    if np.any(deltas[:, 0] != 0.0):
        raise ValueError("global decay times must start at 0")
    if np.any((np.diff(deltas, axis=1) < 0) & mask[:, 1:]):
        raise ValueError("global decay times must be non-decreasing")
    gates = ad.sigmoid(time_embed(np.where(mask, deltas, 0.0), kernel))
    return ad.mul(gates, states), [gates.data[b, :n] for b, n in enumerate(lengths)]


def encode_demographics(demo, params: HeadParams) -> ad.Tensor:
    """Linear map of the raw demographic features (no activation), per row of ``demo``."""
    return ad.linear(ad.tensor(demo), params.demo_w, params.demo_b)


def fuse_and_predict(contexts: ad.Tensor, gated, demo, params: HeadParams) -> ad.Tensor:
    """Per-target probabilities from the two per-visit routes and demographics.

    ``contexts`` and ``gated`` are ``(..., T, H)`` with zeros at padded
    visits, ``demo`` is ``(..., 3)``.  ``gated`` may be None (global gate
    ablated), in which case the fused sum uses the attention contexts alone.
    """
    per_visit = contexts if gated is None else ad.add(contexts, gated)
    fused = ad.sum_over(per_visit, axis=-2)
    features = ad.concat([fused, encode_demographics(demo, params)])
    return ad.sigmoid(ad.linear(features, params.out_w, params.out_b))
