"""Learned kernel embedding of temporal gaps.

The same kernel shape serves two places: embedding the interval since the
previous visit (producing the interval tokens) and embedding the elapsed time
since the first visit (driving the global gate).  The kernel is

    out = w2 @ (1 - tanh((w1 * delta + b1)^2)) + b2

whose inner component lies in (0, 1], saturating towards 0 as the gap grows.
It is as wide as its output and maps gaps of any shape at once: a scalar gap
gives one ``(width,)`` vector, ``V`` gaps a ``(V, width)`` array.  Every gap
is embedded on its own, so no gap changes another's embedding.  Callers are
expected to scale raw day values before embedding; the kernel applies none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from catnet import autodiff as ad


@dataclass
class TimeKernelParams:
    """Kernel weights of one width: w1/b1 ``(width,)``, w2 ``(width, width)``, b2 ``(width,)``."""

    w1: ad.Tensor
    b1: ad.Tensor
    w2: ad.Tensor
    b2: ad.Tensor

    @classmethod
    def init(cls, width: int, rng: np.random.Generator) -> "TimeKernelParams":
        bound = np.sqrt(6.0 / (width + width))
        return cls(
            w1=ad.parameter(rng.uniform(-0.5, 0.5, width)),
            b1=ad.parameter(rng.uniform(-0.5, 0.5, width)),
            w2=ad.parameter(rng.uniform(-bound, bound, (width, width))),
            b2=ad.parameter(np.zeros(width)),
        )

    def named(self, prefix: str) -> dict:
        return {f"{prefix}_w1": self.w1, f"{prefix}_b1": self.b1,
                f"{prefix}_w2": self.w2, f"{prefix}_b2": self.b2}


def time_embed(delta, params: TimeKernelParams) -> ad.Tensor:
    """Embed non-negative gaps (already scaled), of any shape, into the kernel's output space.

    The gaps are not checked here: ``network.TaskInstance`` derives them from checked visits.
    """
    delta = np.asarray(delta, dtype=np.float64)
    u = ad.add(ad.mul(params.w1, ad.tensor(delta[..., None])), params.b1)
    kernel = ad.affine(ad.tanh(ad.mul(u, u)), -1.0, 1.0)
    return ad.linear(kernel, params.w2, params.b2)
