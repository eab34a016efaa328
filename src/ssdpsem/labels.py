"""Supervisory position labels over the augmented token sequence.

Three nested variants:
  EPL  marks every entity-span position,
  SPL  additionally marks the shortest-dependency-path token set,
  ISL  additionally marks the sentiment-token position (index 0).

Q is the binary indicator.  The supervision distribution q = Q / sum(Q)
is derived from it by ``objectives.asp_loss``, where the loss uses it.
"""

from __future__ import annotations

import numpy as np

from .corpus import VARIANTS, Instance


def build_signal(augmented: Instance, sdp_path, variant: str) -> np.ndarray:
    """The binary indicator Q (float64, one entry per token) over an
    augmented (sentiment-inserted) instance, from the positions of the SDP
    found on that same instance, in any order."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown signal variant {variant!r}")
    n = len(augmented.tokens)
    Q = np.zeros(n, dtype=np.float64)
    Q[augmented.subj[0] : augmented.subj[1] + 1] = 1.0
    Q[augmented.obj[0] : augmented.obj[1] + 1] = 1.0
    if variant in ("SPL", "ISL"):
        for p in sdp_path:
            if not 0 <= p < n:
                raise ValueError(f"SDP position {p} outside augmented length {n}")
            Q[p] = 1.0
    if variant == "ISL":
        Q[0] = 1.0
    return Q
