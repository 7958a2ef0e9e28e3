"""Two-state switching environment with a safe and a risky action.

Nature is in one of two hidden states, G (good) or B (bad), and flips
between them each round with probability ``pi``. Playing risky pays
``xG > 0`` in G and ``xB < 0`` in B and reveals one of ``k`` signals drawn
from the state's signal distribution; playing safe pays 0 and reveals
nothing. An agent told nature's state each round would play risky exactly
in G, so no strategy can average more than ``xG / 2``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    BadFlipProbError,
    BadPayoffSignError,
    check_distribution,
    check_integer,
    check_list,
    check_real,
)

# Products with a subnormal probability keep fewer than 53 bits, and the solve
# divides by pivots that small: at pi = 5e-324 the paper's 4-rung ladder pays 4%
# off its exact value, and at r_u = 5e-324 the climbs underflow to 0 and an
# irreducible chain reads as reducible. So pi and every ladder probability start
# at the smallest normal float. That keeps pi normal, not the joint entries
# pi * A(q, q'): at pi's low end they can be subnormal (5.6e-310 on the paper
# signals at m = 2). Ladders still match the rational oracle there, and brute
# force solves every candidate of such a labeling (see
# optimize.brute_force_policy_search).
PI_INTERVAL = f"[{sys.float_info.min!r}, 0.5]"
LADDER_PROB_INTERVAL = f"[{sys.float_info.min!r}, 1]"


@dataclass(frozen=True)
class DynamicSetting:
    """Validated environment parameters. Immutable; build via validate_setting."""

    k: int
    pG: tuple[float, ...]
    pB: tuple[float, ...]
    xG: float
    xB: float
    pi: float


def validate_setting(
    k: int,
    pG: Sequence[float],
    pB: Sequence[float],
    xG: float,
    xB: float,
    pi: float,
) -> DynamicSetting:
    """Check raw fields and return a DynamicSetting.

    Never normalizes: a signal vector that does not already sum to 1
    within errors.PROB_SUM_TOL is rejected.
    """
    pG, pB = check_signals(k, pG, pB)
    check_real(xG, "xG", "(0, inf)", BadPayoffSignError)
    check_real(xB, "xB", "(-inf, 0)", BadPayoffSignError)
    check_real(pi, "flip probability pi", PI_INTERVAL, BadFlipProbError)
    return DynamicSetting(k=int(k), pG=pG, pB=pB, xG=float(xG), xB=float(xB), pi=float(pi))


def check_signals(k, pG, pB) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """pG and pB as tuples of floats, once k is a count and each is a
    distribution over the k signals. A k past pG's length is refused by
    name; a pG or pB of another length is refused by its own."""
    pG = check_list(pG, "pG")
    check_integer(k, "k", f"[1, {len(pG)}]")
    pG, pB = (tuple(map(float, check_list(probs, name, k, check_real)))
              for name, probs in (("pG", pG), ("pB", pB)))
    check_distribution((pG, pB), lambda i: ("pG", "pB")[i])
    return pG, pB


def is_nontrivial(setting: DynamicSetting) -> bool:
    """True iff some signal separates the two states (exact inequality)."""
    return any(g != b for g, b in zip(setting.pG, setting.pB))


def oracle_upper_bound(setting: DynamicSetting) -> float:
    """Expected average payoff of an agent told nature's state each round."""
    return setting.xG / 2.0
