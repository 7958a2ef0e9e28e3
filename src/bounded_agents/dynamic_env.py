"""Two-state switching environment with a safe and a risky action.

Nature is in one of two hidden states, G (good) or B (bad), and flips
between them each round with probability ``pi``. Playing risky pays
``xG > 0`` in G and ``xB < 0`` in B and reveals one of ``k`` signals drawn
from the state's signal distribution; playing safe pays 0 and reveals
nothing. An agent told nature's state each round would play risky exactly
in G, so no strategy can average more than ``xG / 2``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    BadFlipProbError,
    BadPayoffSignError,
    ValidationError,
    check_distribution,
)


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
    if k < 1 or int(k) != k:
        raise ValidationError(f"signal count must be a positive integer, got {k}")
    k = int(k)
    pG = tuple(float(p) for p in pG)
    pB = tuple(float(p) for p in pB)
    if len(pG) != k or len(pB) != k:
        raise ValidationError(
            f"signal vectors must have length k={k}, got {len(pG)} and {len(pB)}"
        )
    check_distribution((pG, pB), lambda i: ("pG", "pB")[i])
    if not (xG > 0.0 > xB):
        raise BadPayoffSignError(f"need xG > 0 > xB, got xG={xG}, xB={xB}")
    if not (0.0 < pi <= 0.5):
        raise BadFlipProbError(f"flip probability must be in (0, 0.5], got {pi}")
    return DynamicSetting(k=k, pG=pG, pB=pB, xG=float(xG), xB=float(xB), pi=float(pi))


def is_nontrivial(setting: DynamicSetting) -> bool:
    """True iff some signal separates the two states (exact inequality)."""
    return any(g != b for g, b in zip(setting.pG, setting.pB))


def oracle_upper_bound(setting: DynamicSetting) -> float:
    """Expected average payoff of an agent told nature's state each round."""
    return setting.xG / 2.0


def setting_from_dict(doc: dict) -> DynamicSetting:
    """Build a setting from a JSON-style mapping with keys k, pG, pB, xG, xB, pi."""
    missing = {"k", "pG", "pB", "xG", "xB", "pi"} - doc.keys()
    if missing:
        raise ValidationError(f"setting document missing keys: {sorted(missing)}")
    return validate_setting(
        doc["k"], doc["pG"], doc["pB"], doc["xG"], doc["xB"], doc["pi"]
    )


def setting_to_dict(setting: DynamicSetting) -> dict:
    return {
        "k": setting.k,
        "pG": list(setting.pG),
        "pB": list(setting.pB),
        "xG": setting.xG,
        "xB": setting.xB,
        "pi": setting.pi,
    }


def load_setting(path) -> DynamicSetting:
    with open(path, encoding="utf-8") as fh:
        return setting_from_dict(json.load(fh))
