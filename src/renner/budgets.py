"""Enumeration limits, the one place where they live.

* ``DEFAULT_DUAL_DIM`` and ``DEFAULT_HILBERT_DIM`` bound the ambient
  dimension of a cone, and so of its lattice windows, and of a Hilbert
  basis computation.  A rank-r datum's Renner cone has dimension at least
  r, so ``DEFAULT_DUAL_DIM`` is also the largest rank a root datum may have.
* ``weyl_cap()`` bounds the size of a Weyl orbit (commands walk orbits
  only) and ``search_nodes()`` the nodes of one monoid membership search.
  The RENNER_BUDGET environment variable, when set to a positive integer,
  overrides both; any other non-empty value is a ValueError that names it.
  A cached builder records the largest orbit its result needed and hands it
  to ``check_weyl_cap`` on every call, so a budget lowered after the result
  was cached still applies: ``root_datum.positive_coroots`` (the coroot
  orbits), ``parabolic_monoid.build_parabolic`` (the coroot orbits, then
  the Levi-Weyl orbits of the fundamental weights) and
  ``vinberg.vinberg_cone`` (the coweight orbits of its halfspaces).

No function takes a per-call limit.  Every limit is read when the limited
function runs, so RENNER_BUDGET and a patched constant take effect at once.
A membership answer for a generator, or one that a shared monoid has
memoised, spends no search nodes, so it is returned under any node budget.
"""

from __future__ import annotations

import os

from .errors import BudgetExceededError

DEFAULT_WEYL_CAP = 10**6
DEFAULT_SEARCH_NODES = 10**6
DEFAULT_DUAL_DIM = 12
DEFAULT_HILBERT_DIM = 8


def _env_override() -> int | None:
    raw = os.environ.get("RENNER_BUDGET")
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ValueError(f"RENNER_BUDGET must be a positive integer, got {raw!r}")
    return value


def weyl_cap() -> int:
    return _env_override() or DEFAULT_WEYL_CAP


def search_nodes() -> int:
    return _env_override() or DEFAULT_SEARCH_NODES


def check_weyl_cap(size: int) -> None:
    """Raise BudgetExceededError when a Weyl orbit of this size exceeds
    ``weyl_cap()``."""
    limit = weyl_cap()
    if size > limit:
        raise BudgetExceededError(f"Weyl enumeration exceeded cap {limit}")
