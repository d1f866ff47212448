"""Enumeration limits, the one place where they live.

* ``DEFAULT_DUAL_DIM``, ``DEFAULT_ENUM_DIM`` and ``DEFAULT_HILBERT_DIM``
  bound the ambient dimension of a cone, of a lattice-window enumeration
  and of a Hilbert basis computation.
* ``weyl_cap()`` bounds the size of an enumerated Weyl group or Weyl
  orbit and ``search_nodes()`` the nodes of one monoid membership search.
  The RENNER_BUDGET environment variable, when set to a positive integer,
  overrides both.

No function takes a per-call limit.  Every limit is read when the limited
function runs, so RENNER_BUDGET and a patched constant take effect at once.
"""

from __future__ import annotations

import os

DEFAULT_WEYL_CAP = 10**6
DEFAULT_SEARCH_NODES = 10**6
DEFAULT_DUAL_DIM = 12
DEFAULT_HILBERT_DIM = 8
DEFAULT_ENUM_DIM = 12


def _env_override() -> int | None:
    raw = os.environ.get("RENNER_BUDGET")
    if not raw:
        return None
    value = int(raw)
    if value <= 0:
        raise ValueError("RENNER_BUDGET must be a positive integer")
    return value


def weyl_cap() -> int:
    return _env_override() or DEFAULT_WEYL_CAP


def search_nodes() -> int:
    return _env_override() or DEFAULT_SEARCH_NODES
