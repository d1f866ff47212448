"""Weight sets of dual Weyl modules and their invariant-vector filters.

Only weight SETS are computed, never multiplicities: the set of weights of
a dual Weyl module is the dominance-saturated hull of the Weyl orbit of its
highest weight, which is characteristic-independent.

One breadth-first descent builds every weight set.  It walks down from the
highest weight lambda through the simple roots of one Levi subset and keeps
each weight that lies in the saturated set of lambda for a second one.  Root
steps alone reach the whole set: every weight other than lambda has a simple
root that raises it to another weight, since the module is spanned by
lowering operators applied to the highest-weight vector.

* ``dual_weyl_weights`` walks and tests with the same Levi subset.  Tests
  hold it against an exhaustive window filter that builds the same set
  independently.
* ``invariant_weights_by_descent`` gives the weights invariant under the
  unipotent radical U(P): the weights v with lambda - v in N Delta_L.  It
  walks the Levi simple roots and tests against the full weight set, since
  a chain of weights from v up to lambda steps by simple roots that all
  lie in L.  ``uinv`` uses it.  ``levi-restriction`` builds the full weight
  set and filters it by the Levi dominance order
  (``up_invariant_weights``), and tests use that filter as the oracle of
  the descent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .parabolic_monoid import ParabolicData, in_wm_dominant
from .reports import CheckReport, instance_label
from .root_datum import (
    LeviSubset,
    RootDatum,
    Weight,
    chamber_walk,
    dominance_leq,
    is_dominant,
    weyl_orbit,
)


@dataclass(frozen=True)
class WeightSet:
    """The set of weights of a highest-weight module for a Levi factor."""

    datum: RootDatum
    levi: LeviSubset
    highest: Weight
    elements: frozenset[Weight]


def _is_member(datum: RootDatum, levi: LeviSubset, hw: Weight, v: Weight) -> bool:
    rep = Weight(chamber_walk(datum, v.coords, levi))
    return dominance_leq(datum, rep, hw, levi)


def _descend(datum: RootDatum, levi: LeviSubset, member: LeviSubset,
             hw: Weight) -> WeightSet:
    """Breadth-first descent from ``hw`` by the simple roots of ``levi``,
    keeping each weight u with ``_is_member(datum, member, hw, u)``."""
    roots = [datum.simple_root(i) for i in sorted(levi.nodes)]
    seen: set[Weight] = {hw}
    queue = deque([hw])
    while queue:
        v = queue.popleft()
        for step in roots:
            u = v - step
            if u not in seen and _is_member(datum, member, hw, u):
                seen.add(u)
                queue.append(u)
    return WeightSet(datum, levi, hw, frozenset(seen))


def dual_weyl_weights(datum: RootDatum, levi: LeviSubset, hw: Weight) -> WeightSet:
    """Saturated weight set with the given highest weight: all weights whose
    Levi-dominant representative lies below it in the Levi dominance order.

    Computed by breadth-first descent from the highest weight through the
    Levi simple roots, which alone reach every weight (module docstring).
    """
    datum.check_levi(levi)
    if not is_dominant(hw, levi):
        raise ValueError("highest weight is not dominant for the Levi subset")
    return _descend(datum, levi, levi, hw)


def up_invariant_weights(ws: WeightSet, levi: LeviSubset) -> WeightSet:
    """The weights of the module that survive taking invariants under the
    unipotent radical: those below the highest weight in the Levi order."""
    datum = ws.datum
    datum.check_levi(levi)
    kept = frozenset(v for v in ws.elements
                     if dominance_leq(datum, v, ws.highest, levi))
    return WeightSet(datum, levi, ws.highest, kept)


def invariant_weights_by_descent(datum: RootDatum, levi: LeviSubset,
                                 hw: Weight) -> WeightSet:
    """The weights of the module with highest weight ``hw`` (dominant for
    the whole diagram) that lie below it in the Levi dominance order, the
    same set as ``up_invariant_weights`` of the full weight set.

    Computed by breadth-first descent from the highest weight, subtracting
    Levi simple roots only and keeping what stays in the full weight set.
    """
    datum.check_levi(levi)
    return _descend(datum, levi, datum.full_levi(), hw)


def check_levi_restriction(datum: RootDatum, levi: LeviSubset, *highest: Weight) -> CheckReport:
    """Verify, for each given highest weight, that filtering the full weight
    set by the Levi dominance order gives exactly the weight set of the Levi
    module with the same highest weight (two independently computed sides)."""
    if not highest:
        raise ValueError("levi-restriction needs at least one highest weight")
    report = CheckReport("levi-restriction", instance_label(datum.type_string, levi.nodes),
                         "exact", True)
    for hw in highest:
        full = dual_weyl_weights(datum, datum.full_levi(), hw)
        left = up_invariant_weights(full, levi).elements
        right = dual_weyl_weights(datum, levi, hw).elements
        if left != right:
            report.add_counterexample({
                "kind": "restriction-mismatch",
                "highest": list(hw.coords),
                "only_in_filter": sorted([list(v.coords) for v in left - right]),
                "only_in_levi_module": sorted([list(v.coords) for v in right - left]),
            })
    return report


def check_cor_uinv(pd: ParabolicData, hw_window) -> CheckReport:
    """Verify that invariant weights land in the Levi-Weyl orbit of the
    dominant cone (containment) and that every orbit element is realized as
    an invariant weight of the module of its dominant representative
    (exhaustion), for each highest weight of a non-empty window."""
    datum, levi = pd.datum, pd.levi
    window = tuple(hw_window)
    if not window:
        raise ValueError("uinv needs a non-empty window of highest weights")
    report = CheckReport("uinv", pd.instance(), "window", True)
    for hw in window:
        if not is_dominant(hw, datum.full_levi()):
            raise ValueError("window weights must be dominant")
        invariant = invariant_weights_by_descent(datum, levi, hw).elements
        for v in invariant:
            if not in_wm_dominant(pd, v):
                report.add_counterexample({
                    "kind": "invariant-weight-outside-orbit",
                    "highest": list(hw.coords),
                    "vector": list(v.coords),
                })
        for v in sorted(weyl_orbit(datum, levi, hw), key=lambda w: w.coords):
            if v not in invariant:
                report.add_counterexample({
                    "kind": "orbit-weight-not-realized",
                    "highest": list(hw.coords),
                    "vector": list(v.coords),
                })
    return report
