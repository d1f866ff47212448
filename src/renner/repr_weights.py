"""Weight sets of dual Weyl modules and their invariant-vector filters.

Only weight SETS are computed, never multiplicities: the set of weights of
a dual Weyl module is the dominance-saturated hull of the Weyl orbit of its
highest weight, which is characteristic-independent.  Two independent
constructions are provided (breadth-first descent and an exhaustive window
filter); tests hold them against each other.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .parabolic_monoid import ParabolicData, in_wm_dominant
from .reports import CheckReport, instance_label
from .root_datum import (
    LeviSubset,
    RootDatum,
    Weight,
    act,
    chamber_walk,
    dominance_leq,
    integral_root_coordinates,
    is_dominant,
    simple_reflection,
    weyl_group,
)


@dataclass(frozen=True)
class WeightSet:
    """The set of weights of a highest-weight module for a Levi factor."""

    datum: RootDatum
    levi: LeviSubset
    highest: Weight
    elements: frozenset[Weight]

    def sorted_elements(self) -> tuple[Weight, ...]:
        return tuple(sorted(self.elements, key=lambda w: w.coords))


def _is_member(datum: RootDatum, levi: LeviSubset, hw: Weight, v: Weight) -> bool:
    rep = Weight(chamber_walk(datum, v.coords, levi))
    return dominance_leq(datum, rep, hw, levi)


def dual_weyl_weights(datum: RootDatum, levi: LeviSubset, hw: Weight) -> WeightSet:
    """Saturated weight set with the given highest weight: all weights whose
    Levi-dominant representative lies below it in the Levi dominance order.

    Computed by breadth-first descent from the highest weight, subtracting
    Levi simple roots and closing under the Levi reflections.
    """
    datum.check_levi(levi)
    if not is_dominant(hw, levi):
        raise ValueError("highest weight is not dominant for the Levi subset")
    roots = [datum.simple_root(i) for i in sorted(levi.nodes)]
    reflections = [simple_reflection(datum, i) for i in sorted(levi.nodes)]
    seen: set[Weight] = {hw}
    queue = deque([hw])
    while queue:
        v = queue.popleft()
        for step in roots:
            u = v - step
            if u not in seen and _is_member(datum, levi, hw, u):
                seen.add(u)
                queue.append(u)
        for s in reflections:
            u = act(s, v)
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return WeightSet(datum, levi, hw, frozenset(seen))


def saturated_hull_by_window(datum: RootDatum, levi: LeviSubset, hw: Weight) -> frozenset[Weight]:
    """Second, independent construction of the same weight set: filter the
    box of non-negative Levi-root displacements from the highest weight."""
    datum.check_levi(levi)
    if not is_dominant(hw, levi):
        raise ValueError("highest weight is not dominant for the Levi subset")
    nodes = sorted(levi.nodes)
    if not nodes:
        return frozenset({hw})
    group = weyl_group(datum, levi)
    orbit = [act(w, hw) for w in group]
    # Bound each displacement coefficient by its value at the orbit vertices.
    bounds = [0] * len(nodes)
    for v in orbit:
        coeffs = integral_root_coordinates(datum, (hw - v).coords, levi)
        bounds = [max(b, c) for b, c in zip(bounds, coeffs)]
    roots = [datum.simple_root(i) for i in nodes]
    members = set()
    for combo in itertools.product(*[range(b + 1) for b in bounds]):
        v = hw
        for n_i, root in zip(combo, roots):
            v = v - root.scale(n_i)
        if _is_member(datum, levi, hw, v):
            members.add(v)
    return frozenset(members)


def up_invariant_weights(ws: WeightSet, levi: LeviSubset) -> WeightSet:
    """The weights of the module that survive taking invariants under the
    unipotent radical: those below the highest weight in the Levi order."""
    datum = ws.datum
    datum.check_levi(levi)
    kept = frozenset(v for v in ws.elements
                     if dominance_leq(datum, v, ws.highest, levi))
    return WeightSet(datum, levi, ws.highest, kept)


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
    group = weyl_group(datum, levi)
    for hw in window:
        if not is_dominant(hw, datum.full_levi()):
            raise ValueError("window weights must be dominant")
        full = dual_weyl_weights(datum, datum.full_levi(), hw)
        invariant = up_invariant_weights(full, levi).elements
        for v in invariant:
            if not in_wm_dominant(pd, v):
                report.add_counterexample({
                    "kind": "invariant-weight-outside-orbit",
                    "highest": list(hw.coords),
                    "vector": list(v.coords),
                })
        for w in group:
            v = act(w, hw)
            if v not in invariant:
                report.add_counterexample({
                    "kind": "orbit-weight-not-realized",
                    "highest": list(hw.coords),
                    "vector": list(v.coords),
                })
    return report
