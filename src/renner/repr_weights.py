"""Weight sets of dual Weyl modules and their invariant-vector filters.

Only weight SETS are computed, never multiplicities: the set of weights of
a dual Weyl module is the dominance-saturated hull of the Weyl orbit of its
highest weight, which is characteristic-independent.

One breadth-first descent (``_descend``) builds every weight set.  It walks
down from the highest weight lambda through the simple roots of one Levi
subset and keeps each weight that lies in the saturated set of lambda for a
second one, tested by that subset's shared chamber walker.  Root steps
alone reach the whole set: every weight other than lambda has a simple
root that raises it to another weight, since the module is spanned by
lowering operators applied to the highest-weight vector.

* ``dual_weyl_weights`` walks and tests with the same Levi subset.  Tests
  hold it against an exhaustive window filter that builds the same set
  independently.
* The descent records, for each kept weight v, the support of lambda - v
  as a bitmask of node labels (bit i - 1 for node i): the parent's support
  with the bits of the step's support set.  Every step is a non-negative
  combination of simple roots, and the simple roots are linearly
  independent, so lambda - v has one coordinate vector, non-negative, and
  its support is the union of the supports of the steps, whatever path
  reached v.
* ``up_invariant_weights`` gives the weights invariant under the
  unipotent radical U(P), the weights v with lambda - v in N Delta_L, by
  keeping those whose recorded support lies in the Levi nodes, with no
  root solve; ``levi-restriction`` holds that filter against the Levi
  module, which its own descent builds.
* ``uinv`` visits one weight of each W_L-orbit of that set: the
  descent steps by the positive roots of L and keeps only Levi-dominant
  weights of the full weight set.  Among dominant weights the dominance
  order is generated by subtracting positive roots (Stembridge, "The
  partial order of dominant weights", Adv. Math. 136, 1998), so applied to
  L it reaches every Levi-dominant invariant weight, and the set is
  W_L-stable, so those meet every orbit.  On the full Levi subset of B4,
  over the 81 highest weights in [0,2]^4, it keeps 3 102 weights of the
  343 062 invariant ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .parabolic_monoid import ParabolicData, build_parabolic, in_wm_dominant
from .reports import CheckReport, instance_label
from .root_datum import (
    LeviSubset,
    RootDatum,
    Weight,
    chamber_walker,
    dominance_leq,
    integral_root_coordinates,
    is_dominant,
    weyl_orbit,
)


@dataclass(frozen=True)
class WeightSet:
    """The set of weights of a highest-weight module for a Levi factor.

    ``supports`` maps each element v to the support of highest - v in the
    simple roots, as a bitmask of node labels (bit i - 1 for node i); the
    descent of ``dual_weyl_weights`` records it, and ``up_invariant_weights``
    reads it.  A set built without it (None) cannot be filtered.  It takes
    no part in equality, which the elements and the rest decide."""

    datum: RootDatum
    levi: LeviSubset
    highest: Weight
    elements: frozenset[Weight]
    supports: dict[Weight, int] | None = field(default=None, compare=False, repr=False)


def _is_member(datum: RootDatum, levi: LeviSubset, walk, hw: Weight, v: Weight) -> bool:
    """Whether v lies in the weight set of hw for the Levi subset, whose
    chamber walker is ``walk``: its Levi-dominant representative lies below
    hw in the Levi dominance order.  A representative equal to hw needs no
    root solve, since hw - hw = 0 lies in N Delta_L."""
    rep = walk(v.coords)
    return rep == hw.coords or dominance_leq(datum, Weight(rep), hw, levi)


def _node_mask(labels) -> int:
    """The bitmask of a set of node labels: bit i - 1 for node i."""
    return sum(1 << (i - 1) for i in labels)


def _simple_roots(datum: RootDatum, levi: LeviSubset) -> dict[Weight, int]:
    """The simple roots of the Levi factor, in node order, each mapped to
    its support bitmask."""
    return {datum.simple_root(i): _node_mask((i,)) for i in sorted(levi.nodes)}


def _positive_roots(datum: RootDatum, levi: LeviSubset) -> dict[Weight, int]:
    """The positive roots of the Levi factor, in increasing coordinate
    order, each mapped to its support bitmask: the members of the W_L-orbits
    of its simple roots whose coordinates in those simple roots are
    non-negative."""
    found = {r.coords for i in levi.nodes
             for r in weyl_orbit(datum, levi, datum.simple_root(i))}
    nodes = sorted(levi.nodes)
    roots = {}
    for r in sorted(found):
        coeffs = integral_root_coordinates(datum, r, levi)
        if all(x >= 0 for x in coeffs):
            roots[Weight(r)] = _node_mask(i for i, x in zip(nodes, coeffs) if x)
    return roots


def _descend(datum: RootDatum, member: LeviSubset, hw: Weight, steps,
             dominant_on=()) -> dict[Weight, int]:
    """Breadth-first descent from ``hw`` by the weights ``steps``, a map of
    each step to its support bitmask, keeping each weight u that is
    non-negative at the node labels ``dominant_on`` and passes
    ``_is_member`` for ``member``, by the walker that ``chamber_walker``
    shares for ``member``.  The kept weights, in the order found, each
    mapped to the support of hw - u (module docstring)."""
    walk = chamber_walker(datum, member)
    positions = [i - 1 for i in dominant_on]
    kept = {hw: 0}
    order = [hw]
    for v in order:
        support = kept[v]
        for step, bits in steps.items():
            u = v - step
            if (u not in kept and all(u.coords[p] >= 0 for p in positions)
                    and _is_member(datum, member, walk, hw, u)):
                kept[u] = support | bits
                order.append(u)
    return kept


def dual_weyl_weights(datum: RootDatum, levi: LeviSubset, hw: Weight) -> WeightSet:
    """Saturated weight set with the given highest weight: all weights whose
    Levi-dominant representative lies below it in the Levi dominance order.

    Computed by breadth-first descent from the highest weight through the
    Levi simple roots, which alone reach every weight (module docstring);
    the descent records each weight's support as it goes.
    """
    datum.check_levi(levi)
    if not is_dominant(hw, levi):
        raise ValueError("highest weight is not dominant for the Levi subset")
    supports = _descend(datum, levi, hw, _simple_roots(datum, levi))
    return WeightSet(datum, levi, hw, frozenset(supports), supports)


def up_invariant_weights(ws: WeightSet, levi: LeviSubset) -> WeightSet:
    """The weights of the module that survive taking invariants under the
    unipotent radical: those below the highest weight in the Levi order,
    that is those v whose recorded support of highest - v lies in the Levi
    nodes.  The set must carry its supports (``WeightSet``); the result
    carries theirs, so it can be filtered again."""
    datum = ws.datum
    datum.check_levi(levi)
    if ws.supports is None:
        raise ValueError("the weight set carries no supports to filter by")
    outside = ~_node_mask(levi.nodes)
    supports = {v: s for v, s in ws.supports.items() if not s & outside}
    return WeightSet(datum, levi, ws.highest, frozenset(supports), supports)


def check_levi_restriction(datum: RootDatum, levi: LeviSubset, *highest: Weight) -> CheckReport:
    """Verify, for each given highest weight, that filtering the full weight
    set by the Levi dominance order gives exactly the weight set of the Levi
    module with the same highest weight (two independently computed sides).
    The filter side reads the supports that the full set's descent recorded
    (``up_invariant_weights``); the Levi-module side runs its own descent,
    through the Levi simple roots, with membership tested in the Levi order.

    The full weight sets do not depend on the Levi subset: each is built by
    ``dual_weyl_weights`` once per highest weight and kept in the
    ``weight_sets`` table of the full Levi's shared ``ParabolicData``, which
    every Levi subset reads.  Building that instance walks the Weyl orbits
    of the fundamental weights, so ``budgets.weyl_cap()`` bounds them."""
    if not highest:
        raise ValueError("levi-restriction needs at least one highest weight")
    report = CheckReport("levi-restriction", instance_label(datum.type_string, levi.nodes),
                         "exact", True)
    full_levi = datum.full_levi()
    weight_sets = build_parabolic(datum, full_levi).weight_sets
    for hw in highest:
        full = weight_sets.get(hw)
        if full is None:
            full = weight_sets[hw] = dual_weyl_weights(datum, full_levi, hw)
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
    (exhaustion), for each highest weight of a non-empty window.

    The invariant weights of lambda are W_L-stable, and ``in_wm_dominant``
    reads only the Levi-dominant representative of a weight, the same on a
    whole W_L-orbit, so containment is tested on the Levi-dominant invariant
    weights alone.  They are found by descending from lambda by the positive
    roots of L through Levi-dominant weights of the full weight set: among
    dominant weights, the dominance order is generated by subtracting
    positive roots (Stembridge, "The partial order of dominant weights",
    Adv. Math. 136, 1998).  A Levi-dominant mu with lambda - mu in N Delta_L
    is dominant, since the off-diagonal Cartan entries are <= 0, so
    containment amounts to that statement, as it did on representatives.
    Exhaustion tests every weight v of the W_L-orbit of lambda by the
    membership predicate itself: lambda - v in N Delta_L and v in the full
    weight set."""
    datum, levi = pd.datum, pd.levi
    window = tuple(hw_window)
    if not window:
        raise ValueError("uinv needs a non-empty window of highest weights")
    report = CheckReport("uinv", pd.instance(), "window", True)
    full = datum.full_levi()
    walk = chamber_walker(datum, full)
    roots = _positive_roots(datum, levi)
    for hw in window:
        if not is_dominant(hw, full):
            raise ValueError("window weights must be dominant")
        for v in _descend(datum, full, hw, roots, levi.nodes):
            if not in_wm_dominant(pd, v):
                report.add_counterexample({
                    "kind": "invariant-weight-outside-orbit",
                    "highest": list(hw.coords),
                    "vector": list(v.coords),
                })
        for v in sorted(weyl_orbit(datum, levi, hw), key=lambda w: w.coords):
            if not (dominance_leq(datum, v, hw, levi)
                    and _is_member(datum, full, walk, hw, v)):
                report.add_counterexample({
                    "kind": "orbit-weight-not-realized",
                    "highest": list(hw.coords),
                    "vector": list(v.coords),
                })
    return report
