"""The enveloping-semigroup cone on pairs of weights and its idempotent
projection onto the weight lattice.

For a semisimple datum of rank n, the cone lives in dimension 2n: a pair
(first, second) belongs to it when ``second - w(first)`` has non-negative
rational simple-root coordinates for every Weyl element w.  Its lattice
points are the integer pairs whose difference lies in the root lattice
(integral simple-root coordinates), which is exactly the character lattice
of the enhanced group.

Evaluation at the idempotent point of a Levi subset sends a non-negative
root monomial to 1 when it is supported on the Levi nodes and to 0
otherwise; the induced projection (first, second) -> eps * first maps the
cone's lattice points onto the Levi-Weyl orbit of the dominant cone, which
``check_image`` verifies on windows in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import budgets
from .cones import RationalCone, enumerate_points
from .linalg import IntVec, lattice_box, primitive
from .parabolic_monoid import ParabolicData, in_wm_dominant
from .reports import CheckReport
from .root_datum import (
    Coweight,
    LeviSubset,
    RootDatum,
    Weight,
    cartan_adjugate,
    chamber_walk,
    integral_root_coordinates,
    weyl_orbit,
)


@dataclass(frozen=True)
class CpPoint:
    """Idempotent evaluation rule: 1 on the Levi simple roots, 0 off them."""

    levi: LeviSubset


@dataclass(frozen=True)
class VinbergCone:
    datum: RootDatum
    cone: RationalCone


def _positive_root_functionals(datum: RootDatum) -> tuple[IntVec, ...]:
    """Integer covectors whose non-negativity on a weight says that its
    simple-root coordinates are non-negative (scaled fundamental coweights)."""
    _, adj, _ = cartan_adjugate(datum, datum.full_levi())
    return tuple(primitive(row) for row in adj)


def vinberg_cone(datum: RootDatum) -> VinbergCone:
    """The cone of weight pairs (first, second) with second - w(first) in the
    non-negative rational root span for every Weyl element w.  Cached per
    datum; every call checks the largest coweight orbit it walked against
    ``budgets.weyl_cap()``."""
    if datum.central_rank != 0:
        raise ValueError("the pair cone requires a semisimple datum")
    vc, largest = _vinberg_cone(datum)
    budgets.check_weyl_cap(largest)
    return vc


@lru_cache(maxsize=None)
def _vinberg_cone(datum: RootDatum) -> tuple[VinbergCone, int]:
    full = datum.full_levi()
    orbits = [(u, sorted(c.coords for c in weyl_orbit(datum, full, Coweight(u))))
              for u in _positive_root_functionals(datum)]
    # u.(second - w(first)) >= 0 is the covector (-w^T u, u) on (first,
    # second), and w^T u runs over the coweight orbit of u.
    halfspaces = [tuple(-a for a in x) + u for u, orbit in orbits for x in orbit]
    cone = RationalCone.from_halfspaces(2 * datum.rank, halfspaces)
    return VinbergCone(datum, cone), max((len(o) for _, o in orbits), default=0)


def eval_at_cp(datum: RootDatum, v: Weight, cp: CpPoint) -> int:
    """Evaluate a non-negative root monomial at the Levi idempotent point.

    Requires integral, non-negative simple-root coordinates; returns 1 when
    the monomial is supported on the Levi nodes, 0 otherwise.
    """
    datum.check_levi(cp.levi)
    coords = integral_root_coordinates(datum, v.coords, datum.full_levi())
    if coords is None:
        raise ValueError("weight is not in the non-negative integral root span")
    return _supported_on_levi(datum, coords, cp.levi)


def _supported_on_levi(datum: RootDatum, coords: IntVec, levi: LeviSubset) -> int:
    """The idempotent value of a root monomial given by its simple-root
    coordinates: 1 when it is supported on the Levi nodes, 0 otherwise."""
    if any(c < 0 for c in coords):
        raise ValueError("weight is not in the non-negative integral root span")
    return int(all(c == 0 for label, c in zip(datum.weight_basis_labels, coords)
                   if label not in levi.nodes))


def pr_off_levi(datum: RootDatum, v: Weight, levi: LeviSubset) -> tuple[int, ...]:
    """Simple-root coordinates of a root-lattice weight on the nodes outside
    the Levi subset, in increasing node order."""
    datum.check_levi(levi)
    coords = integral_root_coordinates(datum, v.coords, datum.full_levi())
    if coords is None:
        raise ValueError("weight is not in the root lattice")
    return tuple(c for label, c in zip(datum.weight_basis_labels, coords)
                 if label not in levi.nodes)


def _difference_in_root_lattice(datum: RootDatum, diff: IntVec) -> bool:
    return integral_root_coordinates(datum, diff, datum.full_levi()) is not None


def _pairs_with_root_coordinates(vc: VinbergCone, height_bound: int):
    """Yield each lattice pair of the window (see ``lattice_pairs``) with the
    simple-root coordinates of its difference, solved once per point."""
    datum = vc.datum
    n = datum.rank
    full = datum.full_levi()
    for p in enumerate_points(vc.cone, height_bound):
        coords = integral_root_coordinates(
            datum, tuple(p[n + i] - p[i] for i in range(n)), full)
        if coords is not None:
            yield p, coords


def lattice_pairs(vc: VinbergCone, height_bound: int) -> tuple[IntVec, ...]:
    """Lattice points of the pair cone with max-norm <= height_bound whose
    difference lies in the root lattice, matching the character lattice of
    the enhanced group."""
    return tuple(p for p, _ in _pairs_with_root_coordinates(vc, height_bound))


def _split_pair(vc: VinbergCone, pair: tuple[Weight, Weight]) -> IntVec:
    first, second = pair
    n = vc.datum.rank
    if len(first.coords) != n or len(second.coords) != n:
        raise ValueError("pair dimension mismatch")
    return first.coords + second.coords


def project_idempotent(vc: VinbergCone, cp: CpPoint,
                       pair: tuple[Weight, Weight]) -> Weight:
    """Apply the weight map (first, second) -> eps * first, with eps the
    idempotent evaluation of the difference."""
    point = _split_pair(vc, pair)
    if not vc.cone.contains(point):
        raise ValueError("pair is outside the cone")
    first, second = pair
    diff = second - first
    if not _difference_in_root_lattice(vc.datum, diff.coords):
        raise ValueError("pair difference is not in the root lattice")
    eps = eval_at_cp(vc.datum, diff, cp)
    return first.scale(eps)


def check_image(pd: ParabolicData, height_bound: int) -> CheckReport:
    """Verify on a window that the idempotent projection maps the pair cone's
    lattice points exactly onto the Levi-Weyl orbit of the dominant cone.

    Raises ValueError for a datum with a central torus, which has no pair
    cone."""
    datum = pd.datum
    vc = vinberg_cone(datum)
    datum.check_levi(pd.levi)
    cp = CpPoint(pd.levi)
    report = CheckReport("vinberg-image", pd.instance(),
                         f"window:h{height_bound}", True)
    n = datum.rank
    for point, coords in _pairs_with_root_coordinates(vc, height_bound):
        first = Weight(point[:n])
        image = first.scale(_supported_on_levi(datum, coords, pd.levi))
        if not in_wm_dominant(pd, image):
            report.add_counterexample({
                "kind": "image-escapes-orbit",
                "pair": [list(point[:n]), list(point[n:])],
                "image": list(image.coords),
            })
    for coords in lattice_box(n, height_bound):
        v = Weight(coords)
        if not in_wm_dominant(pd, v):
            continue
        rep = Weight(chamber_walk(datum, coords, pd.levi))
        point = v.coords + rep.coords
        if not vc.cone.contains(point):
            report.add_counterexample({
                "kind": "witness-pair-outside-cone",
                "vector": list(coords),
                "pair": [list(v.coords), list(rep.coords)],
            })
            continue
        image = project_idempotent(vc, cp, (v, rep))
        if image != v:
            report.add_counterexample({
                "kind": "witness-pair-misses-vector",
                "vector": list(coords),
                "image": list(image.coords),
            })
    return report
