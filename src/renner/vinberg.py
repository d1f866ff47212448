"""The enveloping-semigroup cone on pairs of weights and its idempotent
projection onto the weight lattice.

For a semisimple datum of rank n, the cone lives in dimension 2n: a pair
(first, second) belongs to it when ``second - w(first)`` has non-negative
rational simple-root coordinates for every Weyl element w.  Its lattice
points are the integer pairs whose difference lies in the root lattice
(integral simple-root coordinates), which is exactly the character lattice
of the enhanced group.  The window of a height bound walks that pair lattice
itself, through its row HNF basis, instead of filtering the cone's points:
once per datum and bound, for all Levi subsets.  The walk is split at the
first weight (``_window_walk`` with ``split=n``).  The halfspaces that share
their second half fold there into one partial sum (30 sums to 4 for A4, 80
to 4 for B4), so below each first weight the walk's state is its folded sums
and lattice offsets; it walks each state once and hands first weights that
reach the same state one shared block of second weights.  The window keeps
these first-weight blocks, not the pairs (the A4 window at bound 2 has
9 967 pairs, 625 first weights and 215 blocks; the B4 window at bound 3 has
2 401 first weights and 512 blocks).  It solves the root coordinates of each
distinct difference second - first once (475 of them at A4 h2) and keeps
each difference's support (a bitmask of simple-root positions), and with it
a table of the minimal supports of each first weight's pairs
(``PairWindow``).

Evaluation at the idempotent point of a Levi subset sends a non-negative
root monomial to 1 when it is supported on the Levi nodes and to 0
otherwise; the induced projection (first, second) -> eps * first maps the
cone's lattice points onto the Levi-Weyl orbit of the dominant cone, which
``check_image`` verifies on windows in both directions.  A pair keeps its
first weight exactly when its support avoids the nodes outside the Levi
subset, so the images of a window are the first weights with a minimal
support inside the subset, and 0 when some support leaves it: one orbit test
per first weight, not per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import sub

from . import budgets
from .cones import RationalCone, _window_walk
from .errors import InternalError
from .linalg import IntVec, identity_matrix, lattice_box, primitive, row_hnf
from .parabolic_monoid import ParabolicData, in_wm_dominant
from .reports import CheckReport
from .root_datum import (
    Coweight,
    LeviSubset,
    RootDatum,
    Weight,
    cartan_adjugate,
    integral_root_coordinates,
    weyl_orbit,
)


@dataclass(frozen=True)
class CpPoint:
    """Idempotent evaluation rule: 1 on the Levi simple roots, 0 off them."""

    levi: LeviSubset


@dataclass(frozen=True)
class PairWindow:
    """The lattice pairs of a window as first-weight blocks: in walk order,
    each first weight with the tuple of its second weights, one tuple shared
    by every first weight whose walk state repeats.  ``solved`` maps each
    difference second - first to its support, the bitmask of the simple-root
    positions (bit i for node i + 1) where its root coordinates are
    non-zero, solved once.  ``first_supports`` maps each first weight, in
    walk order, to the minimal supports of its pairs."""

    blocks: tuple[tuple[IntVec, tuple[IntVec, ...]], ...]
    solved: dict[IntVec, int]
    first_supports: dict[IntVec, tuple[int, ...]]


@dataclass(frozen=True)
class VinbergCone:
    """The pair cone of a datum, with the row HNF basis of its lattice of
    pairs whose difference lies in the root lattice, and the window of each
    height bound walked so far."""

    datum: RootDatum
    cone: RationalCone
    lattice: tuple[IntVec, ...]
    _windows: dict[int, PairWindow] = field(
        default_factory=dict, compare=False, repr=False)


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
    vc = VinbergCone(datum, cone, _pair_lattice(datum))
    return vc, max((len(o) for _, o in orbits), default=0)


def _pair_lattice(datum: RootDatum) -> tuple[IntVec, ...]:
    """Row HNF basis of {(first, second) : second - first in the root
    lattice}, spanned by the diagonal pairs (e_i, e_i) and the pairs
    (0, alpha_j) of the simple roots."""
    n = datum.rank
    diagonal = [e + e for e in identity_matrix(n)]
    roots = [(0,) * n + alpha.coords for alpha in datum.simple_roots]
    return tuple(row_hnf(diagonal + roots, 2 * n))


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


def _pair_window(vc: VinbergCone, height_bound: int) -> PairWindow:
    """The window of lattice pairs (see ``lattice_pairs``) as first-weight
    blocks with their supports.  The walk steps through the pair lattice,
    so every pair solves; walked once per bound, and solved once per
    distinct difference second - first."""
    window = vc._windows.get(height_bound)
    if window is not None:
        return window
    datum = vc.datum
    n = datum.rank
    full = datum.full_levi()
    bits = [1 << i for i in range(n)]
    walked = _window_walk(vc.cone.halfspaces, 2 * n, height_bound, vc.lattice, split=n)
    solved: dict[IntVec, int] = {}
    first_supports: dict[IntVec, tuple[int, ...]] = {}
    for first, block in walked:
        diffs = [tuple(map(sub, second, first)) for second in block]
        masks = set(map(solved.get, diffs))
        if None in masks:
            for second, diff in zip(block, diffs):
                if diff in solved:
                    continue
                coords = integral_root_coordinates(datum, diff, full)
                if coords is None or any(c < 0 for c in coords):
                    raise InternalError(f"lattice pair {first + second} "
                                        "has no non-negative root coordinates")
                solved[diff] = sum(bit for bit, c in zip(bits, coords) if c)
            masks = set(map(solved.get, diffs))
        first_supports[first] = tuple(sorted(
            m for m in masks if not any(o != m and o & m == o for o in masks)))
    window = vc._windows[height_bound] = PairWindow(
        tuple(walked), solved, first_supports)
    return window


def lattice_pairs(vc: VinbergCone, height_bound: int) -> tuple[IntVec, ...]:
    """Lattice points of the pair cone with max-norm <= height_bound whose
    difference lies in the root lattice, matching the character lattice of
    the enhanced group."""
    return tuple(first + second for first, block in _pair_window(vc, height_bound).blocks
                 for second in block)


def _split_pair(vc: VinbergCone, pair: tuple[Weight, Weight]) -> IntVec:
    first, second = pair
    n = vc.datum.rank
    if len(first.coords) != n or len(second.coords) != n:
        raise ValueError("pair dimension mismatch")
    return first.coords + second.coords


def project_idempotent(vc: VinbergCone, cp: CpPoint,
                       pair: tuple[Weight, Weight]) -> Weight:
    """Apply the weight map (first, second) -> eps * first, with eps the
    idempotent evaluation of the difference.  Checks, in order: cone
    containment, root lattice, Levi subset, sign."""
    point = _split_pair(vc, pair)
    if not vc.cone.contains(point):
        raise ValueError("pair is outside the cone")
    first, second = pair
    datum = vc.datum
    coords = integral_root_coordinates(datum, (second - first).coords, datum.full_levi())
    if coords is None:
        raise ValueError("pair difference is not in the root lattice")
    datum.check_levi(cp.levi)
    return first.scale(_supported_on_levi(datum, coords, cp.levi))


def check_image(pd: ParabolicData, height_bound: int) -> CheckReport:
    """Verify on a window that the idempotent projection maps the pair cone's
    lattice points exactly onto the Levi-Weyl orbit of the dominant cone.

    Raises ValueError for a datum with a central torus, which has no pair
    cone."""
    datum = pd.datum
    vc = vinberg_cone(datum)
    datum.check_levi(pd.levi)
    report = CheckReport("vinberg-image", pd.instance(),
                         f"window:h{height_bound}", True)
    n = datum.rank
    window = _pair_window(vc, height_bound)
    member: dict[IntVec, bool] = {}

    def in_orbit(coords: IntVec) -> bool:
        hit = member.get(coords)
        if hit is None:
            hit = member[coords] = in_wm_dominant(pd, Weight(coords))
        return hit

    # A pair's image is its first weight when its support avoids the nodes
    # outside the Levi subset, and 0 otherwise.  The pair (0, 0), with
    # support 0, lies in every window, so first weight 0 is always tested,
    # which covers the image 0 of every pair.
    off_levi = sum(1 << (label - 1) for label in datum.weight_basis_labels
                   if label not in pd.levi)
    zero = (0,) * n
    if any(not in_orbit(first) for first, minimal in window.first_supports.items()
           if any(not m & off_levi for m in minimal)):
        # Report in window order, pair by pair.
        for first, block in window.blocks:
            for second in block:
                support = window.solved[tuple(map(sub, second, first))]
                image = zero if support & off_levi else first
                if not in_orbit(image):
                    report.add_counterexample({
                        "kind": "image-escapes-orbit",
                        "pair": [list(first), list(second)],
                        "image": list(image),
                    })
    full = datum.full_levi()
    for coords in lattice_box(n, height_bound):
        if not in_orbit(coords):
            continue
        rep = pd.walker(coords)
        point = coords + rep
        if not vc.cone.contains(point):
            report.add_counterexample({
                "kind": "witness-pair-outside-cone",
                "vector": list(coords),
                "pair": [list(coords), list(rep)],
            })
            continue
        diff = integral_root_coordinates(
            datum, tuple(r - c for r, c in zip(rep, coords)), full)
        if diff is None:
            raise InternalError(f"witness pair {point} has no root coordinates")
        # The image is the vector itself or 0, which misses it unless it is 0.
        if not _supported_on_levi(datum, diff, pd.levi) and any(coords):
            report.add_counterexample({
                "kind": "witness-pair-misses-vector",
                "vector": list(coords),
                "image": list(zero),
            })
    return report
