"""The enveloping-semigroup cone on pairs of weights and its idempotent
projection onto the weight lattice.

For a semisimple datum of rank n, the cone lives in dimension 2n: a pair
(first, second) belongs to it when ``second - w(first)`` has non-negative
rational simple-root coordinates for every Weyl element w.  Its lattice
points are the integer pairs whose difference lies in the root lattice
(integral simple-root coordinates), which is exactly the character lattice
of the enhanced group.

Every weight f of a Weyl orbit lies below the orbit's dominant weight f+ in
the dominance order, f+ - w(f) in N Delta (Stembridge, "The partial order of
dominant weights", 1998), so (f, s) lies in the cone exactly when s - f+ has
non-negative rational root coordinates, and is a lattice pair exactly when
s - f+ lies in N Delta.  The window of a height bound therefore needs no
walk in dimension 2n: the second weights of a first weight f depend on f+
alone, and are the points of the box above f+, walked in rank n with the n
positive-root functionals over the root-lattice coset of f+
(``_window_walk`` with f+ as origin).  The window is built once per datum
and bound, for all Levi subsets, and keeps each fact once (``PairWindow``):
the dominant weight f+ of every box weight, the support of f+ - f of every
first weight f with a non-empty block, and the minimal supports of each
dominant weight's block.  f+ - f and s - f+ both lie in N Delta, so the
support of a pair (a bitmask of simple-root positions) is
supp(f+ - f) | supp(s - f+): one root solve per first weight, and one
support per second weight of each block, read off the functionals.  A
dominant weight f+ in the box is its own second weight, with support 0, so
its only minimal support is 0 and no walk is needed to know it.  The blocks
themselves are walked when first read (``lattice_pairs``, or a failing
``check_image``), or when the window is built if some f+ lies outside the
box.  The A4 window at bound 2 has 9 967 pairs, 625 first weights and 81
dominant weights; the D5 window at bound 3 has 10.2 M pairs, 16 807 first
weights and 1 024 dominant weights, whose blocks hold 255 060 second
weights, and a passing check walks none of them.

Evaluation at the idempotent point of a Levi subset sends a non-negative
root monomial to 1 when it is supported on the Levi nodes and to 0
otherwise; the induced projection (first, second) -> eps * first maps the
cone's lattice points onto the Levi-Weyl orbit of the dominant cone, which
``check_image`` verifies on windows in both directions.  A pair keeps its
first weight exactly when its support avoids the nodes outside the Levi
subset, so the images of a window are the first weights f whose support of
f+ - f avoids those nodes, as some minimal support of f+'s block does, and 0
when some support leaves them: one orbit test per first weight, not per
pair.  The witness pair of a weight v is tested against the cone by the
same n functionals on its second weight minus v+, and so is the pair that
``project_idempotent`` is given.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import compress
from operator import ne, sub

from . import budgets
from .cones import RationalCone, _window_walk
from .errors import InternalError
from .linalg import IntVec, dot, lattice_box, mat_vec, primitive, row_hnf
from .parabolic_monoid import ParabolicData, in_wm_dominant
from .reports import CheckReport
from .root_datum import (
    Coweight,
    LeviSubset,
    RootDatum,
    Weight,
    _levi_kernel,
    integral_root_coordinates,
    weyl_orbit,
)


@dataclass(frozen=True)
class CpPoint:
    """Idempotent evaluation rule: 1 on the Levi simple roots, 0 off them."""

    levi: LeviSubset


Blocks = dict[IntVec, tuple[tuple[IntVec, ...], tuple[int, ...]]]


@dataclass(frozen=True)
class PairWindow:
    """The lattice pairs of a window, each fact kept once.  A support is the
    bitmask of the simple-root positions (bit i for node i + 1) where a
    weight's root coordinates are non-zero.  ``dominant`` maps each weight
    of the box, in lexicographic order, to its dominant weight f+.
    ``lifts`` maps each first weight f with a non-empty block, in walk
    order, to the support of f+ - f.  ``minimal`` maps each dominant weight
    f+ to the minimal supports of its block.  ``above``, walked on first
    read, maps each f+ to its block: the second weights s of the box above
    f+ and the supports of s - f+.  The pairs of f are (f, s) over the
    block of f+, with support lift | mask."""

    dominant: dict[IntVec, IntVec]
    lifts: dict[IntVec, int]
    minimal: dict[IntVec, tuple[int, ...]]
    walk_blocks: Callable[[], Blocks] = field(compare=False, repr=False)

    @cached_property
    def above(self) -> Blocks:
        return self.walk_blocks()


@dataclass(frozen=True)
class VinbergCone:
    """The pair cone of a datum, with the positive-root functionals that
    test its pairs in rank n, and the window of each height bound walked so
    far."""

    datum: RootDatum
    cone: RationalCone
    functionals: tuple[IntVec, ...]
    _windows: dict[int, PairWindow] = field(
        default_factory=dict, compare=False, repr=False)


def _positive_root_functionals(datum: RootDatum) -> tuple[IntVec, ...]:
    """Integer covectors whose non-negativity on a weight says that its
    simple-root coordinates are non-negative (scaled fundamental coweights)."""
    adj = _levi_kernel(datum, datum.full_levi()).adj
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
    functionals = _positive_root_functionals(datum)
    orbits = [(u, sorted(c.coords for c in weyl_orbit(datum, full, Coweight(u))))
              for u in functionals]
    # u.(second - w(first)) >= 0 is the covector (-w^T u, u) on (first,
    # second), and w^T u runs over the coweight orbit of u.
    halfspaces = [tuple(-a for a in x) + u for u, orbit in orbits for x in orbit]
    cone = RationalCone.from_halfspaces(2 * datum.rank, halfspaces)
    vc = VinbergCone(datum, cone, functionals)
    return vc, max((len(o) for _, o in orbits), default=0)


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


def _minimal(masks) -> tuple[int, ...]:
    """The inclusion-minimal bitmasks among masks, sorted."""
    return tuple(sorted(m for m in masks if not any(o != m and o & m == o for o in masks)))


def _walk_blocks(functionals: tuple[IntVec, ...], height_bound: int,
                 roots: tuple[IntVec, ...], tops: list[IntVec]) -> Blocks:
    """The block of each dominant weight f+ in tops: one walk in rank n from
    every f+ as its origin, over its root-lattice coset."""
    n = len(functionals)
    bits = [1 << i for i in range(n)]
    walked = _window_walk(functionals, n, height_bound, roots, origins=tops)
    # Each second weight once, with its values under the functionals; s - f+
    # is supported where they differ from those of f+.
    values: dict[IntVec, tuple[IntVec, IntVec]] = {}
    above = {}
    for top, points in zip(tops, walked):
        level = mat_vec(functionals, top)
        seconds, masks = [], []
        for point in points:
            entry = values.get(point)
            if entry is None:
                entry = values[point] = (point, mat_vec(functionals, point))
            seconds.append(entry[0])
            masks.append(sum(compress(bits, map(ne, entry[1], level))))
        above[top] = (tuple(seconds), tuple(masks))
    return above


def _pair_window(vc: VinbergCone, height_bound: int) -> PairWindow:
    """The window of lattice pairs (see ``lattice_pairs``).  Built once per
    bound: one chamber walk per weight of the box and one root solve per
    first weight.  The minimal supports of a dominant weight f+ in the box
    are (0,), as f+ is its own second weight; the blocks, one walk in rank
    n per distinct f+ over the points of the box above it in the dominance
    order, which every first weight of f+'s orbit shares, are walked when
    first read, or here when some f+ lies outside the box."""
    window = vc._windows.get(height_bound)
    if window is not None:
        return window
    datum = vc.datum
    n = datum.rank
    full = datum.full_levi()
    walk = _levi_kernel(datum, full).walk
    dominant: dict[IntVec, IntVec] = {}
    tops: dict[IntVec, IntVec] = {}
    for first in lattice_box(n, height_bound):
        top = walk(first)
        dominant[first] = tops.setdefault(top, top)
    roots = row_hnf([alpha.coords for alpha in datum.simple_roots], n)
    lifts: dict[IntVec, int] = {}
    minimal: dict[IntVec, tuple[int, ...]] = {}
    window = PairWindow(dominant, lifts, minimal,
                        partial(_walk_blocks, vc.functionals, height_bound, roots, list(tops)))
    for top in tops:
        minimal[top] = (0,) if top in dominant else _minimal(set(window.above[top][1]))
    bits = [1 << i for i in range(n)]
    for first, top in dominant.items():
        if not minimal[top]:  # an empty block: no pairs
            continue
        coords = integral_root_coordinates(datum, tuple(map(sub, top, first)), full)
        if coords is None or any(c < 0 for c in coords):
            raise InternalError(f"lattice pair {first + window.above[top][0][0]} "
                                "has no non-negative root coordinates")
        lifts[first] = sum(bit for bit, c in zip(bits, coords) if c)
    vc._windows[height_bound] = window
    return window


def lattice_pairs(vc: VinbergCone, height_bound: int) -> tuple[IntVec, ...]:
    """Lattice points of the pair cone with max-norm <= height_bound whose
    difference lies in the root lattice, matching the character lattice of
    the enhanced group."""
    window = _pair_window(vc, height_bound)
    return tuple(first + second for first in window.lifts
                 for second in window.above[window.dominant[first]][0])


def project_idempotent(vc: VinbergCone, cp: CpPoint,
                       pair: tuple[Weight, Weight]) -> Weight:
    """Apply the weight map (first, second) -> eps * first, with eps the
    idempotent evaluation of the difference.  Checks, in order: dimension,
    cone containment (the n positive-root functionals on second - first+,
    first+ the dominant weight of first), root lattice, Levi subset, sign."""
    first, second = pair
    datum = vc.datum
    n = datum.rank
    if len(first.coords) != n or len(second.coords) != n:
        raise ValueError("pair dimension mismatch")
    full = datum.full_levi()
    gap = tuple(map(sub, second.coords, _levi_kernel(datum, full).walk(first.coords)))
    if any(dot(u, gap) < 0 for u in vc.functionals):
        raise ValueError("pair is outside the cone")
    coords = integral_root_coordinates(datum, (second - first).coords, full)
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
    # outside the Levi subset, and 0 otherwise.  Its support is lift | mask,
    # so some pair of f keeps f exactly when the lift of f avoids those nodes
    # and some minimal mask of the block of f+ does.  The pair (0, 0), with
    # support 0, lies in every window, so first weight 0 is always tested,
    # which covers the image 0 of every pair.  Only a failing test reads the
    # blocks.
    off_levi = sum(1 << (label - 1) for label in datum.weight_basis_labels
                   if label not in pd.levi)
    zero = (0,) * n
    dominant, minimal = window.dominant, window.minimal
    if any(not in_orbit(first) for first, lift in window.lifts.items()
           if not lift & off_levi
           and any(not m & off_levi for m in minimal[dominant[first]])):
        # Report in window order, pair by pair.
        for first, lift in window.lifts.items():
            block, masks = window.above[dominant[first]]
            for second, mask in zip(block, masks):
                image = zero if (lift | mask) & off_levi else first
                if not in_orbit(image):
                    report.add_counterexample({
                        "kind": "image-escapes-orbit",
                        "pair": [list(first), list(second)],
                        "image": list(image),
                    })
    full = datum.full_levi()
    for coords, top in dominant.items():
        if not in_orbit(coords):
            continue
        rep = pd.walker(coords)
        point = coords + rep
        # (v, rep) lies in the cone exactly when rep - v+ has non-negative
        # root coordinates.
        gap = tuple(map(sub, rep, top))
        if any(dot(u, gap) < 0 for u in vc.functionals):
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
