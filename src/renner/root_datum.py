"""Split root data, Weyl groups, and dominance orders.

Coordinates
-----------
Weights are integer vectors in the basis dual to the simple coroots
(fundamental-weight coordinates), extended by central torus coordinates.
Coweights are integer vectors in the basis of simple coroots, extended the
same way.  With these choices the canonical pairing is the plain dot
product, the j-th simple root is the j-th column of the Cartan matrix, and
the j-th simple coroot is the j-th standard basis vector.

The Cartan matrix convention is C[i][j] = value of the j-th simple root on
the i-th simple coroot, so dominance of a weight is a coordinate sign test.

Orbit kernel
------------
Simple reflections act on coordinate tuples, with no Weyl element or
matrix product (Stembridge, "Computational aspects of root systems, Coxeter
groups, and Weyl characters", 2001).  ``_levi_kernel`` checks a Levi subset
and sets it up once per datum: its sorted positions, each simple root as
the non-zero entries of its Cartan column (at most 4), the adjugate and the
(positive) determinant of its Cartan block, and two closures over them.
Every routine below reads that kernel.  The chamber walk moves a weight to
the subset's dominant chamber: while some Levi coordinate v_j is negative
it reflects, v <- v - v_j * alpha_j.  ``chamber_walker`` returns it, so
``ParabolicData`` and every weight-set descent share one walker per datum
and subset.  The root solve, run by
``integral_root_coordinates``, is the one integer root-coordinate solver:
integrality and sign of simple-root coordinates are remainder and sign
tests on ``adj @ v``.  The dominance order, the idempotent evaluation in
``vinberg`` and ``simple_root_coordinates`` all go through the kernel.
``weyl_orbit`` lists the orbit of a weight or coweight by breadth-first
search over the Levi's simple reflections; every builder takes its orbits
from it, and the weight sets of ``repr_weights`` reflect on coordinates
too.  Action matrices are stored in a ``WeylElement`` and applied by the
test oracles, never multiplied: ``weyl_group`` and
``dominant_representative`` step from w to s_j w by the same reflections,
applied to each column.  Neither has a caller in the package, whose
commands walk orbits only; both stay for the test oracles and the
benchmark tracer until the tracer no longer wraps them.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from . import budgets
from .errors import BudgetExceededError
from .linalg import (
    IntMat,
    IntVec,
    _bareiss,
    adjugate_and_det,
    identity_matrix,
)


@dataclass(frozen=True)
class _CoordinateVector:
    """Integer coordinates; arithmetic keeps the subclass, and vectors of
    different subclasses are never equal."""

    coords: IntVec

    def __add__(self, other):
        return type(self)(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other):
        return type(self)(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __neg__(self):
        return type(self)(tuple(-a for a in self.coords))

    def scale(self, k: int):
        return type(self)(tuple(k * a for a in self.coords))


class Weight(_CoordinateVector):
    """Element of the weight lattice, in fundamental-weight coordinates."""


class Coweight(_CoordinateVector):
    """Element of the coweight lattice, in simple-coroot coordinates."""


def pairing(weight: Weight, coweight: Coweight) -> int:
    """Canonical pairing between a weight and a coweight."""
    return sum(a * b for a, b in zip(weight.coords, coweight.coords, strict=True))


@dataclass(frozen=True)
class LeviSubset:
    """A subset of Dynkin node labels selecting a Levi factor."""

    nodes: frozenset[int]

    def __contains__(self, label: int) -> bool:
        return label in self.nodes

    def sorted_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.nodes))


def levi(*labels: int) -> LeviSubset:
    return LeviSubset(frozenset(labels))


@dataclass(frozen=True)
class RootDatum:
    """A split root datum: Cartan matrix plus an optional central torus.

    ``cartan_matrix[i][j]`` is the value of simple root j on simple coroot i.
    Node labels are 1-based in Bourbaki order.
    """

    cartan_matrix: IntMat
    central_rank: int = 0
    type_string: str | None = None

    def __post_init__(self) -> None:
        n = len(self.cartan_matrix)
        if any(len(row) != n for row in self.cartan_matrix):
            raise ValueError("Cartan matrix must be square")
        if self.central_rank < 0:
            raise ValueError("central rank must be non-negative")
        for i in range(n):
            if self.cartan_matrix[i][i] != 2:
                raise ValueError("Cartan matrix diagonal must be 2")
            for j in range(n):
                if i != j:
                    cij = self.cartan_matrix[i][j]
                    cji = self.cartan_matrix[j][i]
                    if cij > 0:
                        raise ValueError("off-diagonal Cartan entries must be <= 0")
                    if (cij == 0) != (cji == 0):
                        raise ValueError("Cartan matrix zero pattern must be symmetric")
        _check_finite_type(self.cartan_matrix)

    @property
    def rank(self) -> int:
        return len(self.cartan_matrix)

    @property
    def dim(self) -> int:
        return self.rank + self.central_rank

    @property
    def weight_basis_labels(self) -> tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    def simple_root(self, label: int) -> Weight:
        """The simple root at a node, as a weight (column of the Cartan matrix)."""
        j = self._index(label)
        col = tuple(self.cartan_matrix[i][j] for i in range(self.rank))
        return Weight(col + (0,) * self.central_rank)

    def simple_coroot(self, label: int) -> Coweight:
        j = self._index(label)
        return Coweight(tuple(int(i == j) for i in range(self.dim)))

    def fundamental_weight(self, label: int) -> Weight:
        j = self._index(label)
        return Weight(tuple(int(i == j) for i in range(self.dim)))

    def central_weight(self, k: int) -> Weight:
        """Basis weight of the k-th central torus coordinate (0-based)."""
        if not 0 <= k < self.central_rank:
            raise ValueError("central coordinate out of range")
        j = self.rank + k
        return Weight(tuple(int(i == j) for i in range(self.dim)))

    @property
    def simple_roots(self) -> tuple[Weight, ...]:
        return tuple(self.simple_root(i) for i in self.weight_basis_labels)

    def full_levi(self) -> LeviSubset:
        return LeviSubset(frozenset(self.weight_basis_labels))

    @cached_property
    def _label_set(self) -> frozenset[int]:
        return frozenset(self.weight_basis_labels)

    def check_levi(self, subset: LeviSubset) -> None:
        if not subset.nodes <= self._label_set:
            raise ValueError(f"Levi nodes {sorted(subset.nodes)} not in diagram")

    def _index(self, label: int) -> int:
        if not 1 <= label <= self.rank:
            raise ValueError(f"node label {label} out of range")
        return label - 1

    def to_json_dict(self) -> dict:
        return {
            "type": self.type_string,
            "rank": self.rank,
            "cartan_matrix": [list(row) for row in self.cartan_matrix],
            "central_rank": self.central_rank,
        }


def _check_finite_type(c: IntMat) -> None:
    """Every principal minor of a finite-type Cartan matrix is positive.  The
    checks before this one make c a Z-matrix (off-diagonal entries <= 0), and
    a Z-matrix has every principal minor positive exactly when it has every
    leading principal minor positive (Fiedler and Ptak).  One forward
    elimination pass decides those n minors: while it needs no row exchange
    and finds a pivot in every column, its k-th pivot is the k-th leading
    principal minor, and a column without a pivot leaves a zero on the
    diagonal, so the n minors are all positive exactly when the pass makes
    no exchange and every diagonal entry is positive.  A rank-r datum's
    Renner cone has dimension at least r, so no rank above
    ``budgets.DEFAULT_DUAL_DIM`` is accepted."""
    limit = budgets.DEFAULT_DUAL_DIM
    if len(c) > limit:
        raise ValueError(f"rank above the supported bound ({limit})")
    work, _, swaps = _bareiss(c)
    if swaps or any(row[k] <= 0 for k, row in enumerate(work)):
        raise ValueError("Cartan matrix is not of finite type")


# ---------------------------------------------------------------------------
# Built-in Cartan types

def _chain(n: int) -> list[list[int]]:
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        c[i][i + 1] = -1
        c[i + 1][i] = -1
    return c


def _cartan_table(family: str, n: int) -> IntMat:
    if family == "A":
        if n < 1:
            raise ValueError("A requires rank >= 1")
        c = _chain(n)
    elif family == "B":
        if n < 2:
            raise ValueError("B requires rank >= 2")
        c = _chain(n)
        c[n - 1][n - 2] = -2
    elif family == "C":
        if n < 2:
            raise ValueError("C requires rank >= 2")
        c = _chain(n)
        c[n - 2][n - 1] = -2
    elif family == "D":
        if n < 3:
            raise ValueError("D requires rank >= 3")
        c = _chain(n)
        c[n - 1][n - 2] = 0
        c[n - 2][n - 1] = 0
        c[n - 1][n - 3] = -1
        c[n - 3][n - 1] = -1
    elif family == "E":
        if n not in (6, 7, 8):
            raise ValueError("E requires rank 6, 7 or 8")
        c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]
        for a, b in edges:
            if a <= n and b <= n:
                c[a - 1][b - 1] = -1
                c[b - 1][a - 1] = -1
    elif family == "F":
        if n != 4:
            raise ValueError("F requires rank 4")
        c = _chain(4)
        c[2][1] = -2
    elif family == "G":
        if n != 2:
            raise ValueError("G requires rank 2")
        c = [[2, -3], [-1, 2]]
    else:
        raise ValueError(f"unknown family {family!r}")
    return tuple(tuple(row) for row in c)


_COMPONENT_RE = re.compile(r"^([A-G])(\d+)$|^T(\d+)$")


def build_datum(type_string: str) -> RootDatum:
    """Build a simply-connected root datum from a Cartan-type expression.

    The expression is a product of irreducible types and optional central
    torus factors, e.g. ``"A2"``, ``"B3"``, ``"A1xA1"``, ``"A2xT1"``.
    Components may be separated by ``x``, ``*`` or the multiplication sign.
    """
    text = type_string.strip().replace("×", "x").replace("*", "x")
    if not text:
        raise ValueError("empty type string")
    blocks: list[IntMat] = []
    central = 0
    for part in text.split("x"):
        m = _COMPONENT_RE.match(part.strip().upper())
        if not m:
            raise ValueError(f"cannot parse type component {part!r}")
        if m.group(3) is not None:
            if int(m.group(3)) < 1:
                raise ValueError("T requires rank >= 1")
            central += int(m.group(3))
        else:
            blocks.append(_cartan_table(m.group(1), int(m.group(2))))
    rank = sum(len(b) for b in blocks)
    cartan = [[0] * rank for _ in range(rank)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                cartan[offset + i][offset + j] = x
        offset += len(block)
    return RootDatum(tuple(tuple(row) for row in cartan), central, text)


# ---------------------------------------------------------------------------
# Weyl elements

@dataclass(frozen=True, eq=False)
class WeylElement:
    """A Weyl group element with its cached action matrices.

    ``weight_matrix`` acts on weight coordinates, ``coweight_matrix`` on
    coweight coordinates; both fix the central block.  Equality and hashing
    go through the weight action, so duplicate words collapse.
    """

    word: tuple[int, ...]
    weight_matrix: IntMat
    coweight_matrix: IntMat

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.weight_matrix == other.weight_matrix

    def __hash__(self) -> int:
        return hash(self.weight_matrix)


@dataclass(frozen=True, eq=False)
class _LeviKernel:
    """One Levi subset's set-up (``_levi_kernel``): its 0-based positions in
    increasing order; each node label, in that order, mapped to the
    (index, value) entries of its simple root and simple coroot; the
    adjugate and determinant of its Cartan block; the chamber walk and the
    integer root solve."""

    positions: tuple[int, ...]
    reflections: dict[int, tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]]
    adj: IntMat
    det: int
    walk: Callable[..., IntVec]
    solve: Callable[[IntVec], IntVec | None]


@lru_cache(maxsize=None)
def _levi_kernel(datum: RootDatum, subset: LeviSubset) -> _LeviKernel:
    """The kernel of a Levi subset, built once per datum and subset.  The
    subset is checked here: a node outside the diagram raises ValueError."""
    datum.check_levi(subset)
    c, rank, dim = datum.cartan_matrix, datum.rank, datum.dim
    positions = tuple(sorted(i - 1 for i in subset.nodes))
    columns = {j: tuple((i, c[i][j]) for i in range(rank) if c[i][j]) for j in positions}
    adj, det = adjugate_and_det(tuple(tuple(c[r][p] for p in positions) for r in positions))
    off = [(i, tuple(c[i][p] for p in positions))
           for i in range(rank) if i not in positions]

    def walk(coords: IntVec, labels: list[int] | None = None) -> IntVec:
        if len(coords) != dim:
            raise ValueError("dimension mismatch")
        v = list(coords)
        while True:
            for j in positions:
                if v[j] < 0:
                    break
            else:
                return tuple(v)
            vj = v[j]
            for i, a in columns[j]:
                v[i] -= vj * a
            if labels is not None:
                labels.append(j + 1)

    def solve(coords: IntVec) -> IntVec | None:
        if len(coords) != dim:
            raise ValueError("dimension mismatch")
        x = [coords[p] for p in positions]
        out = []
        for row in adj:
            y = sum(map(mul, row, x))
            if y % det:
                return None
            out.append(y // det)
        if any(coords[rank:]) or any(coords[i] != sum(map(mul, out, row)) for i, row in off):
            return None
        return tuple(out)

    reflections = {j + 1: (columns[j], ((j, 1),)) for j in positions}
    return _LeviKernel(positions, reflections, adj, det, walk, solve)


def _reflect_columns(m: IntMat, f, e) -> IntMat:
    """The matrix whose columns are x - <f, x> e for the columns x of m, as
    ``weyl_orbit`` reflects a tuple; only the rows that e names change."""
    s = [0] * len(m)
    for k, a in f:
        for col, x in enumerate(m[k]):
            s[col] += a * x
    rows = list(m)
    for i, a in e:
        rows[i] = tuple(x - a * y for x, y in zip(rows[i], s))
    return tuple(rows)


def weyl_group(datum: RootDatum, subset: LeviSubset) -> tuple[WeylElement, ...]:
    """All elements of the group generated by the reflections of a Levi subset.

    Breadth-first closure, deduplicated by weight matrix, so the stored words
    are reduced.  The matrices of s_j w are those of w with the simple
    reflection applied to each column; the coweight matrix is built only for
    a new element.  Raises BudgetExceededError past ``budgets.weyl_cap()``.
    """
    reflections = _levi_kernel(datum, subset).reflections
    limit = budgets.weyl_cap()
    eye = identity_matrix(datum.dim)
    ident = WeylElement((), eye, eye)
    seen: dict[IntMat, WeylElement] = {eye: ident}
    frontier = [ident]
    while frontier:
        next_frontier = []
        for w in frontier:
            for label, (root, coroot) in reflections.items():
                weight_matrix = _reflect_columns(w.weight_matrix, coroot, root)
                if weight_matrix not in seen:
                    sw = WeylElement((label,) + w.word, weight_matrix,
                                     _reflect_columns(w.coweight_matrix, root, coroot))
                    seen[weight_matrix] = sw
                    next_frontier.append(sw)
                    if len(seen) > limit:
                        raise BudgetExceededError(
                            f"Weyl enumeration exceeded cap {limit}")
        frontier = next_frontier
    return tuple(sorted(seen.values(), key=lambda w: (len(w.word), w.word)))


def weyl_orbit(datum: RootDatum, subset: LeviSubset, v: Weight | Coweight):
    """The orbit of a weight or coweight under the subset's Weyl group, as a
    frozenset of the same type, by breadth-first search over the simple
    reflections x -> x - <f, x> e: f is the simple coroot and e the simple
    root for a weight, the other way round for a coweight.  Raises
    BudgetExceededError past ``budgets.weyl_cap()``."""
    kernel = _levi_kernel(datum, subset)
    if len(v.coords) != datum.dim:
        raise ValueError("dimension mismatch")
    reflections = [(coroot, root) if isinstance(v, Weight) else (root, coroot)
                   for root, coroot in kernel.reflections.values()]
    limit = budgets.weyl_cap()
    seen = {v.coords}
    frontier = [v.coords]
    while frontier:
        next_frontier = []
        for x in frontier:
            for f, e in reflections:
                s = sum(a * x[i] for i, a in f)
                if not s:
                    continue
                y = list(x)
                for i, a in e:
                    y[i] -= s * a
                y = tuple(y)
                if y not in seen:
                    seen.add(y)
                    next_frontier.append(y)
                    if len(seen) > limit:
                        raise BudgetExceededError(
                            f"Weyl enumeration exceeded cap {limit}")
        frontier = next_frontier
    return frozenset(map(type(v), seen))


def positive_coroots(datum: RootDatum) -> tuple[Coweight, ...]:
    """All positive coroots: the members of the Weyl orbits of the simple
    coroots with non-negative simple-coroot coordinates.  Cached per datum;
    every call checks the largest of those orbits against
    ``budgets.weyl_cap()``."""
    roots, largest = _positive_coroots(datum)
    budgets.check_weyl_cap(largest)
    return roots


@lru_cache(maxsize=None)
def _positive_coroots(datum: RootDatum) -> tuple[tuple[Coweight, ...], int]:
    full = datum.full_levi()
    orbits = [weyl_orbit(datum, full, datum.simple_coroot(i))
              for i in datum.weight_basis_labels]
    found = {x.coords for orbit in orbits for x in orbit}
    roots = tuple(Coweight(c) for c in sorted(found)
                  if all(x >= 0 for x in c[:datum.rank]))
    return roots, max(map(len, orbits), default=0)


def is_dominant(v: Weight, subset: LeviSubset) -> bool:
    """Whether the weight pairs non-negatively with the subset's coroots."""
    return all(v.coords[i - 1] >= 0 for i in subset.nodes)


def chamber_walker(datum: RootDatum, subset: LeviSubset):
    """The chamber walk of a Levi subset, as a function of a weight's
    coordinates (and an optional ``labels`` list) that returns the
    coordinates of the unique subset-dominant weight in the orbit of that
    weight under the subset's Weyl group.  The walk is set up once per datum
    and subset (``_levi_kernel``), so every caller gets the same function.

    Each call checks the dimension, then, while some subset coordinate v_j
    is negative, sets v to v - v_j * alpha_j, the reflection in the j-th
    simple root, taking the lowest such j; the root is read as the non-zero
    entries of its Cartan column (at most 4).  When ``labels`` is a list,
    the node label of each reflection is appended to it in the order
    applied.
    """
    return _levi_kernel(datum, subset).walk


def dominant_representative(datum: RootDatum, v: Weight, subset: LeviSubset) -> tuple[Weight, WeylElement]:
    """The unique subset-dominant element of the orbit of v, with a witness w
    such that the representative equals w applied to v."""
    kernel = _levi_kernel(datum, subset)
    labels: list[int] = []
    rep = kernel.walk(v.coords, labels)
    weight_matrix = coweight_matrix = identity_matrix(datum.dim)
    for label in labels:
        root, coroot = kernel.reflections[label]
        weight_matrix = _reflect_columns(weight_matrix, coroot, root)
        coweight_matrix = _reflect_columns(coweight_matrix, root, coroot)
    return Weight(rep), WeylElement(tuple(reversed(labels)), weight_matrix, coweight_matrix)


def integral_root_coordinates(datum: RootDatum, coords: IntVec,
                              subset: LeviSubset) -> IntVec | None:
    """Coordinates of a weight in the basis of the subset's simple roots,
    in increasing node order, or None when it is not an integer
    combination of those roots, by the subset's kernel: the remainders of
    ``adj @ v[positions]`` by ``det``, then the rows off the subset and the
    central coordinates.  Raises ValueError for a subset outside the
    diagram or coordinates of the wrong length."""
    return _levi_kernel(datum, subset).solve(coords)


def dominance_leq(datum: RootDatum, a, b, subset: LeviSubset) -> bool:
    """Whether b - a is a non-negative integer combination of the subset's
    simple roots (for weights) or simple coroots (for coweights)."""
    kernel = _levi_kernel(datum, subset)
    if type(a) is not type(b):
        raise TypeError("cannot compare a weight with a coweight")
    diff = tuple(x - y for x, y in zip(b.coords, a.coords, strict=True))
    if isinstance(a, Coweight):
        if len(diff) != datum.dim:
            raise ValueError("dimension mismatch")
        return all(x >= 0 if j in kernel.positions else x == 0 for j, x in enumerate(diff))
    coeffs = kernel.solve(diff)
    return coeffs is not None and all(x >= 0 for x in coeffs)


def simple_root_coordinates(datum: RootDatum, v: Weight) -> tuple[Fraction, ...]:
    """Coordinates of a weight in the simple-root basis (exact rationals).

    Raises ValueError when the weight leaves the span of the simple roots
    (i.e. has a central component).
    """
    rank = datum.rank
    if any(v.coords[rank:]):
        raise ValueError("weight has a central component")
    kernel = _levi_kernel(datum, datum.full_levi())
    return tuple(Fraction(sum(a * x for a, x in zip(row, v.coords)), kernel.det)
                 for row in kernel.adj)
