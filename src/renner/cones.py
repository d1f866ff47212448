"""Rational polyhedral cones and affine monoids, over exact integers.

Cones carry both a generator (V) and a halfspace (H) representation.  The
conversion in both directions is the double description method, run with
integer arithmetic.  Canonical form: the lineality lattice is presented by
its Hermite normal form basis, extreme rays are reduced to primitive
integer representatives with the lineality pivot coordinates zeroed out,
and everything is sorted lexicographically, so cone equality is list
equality of canonical generators.

Caches are filled idempotently (compute, then assign), which keeps
concurrent first computation safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import budgets
from .errors import BudgetExceededError, SearchBudgetExceededError
from .linalg import (
    IntVec,
    coset_reduce,
    dot,
    integer_kernel,
    integer_preimage,
    lattice_box,
    lattice_member,
    matrix_rank,
    primitive,
    reduce_mod_subspace,
    row_hnf,
    vec_neg,
    vec_sub,
)


def _unit_vectors(dim: int) -> list[IntVec]:
    return [tuple(int(i == j) for j in range(dim)) for i in range(dim)]


def _double_description(halfspaces: list[IntVec], dim: int) -> list[IntVec]:
    """Rays of {x : h.x >= 0 for all h}, modulo its lineality space.

    Rays come out as primitive integer vectors; they include every extreme
    ray and may include redundant ones, which ``_extreme_filter`` drops.
    """
    lin: list[IntVec] = _unit_vectors(dim)
    rays: list[IntVec] = []
    processed: list[IntVec] = []

    def zeroset(v: IntVec) -> frozenset[int]:
        return frozenset(k for k, h in enumerate(processed) if dot(h, v) == 0)

    for a in halfspaces:
        idx = next((k for k, b in enumerate(lin) if dot(a, b) != 0), None)
        if idx is not None:
            # The constraint cuts the lineality space: one basis vector
            # becomes a ray, the rest are adjusted into the hyperplane.
            b0 = lin[idx]
            if dot(a, b0) < 0:
                b0 = vec_neg(b0)
            d0 = dot(a, b0)
            others = [b for k, b in enumerate(lin) if k != idx]
            lin = [
                primitive(tuple(d0 * x - dot(a, b) * y for x, y in zip(b, b0)))
                for b in others
            ]
            rays = [
                primitive(tuple(d0 * x - dot(a, r) * y for x, y in zip(r, b0)))
                for r in rays
            ]
            rays.append(primitive(b0))
        else:
            plus = [r for r in rays if dot(a, r) > 0]
            zero = [r for r in rays if dot(a, r) == 0]
            minus = [r for r in rays if dot(a, r) < 0]
            if minus:
                zsets = {r: zeroset(r) for r in rays}
                combos: list[IntVec] = []
                for rp in plus:
                    for rm in minus:
                        common = zsets[rp] & zsets[rm]
                        adjacent = not any(
                            r is not rp and r is not rm and common <= zsets[r]
                            for r in rays
                        )
                        if adjacent:
                            combo = tuple(
                                dot(a, rp) * x - dot(a, rm) * y
                                for x, y in zip(rm, rp)
                            )
                            if any(combo):
                                combos.append(primitive(combo))
                rays = plus + zero + combos
        rays = list(dict.fromkeys(rays))
        processed.append(a)
    return rays


def _extreme_filter(rays: list[IntVec], constraints: list[IntVec],
                    lineality_dim: int, dim: int) -> list[IntVec]:
    """Keep the rays whose minimal face has dimension lineality_dim + 1."""
    kept = []
    for r in rays:
        tight = [h for h in constraints if dot(h, r) == 0]
        face_dim = dim - matrix_rank(tight) if tight else dim
        if face_dim == lineality_dim + 1:
            kept.append(r)
    return kept


class RationalCone:
    """A finitely generated convex rational polyhedral cone.

    Construct with :meth:`from_generators` or :meth:`from_halfspaces`.  The
    missing representation is computed lazily via double description and
    cached; canonical forms are computed on demand.
    """

    def __init__(self, ambient_dim: int, *, generators=None, halfspaces=None):
        if ambient_dim <= 0:
            raise ValueError("ambient dimension must be positive")
        cap = budgets.DEFAULT_DUAL_DIM
        if ambient_dim > cap:
            raise BudgetExceededError(
                f"ambient dimension {ambient_dim} exceeds bound {cap}")
        if generators is None and halfspaces is None:
            raise ValueError("need generators or halfspaces")
        self.ambient_dim = ambient_dim
        self._raw_generators = self._clean(generators) if generators is not None else None
        self._raw_halfspaces = self._clean(halfspaces) if halfspaces is not None else None
        self._canonical_generators: tuple[IntVec, ...] | None = None
        self._canonical_halfspaces: tuple[IntVec, ...] | None = None
        self._lineality: tuple[IntVec, ...] | None = None
        self._extreme: tuple[IntVec, ...] | None = None
        self._point_cache: dict[int, tuple[IntVec, ...]] = {}

    @classmethod
    def from_generators(cls, ambient_dim: int, generators) -> "RationalCone":
        return cls(ambient_dim, generators=generators)

    @classmethod
    def from_halfspaces(cls, ambient_dim: int, halfspaces) -> "RationalCone":
        return cls(ambient_dim, halfspaces=halfspaces)

    def _clean(self, vectors) -> tuple[IntVec, ...]:
        out = []
        for v in vectors:
            t = tuple(int(x) for x in v)
            if len(t) != self.ambient_dim:
                raise ValueError("vector dimension mismatch")
            if any(t):
                out.append(t)
        return tuple(dict.fromkeys(out))

    # -- representations ----------------------------------------------------

    @property
    def halfspaces(self) -> tuple[IntVec, ...]:
        """A valid H-representation (possibly redundant)."""
        if self._raw_halfspaces is not None:
            return self._raw_halfspaces
        return self.canonical_halfspaces()

    def _dual_data_from(self, constraints) -> tuple[tuple[IntVec, ...], ...]:
        """Canonical data of {x : c.x >= 0}: the extreme rays, the HNF basis
        of the lineality lattice, and the canonical generators (the rays
        together with both signs of each primitive lineality vector, sorted)."""
        cons = sorted(set(primitive(c) for c in constraints if any(c)))
        rays = _double_description(cons, self.ambient_dim)
        if cons:
            lattice = tuple(integer_kernel(cons, self.ambient_dim))
        else:
            lattice = tuple(_unit_vectors(self.ambient_dim))
        rays = _extreme_filter(rays, cons, len(lattice), self.ambient_dim)
        zero = tuple([0] * self.ambient_dim)
        canon = {reduce_mod_subspace(r, lattice) for r in rays} - {zero}
        lines = {primitive(u) for b in lattice for u in (b, vec_neg(b))}
        return tuple(sorted(canon)), lattice, tuple(sorted(canon | lines))

    def canonical_generators(self) -> tuple[IntVec, ...]:
        """Primitive integer generators in canonical (sorted) order."""
        if self._canonical_generators is None:
            rays, lattice, canonical = self._dual_data_from(self.halfspaces)
            self._extreme = rays
            self._lineality = lattice
            self._canonical_generators = canonical
        return self._canonical_generators

    def canonical_halfspaces(self) -> tuple[IntVec, ...]:
        """Canonical H-representation: the canonical generators of the dual."""
        if self._canonical_halfspaces is None:
            source = self._raw_generators
            if source is None:
                source = self.canonical_generators()
            _, _, canonical = self._dual_data_from(source)
            self._canonical_halfspaces = canonical
            if self._raw_halfspaces is None:
                self._raw_halfspaces = canonical
        return self._canonical_halfspaces

    def extreme_rays(self) -> tuple[IntVec, ...]:
        if self._extreme is None:
            self.canonical_generators()
        return self._extreme

    def lineality_lattice(self) -> tuple[IntVec, ...]:
        """HNF basis of the integer points of the maximal linear subspace."""
        if self._lineality is None:
            self.canonical_generators()
        return self._lineality

    # -- predicates ----------------------------------------------------------

    def contains(self, v) -> bool:
        coords = tuple(int(x) for x in v)
        if len(coords) != self.ambient_dim:
            raise ValueError("vector dimension mismatch")
        return all(dot(h, coords) >= 0 for h in self.halfspaces)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalCone):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.canonical_generators() == other.canonical_generators())

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.canonical_generators()))

    def __repr__(self) -> str:
        return (f"RationalCone(dim={self.ambient_dim}, "
                f"generators={list(self.canonical_generators())})")

    def to_json_dict(self) -> dict:
        return {
            "dim": self.ambient_dim,
            "generators": [list(g) for g in self.canonical_generators()],
            "halfspaces": [list(h) for h in self.canonical_halfspaces()],
        }


def dual_cone(c: RationalCone) -> RationalCone:
    """The dual cone {y : g.y >= 0 for all generators g of c}."""
    return RationalCone.from_generators(c.ambient_dim, c.canonical_halfspaces())


def intersect(cones: list[RationalCone]) -> RationalCone:
    """Intersection of cones of equal dimension, by concatenating
    H-representations and recomputing the generators."""
    if not cones:
        raise ValueError("need at least one cone")
    dim = cones[0].ambient_dim
    if any(c.ambient_dim != dim for c in cones):
        raise ValueError("ambient dimensions differ")
    halfspaces: list[IntVec] = []
    for c in cones:
        halfspaces.extend(c.halfspaces)
    return RationalCone.from_halfspaces(dim, halfspaces)


def enumerate_points(c: RationalCone, height_bound: int) -> tuple[IntVec, ...]:
    """All lattice points of the cone with max-norm <= height_bound, in
    lexicographic order.  Cached on the cone per bound."""
    if height_bound < 0:
        raise ValueError("height bound must be non-negative")
    cap = budgets.DEFAULT_ENUM_DIM
    if c.ambient_dim > cap:
        raise BudgetExceededError(
            f"dimension {c.ambient_dim} exceeds enumeration bound {cap}")
    cached = c._point_cache.get(height_bound)
    if cached is not None:
        return cached
    halfspaces = c.halfspaces
    points = tuple(
        p for p in lattice_box(c.ambient_dim, height_bound)
        if all(dot(h, p) >= 0 for h in halfspaces)
    )
    c._point_cache[height_bound] = points
    return points


# ---------------------------------------------------------------------------
# Lattice monoids

class LatticeMonoid:
    """The monoid of non-negative integer combinations of a generating set.

    Generators are deduplicated and sorted but never rescaled: the monoid
    generated by (2, 0) is not the monoid generated by (1, 0).
    """

    def __init__(self, ambient_dim: int, generators):
        if ambient_dim <= 0:
            raise ValueError("ambient dimension must be positive")
        self.ambient_dim = ambient_dim
        gens = []
        for g in generators:
            t = tuple(int(x) for x in g)
            if len(t) != ambient_dim:
                raise ValueError("generator dimension mismatch")
            if any(t):
                gens.append(t)
        self.generators = tuple(sorted(set(gens)))
        self._cone: RationalCone | None = None
        self._units_hnf: tuple[IntVec, ...] | None = None
        self._search_gens: tuple[IntVec, ...] | None = None
        self._memo: dict = {}

    def __repr__(self) -> str:
        return f"LatticeMonoid(dim={self.ambient_dim}, generators={list(self.generators)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeMonoid):
            return NotImplemented
        return (self.ambient_dim, self.generators) == (other.ambient_dim, other.generators)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.generators))

    def cone(self) -> RationalCone:
        if self._cone is None:
            self._cone = RationalCone.from_generators(self.ambient_dim, self.generators)
        return self._cone

    def _split_units(self) -> None:
        # Generators inside the lineality space span the monoid's group of
        # units; combinations of the rest stay pointed modulo that group.
        cone = self.cone()
        unit_gens = [g for g in self.generators
                     if cone.contains(g) and cone.contains(vec_neg(g))]
        self._units_hnf = tuple(row_hnf(unit_gens, self.ambient_dim)) if unit_gens else ()
        unit_set = set(unit_gens)
        self._search_gens = tuple(g for g in self.generators if g not in unit_set)

    def units_contains(self, v: IntVec) -> bool:
        if self._units_hnf is None:
            self._split_units()
        if not any(v):
            return True
        if not self._units_hnf:
            return False
        return lattice_member(v, self._units_hnf)

    def search_generators(self) -> tuple[IntVec, ...]:
        if self._search_gens is None:
            self._split_units()
        return self._search_gens

    def to_json_dict(self) -> dict:
        return {"dim": self.ambient_dim,
                "generators": [list(g) for g in self.generators]}


def monoid_contains(m: LatticeMonoid, v) -> bool:
    """Exact membership of an integer vector in the monoid.

    Depth-first search over combinations of the non-unit generators, pruned
    by membership of the residual in the rational cone, with residuals
    tested against the unit lattice.  Terminates because every subtraction
    strictly decreases a linear functional that is positive on the cone away
    from its lineality.  Raises SearchBudgetExceededError when the node
    budget (``budgets.search_nodes()``) runs out, which is distinct from a
    False answer.

    The search runs on an explicit stack (window scans can be deep) and
    memoizes decided states on the monoid across calls.
    """
    coords = tuple(int(x) for x in v)
    if len(coords) != m.ambient_dim:
        raise ValueError("vector dimension mismatch")
    if not any(coords):
        return True
    cone = m.cone()
    if not cone.contains(coords):
        return False
    budget = budgets.search_nodes()
    gens = m.search_generators()
    halfspaces = cone.halfspaces
    memo = m._memo
    nodes = 0

    def enter(residual: IntVec, start: int, stack: list):
        """Memo hit gives the answer; otherwise a frame is pushed (None)."""
        nonlocal nodes
        hit = memo.get((residual, start))
        if hit is not None:
            return hit
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceededError(
                f"monoid membership search exceeded {budget} nodes")
        if m.units_contains(residual):
            memo[(residual, start)] = True
            return True
        stack.append([residual, start, start])
        return None

    stack: list = []
    first = enter(coords, 0, stack)
    if first is not None:
        return first
    while stack:
        frame = stack[-1]
        residual, start, j = frame
        suspended = False
        result = False
        while j < len(gens):
            child = vec_sub(residual, gens[j])
            if all(dot(h, child) >= 0 for h in halfspaces):
                sub = enter(child, j, stack)
                if sub is None:
                    frame[2] = j  # resume here once the child resolves
                    suspended = True
                    break
                if sub:
                    result = True
                    break
            j += 1
        if suspended:
            continue
        memo[(residual, start)] = result
        stack.pop()
    return memo[(coords, 0)]


# ---------------------------------------------------------------------------
# Hilbert bases

def _parallelotope_points(subset: list[IntVec], dim: int) -> list[IntVec]:
    """Integer points of {sum t_i s_i : 0 <= t_i <= 1} for independent s_i."""
    r = len(subset)
    cols: list[int] = []
    for j in range(dim):
        if len(cols) == r:
            break
        candidate = cols + [j]
        sub = [[subset[i][k] for k in candidate] for i in range(r)]
        if matrix_rank(sub) == len(candidate):
            cols = candidate
    square = tuple(tuple(Fraction(subset[i][k]) for i in range(r)) for k in cols)
    from .linalg import rational_inverse

    inv = rational_inverse(square)
    lo = [sum(min(0, s[j]) for s in subset) for j in range(dim)]
    hi = [sum(max(0, s[j]) for s in subset) for j in range(dim)]
    points: list[IntVec] = []
    for p in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        rhs = [p[k] for k in cols]
        t = [sum((f * x for f, x in zip(row, rhs)), Fraction(0)) for row in inv]
        if any(x < 0 or x > 1 for x in t):
            continue
        if all(sum(t[i] * subset[i][j] for i in range(r)) == p[j] for j in range(dim)):
            points.append(tuple(p))
    return points


def _hilbert_pointed(rays: list[IntVec], dim: int) -> list[IntVec]:
    """Hilbert basis of the lattice points of a pointed cone given by its
    extreme rays: parallelotope candidates over maximal independent subsets
    of the rays (which cover the cone), then reduction to the irreducible
    elements."""
    if not rays:
        return []
    cone = RationalCone.from_generators(dim, rays)
    rank = matrix_rank(rays)
    candidates: set[IntVec] = set()
    for subset in itertools.combinations(rays, rank):
        if matrix_rank(subset) != rank:
            continue
        for p in _parallelotope_points(list(subset), dim):
            if any(p):
                candidates.add(p)
    ordered = sorted(candidates)
    basis = []
    for h in ordered:
        reducible = any(
            c != h and cone.contains(vec_sub(h, c)) for c in ordered
        )
        if not reducible:
            basis.append(h)
    return basis


def hilbert_basis(c: RationalCone) -> tuple[IntVec, ...]:
    """The minimal generating set of the monoid of lattice points of the cone.

    Non-pointed cones are split along the maximal linear subspace: the result
    is the HNF basis of the lineality lattice with both signs, together with
    canonical lifts of the Hilbert basis of the pointed quotient.
    """
    cap = budgets.DEFAULT_HILBERT_DIM
    if c.ambient_dim > cap:
        raise BudgetExceededError(
            f"dimension {c.ambient_dim} exceeds Hilbert bound {cap}")
    lattice = c.lineality_lattice()
    rays = c.extreme_rays()
    out: set[IntVec] = set()
    for b in lattice:
        out.add(b)
        out.add(vec_neg(b))
    if rays:
        if lattice:
            proj = integer_kernel(lattice, c.ambient_dim)
            qdim = len(proj)
            qrays = [primitive(tuple(dot(row, r) for row in proj)) for r in rays]
            qrays = [q for q in dict.fromkeys(qrays) if any(q)]
            for q in _hilbert_pointed(qrays, qdim):
                lift = integer_preimage(proj, q, c.ambient_dim)
                if lift is None:
                    raise RuntimeError("quotient lift failed")
                out.add(coset_reduce(lift, lattice))
        else:
            out.update(_hilbert_pointed(list(rays), c.ambient_dim))
    return tuple(sorted(out))


@dataclass(frozen=True)
class SaturationCertificate:
    """Outcome of a saturation check, with the certificate level achieved.

    ``hilbert_basis`` is the Hilbert basis of the monoid's cone when it was
    computed (affordable, and the window check passed), else None.
    """

    saturated: bool
    level: str  # "exact" (Hilbert certificate) or "bounded:h<N>"
    counterexample: IntVec | None = None
    hilbert_basis: tuple[IntVec, ...] | None = None

    def __bool__(self) -> bool:
        return self.saturated


def is_saturated(m: LatticeMonoid, height_bound: int) -> SaturationCertificate:
    """Check that the monoid contains every lattice point of its cone.

    Always runs the bounded window check; when the Hilbert basis of the cone
    is affordable the certificate is exact (membership of every Hilbert
    basis element certifies saturation outright, not just up to the bound).
    """
    cone = m.cone()
    for p in enumerate_points(cone, height_bound):
        if not monoid_contains(m, p):
            return SaturationCertificate(False, f"bounded:h{height_bound}", p)
    try:
        basis = hilbert_basis(cone)
    except BudgetExceededError:
        return SaturationCertificate(True, f"bounded:h{height_bound}")
    for h in basis:
        if not monoid_contains(m, h):
            return SaturationCertificate(False, "exact", h, basis)
    return SaturationCertificate(True, "exact", hilbert_basis=basis)
