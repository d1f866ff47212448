"""The three workloads of the renner benchmark.

Every workload is a closed loop with a single caller: the next operation is
issued only when the previous one has returned.  A workload object provides

* ``plan(seed, size)``: the operation keys of one pass, derived from the seed
  alone (the same seed gives the same keys in the same order);
* ``setup(keys, size)``: the objects the operations run against;
* ``execute(state, key)``: one operation, returning its raw output;
* ``check(key, raw, golden)``: ``None`` when the output is correct, otherwise
  the reason it is not (a failed report or a mismatch with the golden digest).

Keys are plain strings, so golden.json can index outputs by them.  ``size``
is ``"full"`` for benchmark runs and ``"tiny"`` for the benchmark's own
tests; every tiny key is also a full key, so one golden file covers both.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random

FLEET = ("A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1")
LEMMAS = ("wthull", "posU", "duality", "saturation",
          "levi-restriction", "uinv", "vinberg-image")
CONE_LEMMAS = ("posU", "duality", "saturation")


def levi_specs(type_string: str) -> list[str]:
    """Every Levi subset of a type, as CLI ``--levi`` strings."""
    from renner.root_datum import build_datum

    labels = build_datum(type_string).weight_basis_labels
    return [",".join(map(str, nodes))
            for size in range(len(labels) + 1)
            for nodes in itertools.combinations(labels, size)]


def digest(obj) -> str:
    """Short content digest of a JSON-serialisable value or a text."""
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def _mask(bits: str) -> int:
    return int(bits, 16)


def _golden_mismatch(expected: str | None, got: str) -> str | None:
    if expected is None:
        return "no golden entry"
    if expected != got:
        return f"golden mismatch: expected {expected}, got {got}"
    return None


# ---------------------------------------------------------------------------

class VerifyFleet:
    """CLI verification jobs, run in process through ``cli.run``."""

    name = "verify-fleet"
    why = ("End-to-end verification as a user runs it: cold root_datum, "
           "repr_weights and vinberg do most of the work, DD and Hilbert "
           "bases almost none.")
    left_out = {
        "uinv and vinberg-image on B3 and C3 (all Levi subsets)":
            "about 50 s per fleet pass; A3 and the A4 window keep both lemmas",
        "wthull and levi-restriction on A3, B3 and C3":
            "about 1.4 s per pass; three passes must fit in the run length",
        "uinv and vinberg-image on A3 beyond Levi {1,3}":
            "about 6 s more per pass than the run length allows",
    }

    SMALL_TYPES = ("A1", "A2", "B2", "G2", "A1xA1")
    RANK3_TYPES = ("A3", "B3", "C3")
    # (type, levi, lemma, bound): the 8-dimensional A4 window at bound 2.
    FRONTIER = ("A4", "2", "vinberg-image", 2)

    def jobs(self, size: str) -> list[tuple[str, str, str, int | None]]:
        if size == "tiny":
            return [(t, levi, lemma, None)
                    for t in ("A1", "A2") for levi in levi_specs(t)
                    for lemma in ("duality", "uinv", "vinberg-image")]
        out = [(t, levi, lemma, None)
               for t in self.SMALL_TYPES for levi in levi_specs(t)
               for lemma in LEMMAS]
        out += [(t, levi, lemma, None)
                for t in self.RANK3_TYPES for levi in levi_specs(t)
                for lemma in CONE_LEMMAS]
        out += [("A3", "1,3", lemma, None) for lemma in ("uinv", "vinberg-image")]
        out.append(self.FRONTIER)
        return out

    @staticmethod
    def key(job) -> str:
        t, levi, lemma, bound = job
        return f"{t}|{levi}|{lemma}|{'' if bound is None else bound}"

    @staticmethod
    def parse(key: str):
        t, levi, lemma, bound = key.split("|")
        return t, levi, lemma, int(bound) if bound else None

    def plan(self, seed: int, size: str) -> list[str]:
        keys = [self.key(job) for job in self.jobs(size)]
        random.Random(seed).shuffle(keys)
        return keys

    def setup(self, keys, size):
        from renner import cli

        return cli

    def execute(self, cli, key: str):
        t, levi, lemma, bound = self.parse(key)
        return cli.run(cli.JobSpec(t, levi, "verify", lemma=lemma, height_bound=bound))

    def canonical(self, raw) -> str:
        status, text = raw
        return digest(text)

    def check(self, key, raw, golden) -> str | None:
        status, text = raw
        if status != 0:
            return f"exit status {status}"
        failing = [r["lemma"] for r in json.loads(text)["reports"] if not r["pass"]]
        if failing:
            return f"report FAIL: {failing}"
        return _golden_mismatch(golden.get(key), self.canonical(raw))

    def golden_keys(self) -> list[str]:
        return [self.key(job) for job in self.jobs("full")]


# ---------------------------------------------------------------------------

class OrbitWindow:
    """Warm orbit-membership queries against prebuilt parabolic data."""

    name = "orbit-window"
    why = ("The root_datum orbit kernel query by query against built objects "
           "with warm caches, with the monoid_contains memo growing; Weyl "
           "enumeration of F4 and D5 lands in setup_s.")
    left_out = {
        "weyl_group(E6) and E-type parabolic data":
            "about 42 s to enumerate the Weyl group, too slow for 22 runs per check",
    }

    LARGE = (("F4", "1,2,3,4"), ("F4", "1,2,3"), ("F4", "2,3,4"),
             ("D5", "1,2,3,4,5"), ("D5", "1,2,3,4"), ("D5", "2,3,4,5"))
    # Half-width of the query window by ambient dimension.
    HALF_WIDTH = {1: 20, 2: 10, 3: 5, 4: 3, 5: 2}
    # Half of the points go to the fleet, half to the large groups.
    OPS = {"full": 18000, "tiny": 60}

    def instances(self, size: str) -> list[tuple[str, str]]:
        if size == "tiny":
            return [("A2", levi) for levi in levi_specs("A2")]
        fleet = [(t, levi) for t in FLEET for levi in levi_specs(t)]
        return fleet + list(self.LARGE)

    def groups(self, size: str) -> list[list[tuple[str, str, int]]]:
        """Instances with their dimension, fleet first, then large groups."""
        insts = [(t, levi, self.dim(t)) for t, levi in self.instances(size)]
        fleet = [i for i in insts if (i[0], i[1]) not in self.LARGE]
        large = [i for i in insts if (i[0], i[1]) in self.LARGE]
        return [g for g in (fleet, large) if g]

    @staticmethod
    def dim(type_string: str) -> int:
        from renner.root_datum import build_datum

        return build_datum(type_string).dim

    def plan(self, seed: int, size: str) -> list[str]:
        rng = random.Random(seed)
        groups = self.groups(size)
        keys = []
        for _ in range(self.OPS[size]):
            insts = groups[rng.randrange(len(groups))]
            t, levi, dim = insts[rng.randrange(len(insts))]
            h = self.HALF_WIDTH[dim]
            point = ",".join(str(rng.randint(-h, h)) for _ in range(dim))
            keys.append(f"{t}|{levi}|{point}")
        return keys

    def setup(self, keys, size):
        """Parabolic data and Renner monoid of every instance, each key
        parsed into its query, and the two membership routes looked up
        here (after the tracer, if any, is installed), so that an operation
        times the two library calls alone."""
        from renner.cones import LatticeMonoid, monoid_contains
        from renner.parabolic_monoid import build_parabolic, in_wm_dominant
        from renner.root_datum import LeviSubset, build_datum

        instances = {}
        for t, levi in self.instances(size):
            datum = build_datum(t)
            nodes = frozenset(int(x) for x in levi.split(",") if x)
            pd = build_parabolic(datum, LeviSubset(nodes))
            monoid = LatticeMonoid(datum.dim, [w.coords for w in pd.renner_generators])
            monoid.search_generators()  # cone, halfspaces and unit lattice
            instances[f"{t}|{levi}"] = (pd, monoid)
        state = {"instances": instances, "queries": {},
                 "in_wm_dominant": in_wm_dominant, "monoid_contains": monoid_contains}
        self.add_queries(state, keys)
        return state

    @staticmethod
    def add_queries(state, keys) -> None:
        from renner.root_datum import Weight

        for key in keys:
            inst, point = key.rsplit("|", 1)
            pd, monoid = state["instances"][inst]
            coords = tuple(int(x) for x in point.split(","))
            state["queries"][key] = (pd, monoid, Weight(coords), coords)

    def execute(self, state, key: str):
        pd, monoid, weight, coords = state["queries"][key]
        return state["in_wm_dominant"](pd, weight), state["monoid_contains"](monoid, coords)

    @classmethod
    def window_index(cls, coords) -> int:
        """Position of a point in the lexicographic order of its window."""
        h = cls.HALF_WIDTH[len(coords)]
        index = 0
        for x in coords:
            if not -h <= x <= h:
                raise ValueError("point outside the window")
            index = index * (2 * h + 1) + x + h
        return index

    @classmethod
    def window(cls, dim: int):
        h = cls.HALF_WIDTH[dim]
        return itertools.product(range(-h, h + 1), repeat=dim)

    def check(self, key, raw, golden) -> str | None:
        in_orbit, in_monoid = raw
        if in_orbit != in_monoid:
            return f"in_wm_dominant {in_orbit} but monoid_contains {in_monoid}"
        inst, point = key.rsplit("|", 1)
        bits = golden.get(inst)
        if bits is None:
            return "no golden entry"
        coords = tuple(int(x) for x in point.split(","))
        expected = bool(_mask(bits) >> self.window_index(coords) & 1)
        if expected != in_orbit:
            return f"golden mismatch: expected {expected}, got {in_orbit}"
        return None

    def golden_entry(self, state, inst: str) -> str:
        """Hex bitmask of the window: bit i set when point i is a member."""
        dim = state["instances"][inst][0].datum.dim
        keys = [f"{inst}|{','.join(map(str, coords))}" for coords in self.window(dim)]
        self.add_queries(state, keys)
        mask = 0
        for index, key in enumerate(keys):
            in_orbit, in_monoid = self.execute(state, key)
            if in_orbit != in_monoid:
                raise RuntimeError(f"routes disagree at {key}")
            mask |= int(in_orbit) << index
        return format(mask, "x")


# ---------------------------------------------------------------------------

class ConeKernels:
    """Hilbert bases, double description and duality on fixed and random cones."""

    name = "cone-kernels"
    why = ("The cones and linalg kernels that Hilbert-basis and DD work "
           "would move, with root_datum almost idle.")
    left_out = {
        "pair-cone hilbert_basis for G2": "about 32 s",
        "pair-cone hilbert_basis for A3 and B3": "over 120 s each",
        "random cones of dimension 4 with more than 4 generators":
            "heavy-tailed, up to several seconds per cone",
    }

    HILBERT_PAIR = ("A2", "B2")
    DD_PAIR = ("A4", "B4", "D4")
    POOL_SEED = 2010
    POOL_SIZE = 180
    STRATA = {"full": 60, "tiny": 3}

    def pool(self) -> list[tuple[int, tuple[tuple[int, ...], ...]]]:
        """Random pointed cones, cheapest first by an estimate of the box
        scan the Hilbert-basis routine makes over them, so that drawing one
        cone from each stratum keeps the work of a pass nearly seed-free.

        The first coordinate of every generator is positive, so the cones
        are pointed.  Dimension 3 takes 3 to 5 generators, dimension 4 is
        simplicial."""
        rng = random.Random(self.POOL_SEED)
        cones = []
        for _ in range(self.POOL_SIZE):
            dim = rng.choice((3, 4))
            count = rng.randint(3, 5) if dim == 3 else 4
            gens = tuple(tuple([rng.randint(1, 3)] +
                               [rng.randint(-2, 2) for _ in range(dim - 1)])
                         for _ in range(count))
            cones.append((dim, gens))
        return sorted(cones, key=lambda c: (self._scan_size(c[1]), c))

    @staticmethod
    def _scan_size(gens) -> int:
        total = 0
        for subset in itertools.combinations(gens, len(gens[0])):
            volume = 1
            for j in range(len(gens[0])):
                volume *= 1 + sum(abs(s[j]) for s in subset)
            total += volume
        return total

    def fixed_keys(self, size: str) -> list[str]:
        types = ("A2",) if size == "tiny" else FLEET
        keys = [f"{kind}|{t}|{levi}" for t in types for levi in levi_specs(t)
                for kind in ("saturation", "involution")]
        if size == "full":
            keys += [f"hilbert-pair|{t}" for t in self.HILBERT_PAIR]
            keys += [f"dd-pair|{t}" for t in self.DD_PAIR]
        return keys

    def plan(self, seed: int, size: str) -> list[str]:
        rng = random.Random(seed)
        strata = self.STRATA[size]
        width = self.POOL_SIZE // strata
        keys = self.fixed_keys(size)
        keys += [f"hilbert-random|{s * width + rng.randrange(width)}"
                 for s in range(strata)]
        rng.shuffle(keys)
        return keys

    def setup(self, keys, size):
        from renner.parabolic_monoid import build_parabolic
        from renner.root_datum import LeviSubset, build_datum
        from renner.vinberg import vinberg_cone

        state = {"pool": self.pool()}
        for key in keys:
            kind, rest = key.split("|", 1)
            if kind in ("saturation", "involution"):
                t, levi = rest.split("|")
                nodes = frozenset(int(x) for x in levi.split(",") if x)
                state[key] = build_parabolic(build_datum(t), LeviSubset(nodes))
            elif kind in ("hilbert-pair", "dd-pair"):
                cone = vinberg_cone(build_datum(rest)).cone
                state[key] = (cone.ambient_dim, cone.halfspaces)
        return state

    def execute(self, state, key: str):
        from renner.cones import RationalCone, dual_cone, hilbert_basis
        from renner.parabolic_monoid import check_saturation

        kind, rest = key.split("|", 1)
        if kind == "saturation":
            report = check_saturation(state[key])
            return report.passed and report.level == "exact", report.to_json_dict()
        if kind == "involution":
            pd = state[key]
            dim = pd.datum.dim
            out = []
            for gens in (pd.pos_up.generators, [w.coords for w in pd.renner_generators]):
                cone = RationalCone.from_generators(dim, gens)
                back = dual_cone(dual_cone(cone))
                out.append((back == cone, cone.canonical_generators()))
            return all(ok for ok, _ in out), [g for _, g in out]
        if kind == "hilbert-pair":
            dim, halfspaces = state[key]
            return True, hilbert_basis(RationalCone.from_halfspaces(dim, halfspaces))
        if kind == "dd-pair":
            dim, halfspaces = state[key]
            gens = RationalCone.from_halfspaces(dim, halfspaces).canonical_generators()
            back = RationalCone.from_generators(dim, gens).canonical_halfspaces()
            return True, (gens, back)
        if kind == "hilbert-random":
            dim, gens = state["pool"][int(rest)]
            return True, hilbert_basis(RationalCone.from_generators(dim, gens))
        raise ValueError(f"unknown operation {key!r}")

    def canonical(self, raw) -> str:
        return digest(raw[1])

    def check(self, key, raw, golden) -> str | None:
        ok, _ = raw
        if not ok:
            return "check did not pass"
        return _golden_mismatch(golden.get(key), self.canonical(raw))

    def golden_keys(self) -> list[str]:
        return self.fixed_keys("full") + [f"hilbert-random|{i}" for i in range(self.POOL_SIZE)]


WORKLOADS = {w.name: w for w in (VerifyFleet(), OrbitWindow(), ConeKernels())}
