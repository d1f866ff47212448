"""Batch command line front end.

Subcommands construct the basic objects (root datum, cones, Hilbert bases)
or run lemma verifications over one Levi subset or all of them.  JSON
output is canonical: identical jobs produce byte-identical bytes, so runs
are diffable.  Exit status: 0 all good, 1 verification failure, 2 bad
input (a parse error, a negative height bound, or an ``--output`` file or
standard output that cannot be written), 3 budget exceeded, 4 internal
error (an impossible state inside an exact computation, or any other
exception, reported on an ``internal error:`` line).

Levi subsets are addressed by Dynkin node indices in Bourbaki order
(1-based), comma separated; the empty string is the empty subset and
``all`` iterates over every subset.

``verify --lemma`` runs one entry of ``LEMMA_CHECKS`` or, with ``all``, each
of them, on every selected Levi subset.  The pair cone behind
``vinberg-image`` exists only for semisimple data: on a datum with a central
torus, ``--lemma all`` skips it with a note on stderr, and
``--lemma vinberg-image`` exits 2.

Enumeration limits live in ``renner.budgets`` and nowhere else: the cone
and Hilbert basis dimension bounds (``DEFAULT_DUAL_DIM``, which also bounds
a datum's rank, and ``DEFAULT_HILBERT_DIM``), the Weyl enumeration cap and
the monoid search node budget.  The RENNER_BUDGET environment variable
overrides the last two, and any other value is bad input in every command;
there are no per-call or command-line overrides.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations, product

from . import budgets
from .cones import LatticeMonoid
from .errors import BudgetExceededError, InternalError
from .parabolic_monoid import (
    ParabolicData,
    build_parabolic,
    cartan_closure_semigroup,
    check_duality,
    check_intersection_lemma,
    check_saturation,
    check_weight_hull,
    default_height_bound,
    renner_cone,
)
from .repr_weights import check_cor_uinv, check_levi_restriction
from .reports import CheckReport, dumps_canonical
from .root_datum import LeviSubset, RootDatum, Weight, build_datum
from .vinberg import CpPoint, check_image, project_idempotent, vinberg_cone

SCHEMA = "renner/1"


def _dominant_window(datum: RootDatum, coord_bound: int) -> list[Weight]:
    return [Weight(root_part + (0,) * datum.central_rank)
            for root_part in product(range(coord_bound + 1), repeat=datum.rank)]


# Lemma name -> check of one parabolic instance at a height bound.  The
# entries look the checks up by name when called, so a wrapper installed on
# this module's names (as perfbench/tracer.py does) sees every call.
LEMMA_CHECKS: dict[str, Callable[[ParabolicData, int], CheckReport]] = {
    "wthull": lambda pd, bound: check_weight_hull(pd, bound),
    "posU": lambda pd, bound: check_intersection_lemma(pd, bound),
    "duality": lambda pd, bound: check_duality(pd, bound),
    "saturation": lambda pd, bound: check_saturation(pd),
    "levi-restriction": lambda pd, bound: check_levi_restriction(
        pd.datum, pd.levi,
        *map(pd.datum.fundamental_weight, pd.datum.weight_basis_labels)),
    "uinv": lambda pd, bound: check_cor_uinv(
        pd, _dominant_window(pd.datum, min(2, bound))),
    "vinberg-image": lambda pd, bound: check_image(pd, min(3, bound)),
}
LEMMAS = tuple(LEMMA_CHECKS)
FORMATS = ("json", "table")


@dataclass
class JobSpec:
    datum_spec: str
    levi_spec: str
    command: str
    lemma: str | None = None
    pair: str | None = None
    height_bound: int | None = None
    output: str | None = None
    format: str = "json"
    inject_corruption: bool = False
    timings: bool = False

    def __post_init__(self) -> None:
        if (self.lemma is not None) != (self.command == "verify"):
            raise ValueError("a lemma is given exactly for the verify command")
        if (self.pair is not None) != (self.command == "project"):
            raise ValueError("a pair is given exactly for the project command")
        if self.height_bound is not None and self.height_bound < 0:
            raise ValueError("the height bound must be non-negative")
        if self.lemma not in (None, "all", *LEMMAS):
            raise ValueError(f"unknown lemma {self.lemma!r}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")


def _parse_int(option: str, token: str) -> int:
    """One integer of a comma separated option value; a malformed token is
    bad input that names the option and the token."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{option}: {token!r} is not an integer") from None


def parse_levi(datum: RootDatum, spec: str) -> list[LeviSubset]:
    text = spec.strip()
    if text == "all":
        labels = datum.weight_basis_labels
        subsets = []
        for size in range(len(labels) + 1):
            for nodes in combinations(labels, size):
                subsets.append(LeviSubset(frozenset(nodes)))
        return subsets
    if not text:
        return [LeviSubset(frozenset())]
    nodes = frozenset(_parse_int("--levi", part) for part in text.split(","))
    subset = LeviSubset(nodes)
    datum.check_levi(subset)
    return [subset]


def corrupt_parabolic(pd: ParabolicData) -> ParabolicData:
    """Deliberately damage the wedge-monoid generator set (testing aid).
    Duality, posU and wthull read ``pd.pos_up``.  Duality and posU fail on
    every Levi subset: their cone sides fail, so they skip the cone
    certificate and walk the window to list the counterexamples.  wthull
    checks that the monoid it is given is closed downwards, which the
    damaged one still is, so it passes with the four lemmas that do not
    read the set.  On every Levi subset of the fleet, A2xT1, A4, B4, C4,
    D4, F4, D5 and E6 its certificate decides this without a window: the
    damaged monoid is still saturated, and each lowered form of its cone is
    non-negative on the damaged generators.  The damage goes into a new
    instance, with its own wedge saturation: the one that
    ``build_parabolic`` shares stays intact."""
    gens = list(pd.pos_up.generators)
    if gens:
        broken = gens[:-1] + [tuple(-x for x in gens[-1])]
    else:
        broken = [tuple([-1] + [0] * (pd.datum.dim - 1))]
    return ParabolicData(pd.datum, pd.levi,
                         LatticeMonoid(pd.datum.dim, broken),
                         pd.renner_generators)


def run_lemma(lemma: str, datum: RootDatum, levi: LeviSubset,
              bound: int, inject_corruption: bool) -> list[CheckReport]:
    pd = build_parabolic(datum, levi)
    if inject_corruption:
        pd = corrupt_parabolic(pd)
    reports: list[CheckReport] = []
    for name in LEMMAS if lemma == "all" else (lemma,):
        if lemma == "all" and name == "vinberg-image" and datum.central_rank != 0:
            print(f"note: skipping vinberg-image for non-semisimple {datum.type_string}",
                  file=sys.stderr)
            continue
        if lemma == "all" and name == "levi-restriction" and datum.rank == 0:
            print(f"note: skipping levi-restriction for {datum.type_string}, "
                  "which has no fundamental weights", file=sys.stderr)
            continue
        start = time.monotonic()
        report = LEMMA_CHECKS[name](pd, bound)
        report.wall_ms = int((time.monotonic() - start) * 1000)
        reports.append(report)
    return reports


def run(job: JobSpec) -> tuple[int, str]:
    """Execute a job; returns (exit status, output text)."""
    datum = build_datum(job.datum_spec)
    if job.command == "datum":
        payload = {"schema": SCHEMA, "datum": datum.to_json_dict()}
        return 0, _render(job, payload)

    subsets = parse_levi(datum, job.levi_spec)
    bound = job.height_bound if job.height_bound is not None else default_height_bound(datum)

    if job.command == "cone-mbar":
        items = []
        for levi in subsets:
            pd = build_parabolic(datum, levi)
            items.append({"levi": sorted(levi.nodes),
                          "cone": renner_cone(pd).to_json_dict()})
        payload = {"schema": SCHEMA, "type": datum.type_string, "cones": items}
        return 0, _render(job, payload)

    if job.command == "cone-vinberg":
        vc = vinberg_cone(datum)
        payload = {"schema": SCHEMA, "type": datum.type_string,
                   "dim": vc.cone.ambient_dim,
                   "halfspaces": [list(h) for h in vc.cone.canonical_halfspaces()]}
        return 0, _render(job, payload)

    if job.command == "hilbert":
        items = []
        for levi in subsets:
            pd = build_parabolic(datum, levi)
            basis = cartan_closure_semigroup(pd)
            items.append({"levi": sorted(levi.nodes),
                          "hilbert_basis": [list(w.coords) for w in basis]})
        payload = {"schema": SCHEMA, "type": datum.type_string, "bases": items}
        return 0, _render(job, payload)

    if job.command == "project":
        if len(subsets) != 1:
            raise ValueError("project needs a single Levi subset")
        levi = subsets[0]
        halves = job.pair.split(";")
        if len(halves) != 2:
            raise ValueError("pair must look like 'a,b;c,d'")
        vecs = []
        for half in halves:
            coords = tuple(_parse_int("--pair", p) for p in half.split(","))
            if len(coords) != datum.rank:
                raise ValueError("pair coordinates must match the rank")
            vecs.append(Weight(coords))
        vc = vinberg_cone(datum)
        image = project_idempotent(vc, CpPoint(levi), (vecs[0], vecs[1]))
        payload = {"schema": SCHEMA, "type": datum.type_string,
                   "levi": sorted(levi.nodes),
                   "pair": [list(vecs[0].coords), list(vecs[1].coords)],
                   "image": list(image.coords)}
        return 0, _render(job, payload)

    if job.command == "verify":
        reports: list[CheckReport] = []
        for levi in subsets:
            reports.extend(run_lemma(job.lemma, datum, levi, bound,
                                     job.inject_corruption))
        reports.sort(key=lambda r: r.sort_key())
        all_pass = all(r.passed for r in reports)
        payload = {
            "schema": SCHEMA,
            "job": {
                "command": "verify",
                "type": job.datum_spec,
                "levi": job.levi_spec,
                "lemma": job.lemma,
                "bound": bound,
            },
            "reports": [r.to_json_dict(include_timings=job.timings) for r in reports],
        }
        return (0 if all_pass else 1), _render(job, payload)

    raise ValueError(f"unknown command {job.command!r}")


def _render(job: JobSpec, payload: dict) -> str:
    if job.format == "json":
        return dumps_canonical(payload)
    return _render_table(payload)


def _render_table(payload: dict) -> str:
    lines = []
    if "reports" in payload:
        for r in payload["reports"]:
            status = "PASS" if r["pass"] else "FAIL"
            inst = r["instance"]
            label = f"{inst['type']} levi={','.join(str(n) for n in inst['levi']) or '-'}"
            lines.append(f"{status:4} {r['lemma']:17} {label:24} {r['level']}")
            for ce in r["counterexamples"]:
                lines.append(f"       counterexample: {ce}")
    else:
        for key, value in sorted(payload.items()):
            if key == "schema":
                continue
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renner",
        description=("Exact combinatorics of reductive monoids: root data, "
                     "orbit cones, Hilbert bases, and lemma verification."))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, levi=True):
        p.add_argument("--type", required=True, dest="datum_spec",
                       help="Cartan type expression, e.g. A2, B3, A1xA1, A2xT1")
        if levi:
            p.add_argument("--levi", default="", dest="levi_spec",
                           help="comma separated node labels, '' or 'all'")
        p.add_argument("--format", choices=FORMATS, default="json")
        p.add_argument("--output", default=None, help="write output to a file")

    common(sub.add_parser("datum", help="print the root datum"), levi=False)
    common(sub.add_parser("cone-mbar", help="Renner cone of the Levi monoid"))
    common(sub.add_parser("cone-vinberg", help="pair cone of the enveloping semigroup"),
           levi=False)
    common(sub.add_parser("hilbert", help="Hilbert basis of the Renner cone"))

    p_project = sub.add_parser("project", help="idempotent projection of a weight pair")
    common(p_project)
    p_project.add_argument("--pair", required=True,
                           help="two weights 'a,b;c,d' in fundamental-weight "
                                "coordinates; a leading minus needs no '=' "
                                "(--pair '-1,2;1,1')")

    p_verify = sub.add_parser("verify", help="run lemma verifications")
    common(p_verify)
    p_verify.add_argument("--lemma", required=True, choices=LEMMAS + ("all",))
    p_verify.add_argument("--bound", type=int, default=None, dest="height_bound",
                          help="height bound for lattice windows: wthull, posU and "
                               "duality take it as given (default 4 for dimension "
                               "<= 2, else 3); uinv takes highest weights in "
                               "[0, min(2, bound)]^rank; vinberg-image walks its "
                               "window at min(3, bound); saturation tests the exact "
                               "Hilbert basis, and h3 only past the Hilbert bound; "
                               "levi-restriction ignores it")
    p_verify.add_argument("--inject-corruption", action="store_true",
                          help="damage the wedge generator set first (testing aid; "
                               "duality and posU fail; wthull reads the set "
                               "but still passes)")
    p_verify.add_argument("--timings", action="store_true",
                          help="include wall_ms in reports (breaks byte determinism)")
    return parser


def _bind_pair(argv: list[str]) -> list[str]:
    """Join ``--pair`` with the token after it, which argparse would read as
    an option when the first coordinate is negative ('-1,2;1,1')."""
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token == "--pair" else None
        out.append(token if value is None else f"--pair={value}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(_bind_pair(sys.argv[1:] if argv is None else argv))
    try:
        budgets.weyl_cap()  # a malformed RENNER_BUDGET is bad input in every command
        job = JobSpec(
            datum_spec=args.datum_spec,
            levi_spec=getattr(args, "levi_spec", ""),
            command=args.command,
            lemma=getattr(args, "lemma", None),
            pair=getattr(args, "pair", None),
            height_bound=getattr(args, "height_bound", None),
            output=args.output,
            format=args.format,
            inject_corruption=getattr(args, "inject_corruption", False),
            timings=getattr(args, "timings", False),
        )
        status, text = run(job)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit status 1 means "verification failed"; any other escape is a
        # fault of the program, reported on one line.
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4
    if job.output:
        try:
            with open(job.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {job.output}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
            return 2
    return 0 if status == 0 else status


if __name__ == "__main__":
    raise SystemExit(main())
