import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from renner import budgets, cli, cones, parabolic_monoid, repr_weights
from renner.cli import LEMMAS, JobSpec, main, parse_levi, run
from renner.errors import BudgetExceededError
from renner.linalg import row_hnf
from renner.parabolic_monoid import build_parabolic
from renner.root_datum import build_datum, positive_coroots, weyl_group, weyl_orbit
from renner.vinberg import _vinberg_cone, lattice_pairs, vinberg_cone

CLI = [sys.executable, "-m", "renner"]
FLEET_AND_TORUS = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "A2xT1"]
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def invoke(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


# -- job validation ----------------------------------------------------------------

def test_jobspec_lemma_only_with_verify():
    with pytest.raises(ValueError):
        JobSpec("A2", "", "datum", lemma="duality")
    with pytest.raises(ValueError):
        JobSpec("A2", "", "verify")


def test_jobspec_pair_only_with_project():
    with pytest.raises(ValueError, match="a pair is given exactly for the project"):
        JobSpec("A1", "", "project")
    with pytest.raises(ValueError, match="a pair is given exactly for the project"):
        JobSpec("A1", "", "datum", pair="2;2")
    assert JobSpec("A1", "", "project", pair="2;2").pair == "2;2"


def test_jobspec_rejects_negative_bound():
    with pytest.raises(ValueError):
        JobSpec("A2", "1", "verify", lemma="duality", height_bound=-1)
    assert JobSpec("A2", "1", "verify", lemma="duality", height_bound=0).height_bound == 0


def test_jobspec_rejects_unknown_lemma():
    with pytest.raises(ValueError):
        JobSpec("A2", "1", "verify", lemma="bogus")
    assert JobSpec("A2", "1", "verify", lemma="uinv").lemma == "uinv"


def test_jobspec_rejects_unknown_format():
    # A job built without the parser must not fall back to a table.
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        JobSpec("A2", "1", "verify", lemma="duality", format="xml")
    assert JobSpec("A2", "1", "verify", lemma="duality", format="table").format == "table"
    with pytest.raises(SystemExit) as exc:
        main(["datum", "--type", "A2", "--format", "xml"])
    assert exc.value.code == 2


def test_parse_levi_variants():
    d = build_datum("A2")
    assert [s.nodes for s in parse_levi(d, "")] == [frozenset()]
    assert [s.nodes for s in parse_levi(d, "1,2")] == [frozenset({1, 2})]
    assert len(parse_levi(d, "all")) == 4
    with pytest.raises(ValueError):
        parse_levi(d, "7")
    with pytest.raises(ValueError, match="--levi: ' x' is not an integer"):
        parse_levi(d, "1, x")


# -- direct run() -------------------------------------------------------------------

def test_run_datum():
    status, text = run(JobSpec("A2", "", "datum"))
    assert status == 0
    data = json.loads(text)
    assert data["datum"]["cartan_matrix"] == [[2, -1], [-1, 2]]


def test_run_cone_mbar_borel_a1():
    status, text = run(JobSpec("A1", "", "cone-mbar"))
    assert status == 0
    data = json.loads(text)
    assert data["cones"][0]["cone"]["generators"] == [[1]]


def test_run_verify_all_lemmas_a2():
    status, text = run(JobSpec("A2", "1", "verify", lemma="all", height_bound=4))
    assert status == 0
    data = json.loads(text)
    assert len(data["reports"]) == 7
    assert all(r["pass"] for r in data["reports"])
    assert {r["lemma"] for r in data["reports"]} == {
        "wthull", "posU", "duality", "saturation",
        "levi-restriction", "uinv", "vinberg-image"}


def test_run_verify_levi_all_duality():
    status, text = run(JobSpec("A2", "all", "verify", lemma="duality"))
    assert status == 0
    data = json.loads(text)
    assert len(data["reports"]) == 4


def test_run_saturation_past_the_hilbert_bound_walks_the_window(monkeypatch):
    monkeypatch.setattr(budgets, "DEFAULT_HILBERT_DIM", 1)
    status, text = run(JobSpec("A2", "all", "verify", lemma="saturation"))
    assert status == 0
    reports = json.loads(text)["reports"]
    assert len(reports) == 4
    assert all(r["pass"] and r["level"] == "bounded:h3" for r in reports)


def test_run_project():
    status, text = run(JobSpec("A1", "", "project", pair="2;2"))
    assert status == 0
    assert json.loads(text)["image"] == [2]


def test_cli_project_pair_with_negative_first_coordinate():
    spaced = invoke("project", "--type", "A2", "--levi", "", "--pair", "-1,2;1,1")
    joined = invoke("project", "--type", "A2", "--levi", "", "--pair=-1,2;1,1")
    assert spaced.returncode == 0 and joined.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout
    assert json.loads(spaced.stdout)["pair"] == [[-1, 2], [1, 1]]


def test_hilbert_command():
    status, text = run(JobSpec("A2", "1", "hilbert"))
    assert status == 0
    data = json.loads(text)
    assert data["bases"][0]["hilbert_basis"] == [[-1, 1], [1, 0]]


def test_verify_enumerates_no_weyl_group(monkeypatch):
    # Builders and checks walk Weyl orbits only: posU reads the translates of
    # the positive cone off the orbits of the fundamental weights.
    callers = []

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return weyl_group(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "renner" and getattr(module, "weyl_group", None) is weyl_group:
            monkeypatch.setattr(module, "weyl_group", counted)
    _vinberg_cone.cache_clear()
    for type_string in ("A2", "A2xT1"):
        status, _ = run(JobSpec(type_string, "all", "verify", lemma="all"))
        assert status == 0
    assert callers == []


@pytest.mark.parametrize("lemma", ["posU", "duality", "wthull"])
@pytest.mark.parametrize("type_string", FLEET_AND_TORUS)
def test_cone_certificates_describe_only_the_wedge_and_renner_cones(monkeypatch, type_string, lemma):
    # The certificates decide their chamber facts by sign tests and chamber
    # walks on the cones each instance holds, so a cold run describes at
    # most two cones per Levi subset: the wedge cone and the Renner cone.
    runs = []
    real = cones._double_description

    def counted(halfspaces, dim):
        runs.append(dim)
        return real(halfspaces, dim)

    monkeypatch.setattr(cones, "_double_description", counted)
    parabolic_monoid._parabolic.cache_clear()
    status, _ = run(JobSpec(type_string, "all", "verify", lemma=lemma))
    assert status == 0
    assert runs
    assert len(runs) <= 2 * len(parse_levi(build_datum(type_string), "all"))


def test_verify_walks_each_pair_window_once(monkeypatch):
    # The pair window does not depend on the Levi subset: one walk per datum
    # and bound serves every subset and every later lattice_pairs call.
    # It walks in A2's rank over the root lattice, from the 16 dominant
    # weights of the h3 box.
    walks = []
    walk = cones._window_walk

    def counted(halfspaces, dim, bound, lattice=None, origins=None):
        walks.append((dim, bound, lattice, None if origins is None else len(origins)))
        return walk(halfspaces, dim, bound, lattice, origins)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "renner" and getattr(module, "_window_walk", None) is walk:
            monkeypatch.setattr(module, "_window_walk", counted)
    _vinberg_cone.cache_clear()
    status, _ = run(JobSpec("A2", "all", "verify", lemma="vinberg-image"))
    assert status == 0
    d = build_datum("A2")
    vc = vinberg_cone(d)
    roots = row_hnf([alpha.coords for alpha in d.simple_roots], 2)
    assert walks == [(2, 3, roots, 16)]
    assert len(lattice_pairs(vc, 3)) == 170
    assert len(walks) == 1


@pytest.mark.parametrize("type_string", FLEET_AND_TORUS + ["B4", "F4"])
def test_levi_restriction_builds_each_full_weight_set_once(monkeypatch, type_string):
    # The full weight sets are kept on the full Levi's shared instance: over
    # every Levi subset each highest weight's set is built once for that
    # table and once more as the Levi-module side of the full subset itself.
    d = build_datum(type_string)
    full = d.full_levi()
    built = []
    real = repr_weights.dual_weyl_weights

    def counted(datum, levi, hw):
        if levi == full:
            built.append(hw.coords)
        return real(datum, levi, hw)

    monkeypatch.setattr(repr_weights, "dual_weyl_weights", counted)
    build_parabolic(d, full).weight_sets.clear()
    job = JobSpec(type_string, "all", "verify", lemma="levi-restriction")
    status, text = run(job)
    assert status == 0
    fundamentals = [d.fundamental_weight(i).coords for i in d.weight_basis_labels]
    assert sorted(built) == sorted(2 * fundamentals)
    assert set(build_parabolic(d, full).weight_sets) == set(map(d.fundamental_weight,
                                                               d.weight_basis_labels))
    del built[:]
    assert run(job) == (status, text)
    assert sorted(built) == sorted(fundamentals)
    fresh = invoke("verify", "--type", type_string, "--levi", "all",
                   "--lemma", "levi-restriction")
    assert (fresh.returncode, fresh.stdout) == (status, text)


@pytest.mark.parametrize("type_string", FLEET_AND_TORUS)
def test_runs_in_one_process_match_fresh_processes(capsys, type_string):
    # The damaged wedge monoid goes into a copy: the shared instance that
    # the clean runs read before and after it is untouched.
    argv = ["verify", "--type", type_string, "--levi", "all", "--lemma", "all"]
    fresh = {corrupt: invoke(*argv, *(["--inject-corruption"] if corrupt else []))
             for corrupt in (False, True)}
    assert [fresh[c].returncode for c in (False, True)] == [0, 1]
    for corrupt in (False, True, False):
        status, text = run(JobSpec(type_string, "all", "verify", lemma="all",
                                   inject_corruption=corrupt))
        err = capsys.readouterr().err
        assert (status, text, err) == (fresh[corrupt].returncode, fresh[corrupt].stdout,
                                       fresh[corrupt].stderr)


def test_verify_a4_vinberg_image_window():
    # The 8-dimensional pair-cone window of A4 at bound 2.  The walk steps
    # through the pair lattice only and yields its 9 967 lattice pairs, not
    # the 34 379 points of the cone.
    status, text = run(JobSpec("A4", "2", "verify", lemma="vinberg-image",
                               height_bound=2))
    assert status == 0
    assert [r["pass"] for r in json.loads(text)["reports"]] == [True]


@pytest.mark.parametrize("type_string", ["B4", "D4"])
def test_verify_rank_four_vinberg_image_frontier(type_string):
    # The other 8-dimensional pair-cone windows at bound 2, Levi {2}.
    status, text = run(JobSpec(type_string, "2", "verify", lemma="vinberg-image",
                               height_bound=2))
    assert status == 0
    assert [r["pass"] for r in json.loads(text)["reports"]] == [True]


def test_verify_d4_uinv_all_levi_subsets():
    # All 16 Levi subsets of D4 over the window [0,1]^4: about 0.4 s with the
    # Levi descent, 2.7 s when each full weight set was built and filtered.
    status, text = run(JobSpec("D4", "all", "verify", lemma="uinv", height_bound=1))
    assert status == 0
    reports = json.loads(text)["reports"]
    assert len(reports) == 16 and all(r["pass"] for r in reports)


def test_verify_output_matches_benchmark_golden_digests():
    # perfbench/golden.json holds the first 16 hex digits of the sha256 of
    # each verify-fleet job's output; on the small types every job is cheap.
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["verify-fleet"]
    keys = [k for k in golden if k.split("|")[0] in ("A1", "A2", "B2", "G2", "A1xA1")]
    assert len(keys) == 126
    mismatched = []
    for key in keys:
        type_string, levi_spec, lemma, bound = key.split("|")
        status, text = run(JobSpec(type_string, levi_spec, "verify", lemma=lemma,
                                   height_bound=int(bound) if bound else None))
        if status != 0 or hashlib.sha256(text.encode()).hexdigest()[:16] != golden[key]:
            mismatched.append(key)
    assert mismatched == []


# -- process level --------------------------------------------------------------------

def test_cli_byte_determinism():
    first = invoke("verify", "--type", "A2", "--levi", "all", "--lemma", "all")
    second = invoke("verify", "--type", "A2", "--levi", "all", "--lemma", "all")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout


def test_cli_corruption_gives_status_one_with_vector():
    result = invoke("verify", "--type", "A2", "--levi", "1",
                    "--lemma", "duality", "--inject-corruption")
    assert result.returncode == 1
    data = json.loads(result.stdout)
    report = data["reports"][0]
    assert not report["pass"]
    vectors = [ce for ce in report["counterexamples"] if "vector" in ce]
    assert vectors, "expected a concrete counterexample vector"


def test_cli_parse_error_status_two():
    result = invoke("verify", "--type", "Z9", "--levi", "", "--lemma", "duality")
    assert result.returncode == 2
    result2 = invoke("verify", "--type", "A2", "--levi", "9", "--lemma", "duality")
    assert result2.returncode == 2


@pytest.mark.parametrize("argv, message", [
    (["verify", "--type", "A2", "--levi", "1,", "--lemma", "posU"],
     "error: --levi: '' is not an integer\n"),
    (["verify", "--type", "A2", "--levi", "1,x", "--lemma", "duality"],
     "error: --levi: 'x' is not an integer\n"),
    (["project", "--type", "A2", "--pair", "a,0;0,1"],
     "error: --pair: 'a' is not an integer\n"),
    (["project", "--type", "A2", "--levi", "2,", "--pair", "1,0;0,1"],
     "error: --levi: '' is not an integer\n"),
], ids=["levi-trailing-comma", "levi-letter", "pair-letter", "project-levi"])
def test_cli_malformed_integer_names_option_and_token(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", message)


def test_cli_negative_bound_status_two():
    result = invoke("verify", "--type", "A2", "--levi", "1", "--lemma", "duality",
                    "--bound", "-1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:")


def test_cli_vinberg_image_by_name_on_central_torus_status_two():
    result = invoke("verify", "--type", "A2xT1", "--levi", "1", "--lemma", "vinberg-image")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["datum", "--type", "T0"],
    ["hilbert", "--type", "T0", "--levi", ""],
    ["verify", "--type", "T0", "--levi", "all", "--lemma", "all"],
    ["verify", "--type", "A1xT0", "--levi", "all", "--lemma", "all"],
], ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_cli_zero_rank_torus_is_bad_input(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: T requires rank >= 1\n")


def test_cli_budget_exceeded_status_three():
    result = invoke("verify", "--type", "A3", "--levi", "all", "--lemma", "duality",
                    env_extra={"RENNER_BUDGET": "3"})
    assert result.returncode == 3


def test_cli_posu_budget_stops_at_the_largest_orbit(monkeypatch, capsys):
    # posU walks orbits only: on A3 the largest is the 12 coroots of
    # positive_coroots, not the 24 elements of W(A3).
    argv = ["verify", "--type", "A3", "--levi", "all", "--lemma", "posU"]
    monkeypatch.setenv("RENNER_BUDGET", "12")
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setenv("RENNER_BUDGET", "11")
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "error: Weyl enumeration exceeded cap 11\n")


def test_budget_lowered_after_caching_still_applies(monkeypatch, capsys):
    # F4's full Levi: its coroot orbits have 24 elements and the orbits of
    # omega_2 and omega_3 have 96, so a cap of 50 passes the coroots and
    # stops the cached Renner generators.
    monkeypatch.delenv("RENNER_BUDGET", raising=False)
    d = build_datum("F4")
    full = d.full_levi()
    build_parabolic(d, full)
    assert [len(weyl_orbit(d, full, d.fundamental_weight(i)))
            for i in d.weight_basis_labels] == [24, 96, 96, 24]
    monkeypatch.setenv("RENNER_BUDGET", "50")
    positive_coroots(d)
    with pytest.raises(BudgetExceededError, match="^Weyl enumeration exceeded cap 50$"):
        build_parabolic(d, full)
    argv = ["verify", "--type", "F4", "--levi", "1,2,3,4", "--lemma", "saturation"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "error: Weyl enumeration exceeded cap 50\n")
    fresh = invoke(*argv, env_extra={"RENNER_BUDGET": "50"})
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (
        3, "", "error: Weyl enumeration exceeded cap 50\n")
    # levi-restriction reads the full weight sets off the full Levi's
    # instance, so the cap stops it on every Levi subset.
    assert main(["verify", "--type", "F4", "--levi", "1", "--lemma", "levi-restriction"]) == 3
    assert capsys.readouterr() == ("", "error: Weyl enumeration exceeded cap 50\n")
    monkeypatch.delenv("RENNER_BUDGET")
    assert main(argv) == 0


def test_cli_hilbert_over_dimension_bound_status_three(capsys):
    assert main(["hilbert", "--type", "A9", "--levi", ""]) == 3
    assert capsys.readouterr() == ("", "error: dimension 9 exceeds Hilbert bound 8\n")


def test_cli_malformed_budget_names_the_variable(monkeypatch, capsys):
    for raw in ("abc", "0"):
        monkeypatch.setenv("RENNER_BUDGET", raw)
        assert main(["verify", "--type", "A2", "--levi", "1", "--lemma", "posU"]) == 2
        assert capsys.readouterr() == (
            "", f"error: RENNER_BUDGET must be a positive integer, got {raw!r}\n")


@pytest.mark.parametrize("argv", [
    ["datum", "--type", "A1"],
    ["cone-mbar", "--type", "A1"],
    ["cone-vinberg", "--type", "A1"],
    ["hilbert", "--type", "A1"],
    ["project", "--type", "A1", "--pair", "1;1"],
    ["verify", "--type", "A1", "--lemma", "duality"],
], ids=lambda argv: argv[0])
def test_cli_malformed_budget_is_bad_input_in_every_command(monkeypatch, capsys, argv):
    monkeypatch.setenv("RENNER_BUDGET", "abc")
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: RENNER_BUDGET must be a positive integer, got 'abc'\n")


def test_cli_internal_error_status_four(monkeypatch, capsys):
    # the Renner cone of A2xT1 has a lineality space; with no integer
    # preimages the lift from its pointed quotient cannot be formed
    monkeypatch.setattr(cones, "integer_preimage", lambda *args: None)
    assert main(["hilbert", "--type", "A2xT1", "--levi", ""]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: quotient lift failed\n"


def test_cli_unexpected_exception_status_four(monkeypatch, capsys):
    # Exit status 1 means a verification failed, so an exception that no
    # handler names is still a fault of the program: status 4, one line.
    def broken(pd, bound):
        raise KeyError("lost")

    monkeypatch.setitem(cli.LEMMA_CHECKS, "duality", broken)
    assert main(["verify", "--type", "A2", "--levi", "1", "--lemma", "duality"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: KeyError('lost')\n"


def test_cli_type_error_is_a_fault_not_bad_input(monkeypatch, capsys):
    # Bad input raises ValueError; no input reaches a TypeError, so one
    # escaping from a command is a fault of the program: status 4.
    def broken(pd, bound):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(cli.LEMMA_CHECKS, "duality", broken)
    assert main(["verify", "--type", "A2", "--levi", "1", "--lemma", "duality"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: TypeError('unsupported operand')\n"


def test_cli_output_file(tmp_path):
    target = tmp_path / "out.json"
    result = invoke("datum", "--type", "B2", "--output", str(target))
    assert result.returncode == 0
    data = json.loads(target.read_text())
    assert data["datum"]["rank"] == 2


def test_cli_output_into_missing_directory_status_two(tmp_path):
    target = tmp_path / "missing" / "out.json"
    result = invoke("datum", "--type", "B2", "--output", str(target))
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert not target.exists()


def test_main_stdout_write_failure_status_two(monkeypatch, capsys):
    class FullStream(io.StringIO):
        def flush(self):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", FullStream())
    assert main(["datum", "--type", "A1"]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_cli_stdout_on_full_device_status_two():
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            CLI + ["verify", "--type", "A2", "--levi", "1", "--lemma", "duality"],
            stdout=full, stderr=subprocess.PIPE, text=True)
    assert result.returncode == 2
    assert result.stderr == (
        f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n")


def test_cli_corruption_reaches_duality_and_posu_only():
    result = invoke("verify", "--type", "A2", "--levi", "all", "--lemma", "all",
                    "--inject-corruption")
    assert result.returncode == 1
    reports = json.loads(result.stdout)["reports"]
    assert len(reports) == 4 * len(LEMMAS)
    for report in reports:
        assert report["pass"] == (report["lemma"] not in ("duality", "posU")), report


def test_cli_table_format():
    result = invoke("verify", "--type", "A1", "--levi", "all",
                    "--lemma", "saturation", "--format", "table")
    assert result.returncode == 0
    assert "PASS" in result.stdout


def test_cli_timings_flag_adds_wall_ms():
    result = invoke("verify", "--type", "A1", "--levi", "", "--lemma", "duality",
                    "--timings")
    data = json.loads(result.stdout)
    assert all("wall_ms" in r for r in data["reports"])
    plain = invoke("verify", "--type", "A1", "--levi", "", "--lemma", "duality")
    data_plain = json.loads(plain.stdout)
    assert all("wall_ms" not in r for r in data_plain["reports"])


def test_main_returns_status():
    assert main(["datum", "--type", "A1", "--output", os.devnull]) == 0
