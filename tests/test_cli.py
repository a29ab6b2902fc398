"""End-to-end tests of the command-line driver (in-process, via main())."""

import filecmp
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import plaplab.cli
from plaplab.cli import main
from plaplab.fields import build_grid
from plaplab.geometry import Domain, domain_to_json

SQUARE_CHEEGER = 2.0 + math.sqrt(math.pi)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def square_json(workdir):
    path = workdir / "square.json"
    path.write_text(json.dumps(domain_to_json(Domain.unit_square())))
    return str(path)


def run(argv):
    return main(list(argv))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# happy paths


def test_cheeger_report_and_manifest(square_json, workdir, capsys):
    assert run(["cheeger", "--domain", square_json, "--report", "ch.json"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("cheeger: h=")
    report = read_json("ch.json")
    assert set(report) == {"h", "r", "area", "perimeter",
                           "verificationRatio", "innerSet"}
    assert report["h"] == pytest.approx(SQUARE_CHEEGER, abs=1e-9)
    manifest = read_json("ch.json.manifest.json")
    assert set(manifest) == {"subcommand", "config", "inputDigests",
                             "artifacts", "durationSeconds", "version"}
    assert manifest["subcommand"] == "cheeger"
    assert manifest["artifacts"] == ["ch.json"]
    digest = manifest["inputDigests"][square_json]
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_radial_eigen_report(workdir, capsys):
    assert run(["radial", "--task", "eigen", "--p", "2", "--n", "2",
                "--report", "r.json"]) == 0
    assert "lambda=2.891593" in capsys.readouterr().out
    report = read_json("r.json")
    assert report["eigenvalue"] == pytest.approx(2.891593, abs=1e-5)
    assert report["index"] == 1


def test_radial_torsion_csv(workdir):
    assert run(["radial", "--task", "torsion", "--p", "3", "--n", "3",
                "--out", "prof.csv", "--report", "t.json"]) == 0
    lines = (workdir / "prof.csv").read_text().splitlines()
    assert lines[0] == "r,value,residual"
    assert len(lines) > 100
    report = read_json("t.json")
    assert report["coefficient"] == pytest.approx(3.0 / 8.0, rel=1e-12)
    assert report["maxResidual"] < 1e-12


def test_radial_gaussian_csv_shares_one_radius_column(workdir):
    assert run(["radial", "--task", "gaussian", "--p-list", "1.5,1.01",
                "--out", "g.csv"]) == 0
    lines = (workdir / "g.csv").read_text().splitlines()
    assert lines[0] == "r,gaussian,p1.5,p1.01"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert rows.shape == (2049, 4)
    assert rows[0, 0] == 0.0 and rows[-1, 0] == 1.0
    assert np.all(rows[0, 2:] == 1.0)
    assert np.all(np.abs(rows[-1, 2:]) < 1e-12)


def test_check_kink_pass_and_fail(workdir, capsys):
    assert run(["check", "--case", "kink", "--lambda", "0.5",
                "--report", "k.json"]) == 0
    assert "pass=False" in capsys.readouterr().out
    report = read_json("k.json")
    assert report["pass"] is False
    assert len(report["witnesses"]) == 5000

    assert run(["check", "--case", "kink", "--report", "k2.json"]) == 0
    assert read_json("k2.json")["pass"] is True  # default rate 1.0


def test_check_neumann_limit_summary(workdir, capsys):
    assert run(["check", "--case", "neumann-limit", "--grid", "32"]) == 0
    out = capsys.readouterr().out
    assert "supResidual=0.000e+00" in out
    assert "minBranchFloor=0.0625" in out  # lattice spacing at n=32


def test_flow_bump_trace(square_json, workdir):
    assert run(["flow", "--p", "2", "--domain", square_json, "--grid", "32",
                "--tEnd", "0.01", "--init", "bump",
                "--trace", "tr.csv", "--report", "fr.json"]) == 0
    report = read_json("fr.json")
    assert set(report) == {"p", "bc", "dt", "delta", "tEnd", "finalTime", "steps",
                           "init", "fittedRate", "fitR2"}
    assert report["steps"] >= 1
    # the step count is rounded up, so the run ends within one step past tEnd
    assert report["finalTime"] == report["steps"] * report["dt"]
    assert 0.01 <= report["finalTime"] < 0.01 + report["dt"]
    assert report["fittedRate"] > 0.0
    lines = (workdir / "tr.csv").read_text().splitlines()
    assert lines[0] == "t,supNorm"
    assert len(lines) == report["steps"] + 2  # header + initial + each step


def test_solve_torsion_gap(square_json, workdir):
    assert run(["solve", "--problem", "torsion", "--p", "4",
                "--domain", square_json, "--grid", "32",
                "--out", "u.csv", "--report", "s.json"]) == 0
    report = read_json("s.json")
    assert 0.2 < report["supGap"] < 0.3
    assert report["optimalityResidual"] < 1e-3
    with open("u.csv") as fh:
        assert fh.readline().rstrip() == "x,y,value"
    config = read_json("u.csv.manifest.json")["config"]
    assert config["p"] == 4.0 and "seed" not in config  # only a Neumann start reads it


def test_solve_boundary_belongs_to_harmonic(square_json, workdir):
    assert run(["solve", "--problem", "torsion", "--p", "2", "--domain", square_json,
                "--grid", "16", "--boundary", "aronsson"]) == 2
    assert run(["solve", "--problem", "torsion", "--p", "2", "--domain", square_json,
                "--grid", "16", "--out", "t.csv"]) == 0
    assert read_json("t.csv.manifest.json")["config"]["boundary"] is None
    assert run(["solve", "--problem", "harmonic", "--p", "4", "--domain", square_json,
                "--grid", "16", "--out", "h.csv", "--report", "h.json"]) == 0
    assert read_json("h.csv.manifest.json")["config"]["boundary"] == "aronsson"
    assert read_json("h.json")["boundary"] == "aronsson"


def test_solve_report_counts_factorizations(square_json, workdir, capsys):
    assert run(["solve", "--problem", "torsion", "--p", "8",
                "--domain", square_json, "--grid", "32", "--report", "s.json"]) == 0
    report = read_json("s.json")
    assert 1 <= report["factorizations"] <= report["iterations"]
    stages = report["stages"]
    assert [s["p"] for s in stages] == [2.0, 4.0, 8.0, 8.0]  # ladder, then polish
    assert sum(s["iterations"] for s in stages) == report["iterations"]
    assert sum(s["factorizations"] for s in stages) == report["factorizations"]
    assert sum(s["pcg_iterations"] for s in stages) == report["pcgIterations"]
    assert stages[0]["start"] == "plain"
    assert {s["start"] for s in stages[1:3]} <= {"plain", "rescaled", "tangent"}
    assert all(s["residual"] <= s["target"] for s in stages[-1:])
    assert (f"iterations={report['iterations']} "
            f"factorizations={report['factorizations']}") in capsys.readouterr().out


def test_solve_nonconvergence_exits_1(square_json, workdir, monkeypatch, capsys):
    monkeypatch.setattr(plaplab.dirichlet._Newton, "max_iterations", 2)
    assert run(["solve", "--problem", "torsion", "--p", "32",
                "--domain", square_json, "--grid", "32"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "SolverError"


def test_eigen_nonconvergence_exits_1(square_json, workdir, monkeypatch, capsys):
    monkeypatch.setattr(plaplab.eigen._QuotientNewton, "max_iterations", 3)
    assert run(["eigen", "--type", "dirichlet", "--p", "8",
                "--domain", square_json, "--grid", "16"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "EigenError"


def test_eigen_report_counts_stages(square_json, workdir):
    assert run(["eigen", "--type", "neumann", "--p", "8",
                "--domain", square_json, "--grid", "32", "--report", "e.json"]) == 0
    report = read_json("e.json")
    stages = report["stages"]
    assert [s["p"] for s in stages] == [2.0, 4.0, 8.0]
    assert sum(s["iterations"] for s in stages) == report["iterations"]
    assert sum(s["factorizations"] for s in stages) == report["factorizations"] >= 1
    assert sum(s["pcg_iterations"] for s in stages) == report["pcgIterations"]
    assert {s["stop"] for s in stages} <= {"converged", "rounding"}
    assert stages[-1]["residual"] <= stages[-1]["target"]


def test_eigen_single_with_field_csv(square_json, workdir, capsys):
    assert run(["eigen", "--type", "dirichlet", "--p", "2",
                "--domain", square_json, "--grid", "32",
                "--out", "ef.csv", "--report", "e.json"]) == 0
    assert "relativeGap=" in capsys.readouterr().out
    report = read_json("e.json")
    assert report["target"] == pytest.approx(2.0)  # 1 / inradius
    root = math.sqrt(2.0) * math.pi
    assert report["root"] == pytest.approx(root, rel=5e-3)
    assert report["relativeGap"] == pytest.approx(root / 2.0 - 1.0, rel=1e-2)
    grid = build_grid(Domain.unit_square(), 32)
    rows = (workdir / "ef.csv").read_text().splitlines()
    assert len(rows) == 1 + int(np.count_nonzero(grid.nonexterior))


def test_sweep_command_dirichlet(square_json, workdir):
    assert run(["sweep", "--problem", "dirichlet", "--p-list", "2,4",
                "--domain", square_json, "--grid", "24",
                "--report", "sw.json"]) == 0
    report = read_json("sw.json")
    ps = [e["p"] for e in report["entries"]]
    roots = [e["root"] for e in report["entries"]]
    assert ps == [2.0, 4.0]
    assert roots[1] < roots[0]
    assert report["limitTarget"] == pytest.approx(2.0)


def test_sweep_command_neumann(square_json, workdir):
    assert run(["sweep", "--problem", "neumann", "--p-list", "2,3",
                "--domain", square_json, "--grid", "24",
                "--report", "sw.json"]) == 0
    report = read_json("sw.json")
    assert report["limitTarget"] == pytest.approx(math.sqrt(2.0))
    assert len(report["entries"]) == 2


def test_reproduce_profile_smoke(workdir):
    prefix = str(workdir / "art-")
    assert run(["reproduce", "fig5", "--grid", "32",
                "--out-prefix", prefix]) == 0
    summary = read_json(prefix + "fig5-summary.json")
    assert set(summary) == {"p", "grid", "samples", "root", "diagonal",
                            "maxDeviationFromLinear"}
    assert summary["maxDeviationFromLinear"] < 0.1
    with open(prefix + "fig5-profile.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "t,normalizedValue"
    assert len(lines) == summary["samples"] + 1
    manifest = read_json(prefix + "fig5-profile.csv.manifest.json")
    assert manifest["artifacts"] == [prefix + "fig5-profile.csv",
                                     prefix + "fig5-summary.json"]


def test_manifest_written_without_artifacts(workdir):
    assert run(["check", "--case", "kink"]) == 0
    manifest = read_json("plaplab-check-manifest.json")
    assert manifest["artifacts"] == []
    assert manifest["config"]["case"] == "kink"


def test_rerun_is_byte_identical(square_json, workdir):
    for tag in ("a", "b"):
        assert run(["eigen", "--type", "dirichlet", "--p", "3",
                    "--domain", square_json, "--grid", "24",
                    "--out", f"{tag}.csv", "--report", f"{tag}.json"]) == 0
    assert filecmp.cmp("a.csv", "b.csv", shallow=False)
    assert filecmp.cmp("a.json", "b.json", shallow=False)


def test_reproduce_fig4_field_and_sideview(workdir):
    prefix = str(workdir / "art-")
    assert run(["reproduce", "fig4", "--grid", "24", "--out-prefix", prefix]) == 0
    grid = build_grid(Domain.unit_square(), 24)
    nodes = int(np.count_nonzero(grid.nonexterior))
    field = np.loadtxt(prefix + "fig4-field.csv", delimiter=",", skiprows=1)
    side = np.loadtxt(prefix + "fig4-diagonal-sideview.csv", delimiter=",", skiprows=1)
    assert field.shape == (nodes, 3) and side.shape == (nodes, 2)
    assert np.max(np.abs(field[:, 2])) == 1.0  # sup-normalized eigenfunction
    assert np.all(np.diff(side[:, 0]) >= 0.0)  # sorted by diagonal coordinate
    assert sorted(side[:, 1]) == sorted(field[:, 2])
    manifest = read_json(prefix + "fig4-field.csv.manifest.json")
    assert manifest["artifacts"] == [prefix + "fig4-field.csv",
                                     prefix + "fig4-diagonal-sideview.csv"]
    assert manifest["config"] == {"figure": "fig4", "p": 15.0, "grid": 24, "seed": 0}


def _node_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,value\n")
        fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def test_flow_init_file(square_json, workdir):
    grid = build_grid(Domain.unit_square(), 16)
    X, Y = grid.coordinates()
    u0 = np.sin(np.pi * X) * np.sin(np.pi * Y)
    _node_csv("u0.csv", zip(X.ravel(), Y.ravel(), u0.ravel()))
    argv = ["flow", "--domain", square_json, "--grid", "16", "--tEnd", "0.01",
            "--init", "file", "--init-file", "u0.csv"]
    assert run(argv + ["--trace", "t.csv"]) == 0
    manifest = read_json("t.csv.manifest.json")
    assert manifest["config"]["initFile"] == "u0.csv"
    assert set(manifest["inputDigests"]) == {square_json, "u0.csv"}
    t, sup = np.loadtxt("t.csv", delimiter=",", skiprows=1).T
    assert (t[0], sup[0]) == (0.0, pytest.approx(1.0, abs=1e-15))  # u0 peaks at the centre
    assert 0.0 < sup[-1] < sup[0]

    _node_csv("off.csv", [(0.5, 0.5, 1.0), (2.0, 0.5, 1.0)])
    _node_csv("cols.csv", [(0.5, 1.0)])
    (workdir / "text.csv").write_text("x,y,value\n0.5,0.5,one\n")
    for bad in ("off.csv", "cols.csv", "missing.csv", "text.csv"):
        assert run(argv[:-1] + [bad, "--report", "bad.json"]) == 2
    assert run(argv[:-2]) == 2  # --init file without --init-file
    assert not os.path.exists("bad.json")


def test_radial_plateau_report(workdir):
    assert run(["radial", "--task", "plateau", "--p", "3", "--rho", "0.5",
                "--out", "pl.csv", "--report", "pl.json"]) == 0
    report = read_json("pl.json")
    assert report["gapToB"] == pytest.approx(0.375, rel=1e-12)  # c = 1/2, c rho (2R - rho)
    assert report["maxResidualA"] > 0.0  # the family is spurious for n >= 2
    assert len((workdir / "pl.csv").read_text().splitlines()) == 1026
    config = read_json("pl.csv.manifest.json")["config"]
    assert config == {"task": "plateau", "p": 3.0, "n": 2, "R": 1.0, "rho": 0.5}


@pytest.mark.parametrize("case, argv, bound", [
    ("aronsson", ["--grid", "16"], 1e-3),
    ("torsion-limit", ["--grid", "16"], 1e-9),
    ("eigen-limit-1d", ["--grid", "16"], 1e-9),
])
def test_check_grid_cases(workdir, case, argv, bound):
    assert run(["check", "--case", case, *argv, "--report", "c.json"]) == 0
    report = read_json("c.json")
    assert report["supResidual"] <= bound
    config = read_json("c.json.manifest.json")["config"]
    expected = {"case": case, "grid": 16}
    if case == "eigen-limit-1d":
        expected["lambda"] = 1.0  # the default, recorded
    assert config == expected


def test_check_neumann_bc(workdir):
    assert run(["check", "--case", "neumann-bc", "--report", "n.json"]) == 0
    report = read_json("n.json")
    assert report["pass"] is True and report["witnesses"] == []
    assert read_json("n.json.manifest.json")["config"] == {
        "case": "neumann-bc", "lambda": 1.0}
    assert run(["check", "--case", "neumann-bc", "--lambda", "0.5",
                "--report", "n2.json"]) == 0
    assert read_json("n2.json")["pass"] is False


@pytest.mark.parametrize("argv, reads_seed", [
    (["eigen", "--type", "neumann", "--p", "2", "--out", "o.csv"], True),
    (["eigen", "--type", "dirichlet", "--p", "2", "--out", "o.csv"], False),
    (["sweep", "--problem", "neumann", "--p-list", "2", "--report", "o.csv"], True),
    (["sweep", "--problem", "dirichlet", "--p-list", "2", "--report", "o.csv"], False),
    (["flow", "--bc", "neumann", "--tEnd", "0.001", "--trace", "o.csv"], True),
    (["flow", "--bc", "dirichlet", "--tEnd", "0.001", "--trace", "o.csv"], False),
    (["flow", "--bc", "neumann", "--init", "bump", "--tEnd", "0.001", "--trace", "o.csv"],
     False),
], ids=lambda a: "-".join(x.lstrip("-") for x in a) if isinstance(a, list) else str(a))
def test_manifest_records_seed_only_where_read(square_json, workdir, argv, reads_seed):
    assert run(["--seed", "3", *argv, "--domain", square_json, "--grid", "16"]) == 0
    config = read_json("o.csv.manifest.json")["config"]
    assert config.get("seed") == (3 if reads_seed else None)


def test_solve_affine_boundary_is_reproduced(square_json, workdir):
    assert run(["solve", "--problem", "harmonic", "--p", "2", "--domain", square_json,
                "--grid", "16", "--boundary", "affine", "--out", "a.csv",
                "--report", "a.json"]) == 0
    x, y, u = np.loadtxt("a.csv", delimiter=",", skiprows=1).T
    assert np.max(np.abs(u - (x - y))) < 1e-10  # P1 elements reproduce affine data
    assert read_json("a.json")["boundary"] == "affine"
    assert read_json("a.csv.manifest.json")["artifacts"] == ["a.csv", "a.json"]


# ---------------------------------------------------------------------------
# failure paths (exit code 2, no manifest)


def test_bad_domain_json_exits_2(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert run(["cheeger", "--domain", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_domain_file_exits_2(workdir):
    assert run(["cheeger", "--domain", "nope.json"]) == 2


def test_unknown_figure_exits_2(workdir, capsys):
    assert run(["reproduce", "figX"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_eigen_p_sweep_option_is_gone(square_json, workdir):
    # sweeps run through the sweep subcommand only
    with pytest.raises(SystemExit) as exc:
        run(["eigen", "--type", "dirichlet", "--p-sweep", "2,4",
             "--domain", square_json])
    assert exc.value.code == 2


def test_invalid_exponent_exits_2(square_json, workdir):
    assert run(["solve", "--problem", "torsion", "--p", "1",
                "--domain", square_json]) == 2
    assert run(["flow", "--p", "abc", "--domain", square_json]) == 2
    assert run(["flow", "--p", "inf", "--domain", square_json, "--init", "eigen"]) == 2
    assert run(["eigen", "--type", "dirichlet", "--p", "1",
                "--domain", square_json]) == 2
    for p_list in ("1,2", "2,2"):
        assert run(["sweep", "--problem", "dirichlet", "--p-list", p_list,
                    "--domain", square_json]) == 2


def test_flow_neumann_needs_lattice_filling_domain(workdir):
    disc = workdir / "disc.json"
    disc.write_text(json.dumps(domain_to_json(Domain.disc((0.0, 0.0), 1.0))))
    assert run(["flow", "--p", "2", "--domain", str(disc), "--grid", "32",
                "--bc", "neumann", "--tEnd", "0.001", "--init", "bump"]) == 2


def test_radial_validation_exits_2(workdir):
    assert run(["radial", "--task", "plateau", "--p", "3", "--rho", "1.5"]) == 2
    assert run(["radial", "--task", "plateau", "--p", "3"]) == 2
    # the family needs p > 2, so neither an omitted --p nor p <= 2 is numerical
    for p in ([], ["--p", "2"], ["--p", "1.5"]):
        assert run(["radial", "--task", "plateau", "--rho", "0.5", *p]) == 2
    assert run(["radial", "--task", "eigen", "--k", "0"]) == 2
    # NaN and inf pass sign tests: a parameter that is not finite is a
    # configuration error, not a NaN report or a numerical failure
    for argv in (["--task", "torsion", "--p", "nan"], ["--task", "torsion", "--R", "nan"],
                 ["--task", "gaussian", "--lambda", "nan"], ["--task", "eigen", "--R", "inf"],
                 ["--task", "gaussian", "--p-list", "1.5,nan"]):
        assert run(["radial", *argv]) == 2
    for case, lam in (("kink", "nan"), ("neumann-bc", "nan"), ("eigen-limit-1d", "nan"),
                      ("neumann-limit", "inf"), ("kink", "-1")):
        assert run(["check", "--case", case, "--lambda", lam]) == 2


@pytest.mark.parametrize("option, value", [("--tEnd", "nan"), ("--tEnd", "inf"),
                                           ("--dt", "nan"), ("--delta", "inf")])
def test_flow_option_that_is_not_finite_exits_2(square_json, workdir, option, value):
    argv = ["flow", "--p", "2", "--domain", square_json, "--grid", "8", "--init", "bump"]
    t_end = [] if option == "--tEnd" else ["--tEnd", "0.001"]
    assert run([*argv, *t_end, option, value]) == 2


# each pair is an option and a case that does not read it
@pytest.mark.parametrize("argv", [
    *(["radial", "--task", "torsion", *opt] for opt in
      (["--k", "5"], ["--rho", "0.3"], ["--lambda", "9"], ["--p-list", "1.3"])),
    *(["radial", "--task", "eigen", *opt] for opt in
      (["--rho", "0.3"], ["--lambda", "9"], ["--p-list", "1.3"])),
    *(["radial", "--task", "gaussian", *opt] for opt in
      (["--p", "7"], ["--k", "2"], ["--rho", "0.3"])),
    *(["radial", "--task", "plateau", "--p", "3", "--rho", "0.5", *opt] for opt in
      (["--k", "2"], ["--lambda", "9"], ["--p-list", "1.3"])),
    *(["check", "--case", case, "--grid", "16"] for case in ("kink", "neumann-bc")),
    *(["check", "--case", case, "--lambda", "2"] for case in ("aronsson", "torsion-limit")),
    *(["flow", "--init", init, "--init-file", "u0.csv"] for init in ("eigen", "bump")),
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_option_that_the_case_ignores_exits_2(square_json, workdir, capsys, argv):
    if argv[0] == "flow":
        argv = argv + ["--domain", square_json, "--grid", "16", "--tEnd", "0.001",
                       "--trace", "t.csv"]
    elif argv[0] == "radial":
        argv = argv + ["--out", "o.csv"]
    assert run(argv + ["--report", "r.json"]) == 2
    assert "does not apply to" in capsys.readouterr().err
    assert sorted(os.listdir(workdir)) == ["square.json"]


def test_argparse_rejects_bad_choice(square_json):
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--problem", "poisson", "--p", "2",
             "--domain", square_json])
    assert exc.value.code == 2


def test_threads_option_is_gone(square_json):
    with pytest.raises(SystemExit) as exc:
        run(["--threads", "2", "cheeger", "--domain", square_json])
    assert exc.value.code == 2


def test_cli_import_leaves_scipy_special_and_optimize_unloaded():
    # each costs 65-250 ms of start-up, so the functions that need them
    # import them; a fresh interpreter shows what importing the CLI loads
    src = os.path.dirname(os.path.dirname(plaplab.cli.__file__))
    code = ("import sys, plaplab.cli; print(sorted(m for m in sys.modules "
            "if m in ('scipy.special', 'scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
