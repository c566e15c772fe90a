"""Command line surface: outputs, exit codes, config handling, determinism."""
import argparse
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

import ektlab
from ektlab import cli, solver
from ektlab import helicoid as hc
from ektlab.cli import main
from ektlab.helicoid import t_mu


def run(*argv):
    return main(list(argv))


def test_helicoid_umbrella_report(tmp_path):
    out = tmp_path / "o"
    assert run("helicoid", "--mu", "0", "--out", str(out)) == 0
    rep = json.loads((out / "helicoid_mu_0.json").read_text())
    assert rep["special"] == "umbrella"
    assert rep["t_mu"] == "inf"
    assert rep["minimality_residual"] < 1e-6
    csv = (out / "helicoid_mu_0.csv").read_text().splitlines()
    assert csv[0].startswith("# mu=")
    assert "v,f,h" in csv[:5]


def test_helicoid_horizontal_member_has_no_first_integral(tmp_path):
    out = tmp_path / "o"
    assert run("helicoid", "--mu", "0.5", "--out", str(out)) == 0
    rep = json.loads((out / "helicoid_mu_0.5.json").read_text())
    assert rep["special"] == "invariant surface"
    assert rep["c"] is None
    assert rep["first_integral_residual"] is None


def test_distinct_members_write_distinct_files(tmp_path, capsys):
    out = tmp_path / "o"
    for mu in ("0.5", "0.5000001"):
        assert run("helicoid", "--mu", mu, "--spacing", "1e-2", "--out", str(out)) == 0
        assert capsys.readouterr().out.startswith(f"mu={mu}")
    assert sorted(p.name for p in out.iterdir()) == [
        "helicoid_mu_0.5.csv", "helicoid_mu_0.5.json",
        "helicoid_mu_0.5000001.csv", "helicoid_mu_0.5000001.json"]
    assert json.loads((out / "helicoid_mu_0.5000001.json").read_text())["mu"] == 0.5000001
    assert json.loads((out / "helicoid_mu_0.5.json").read_text())["mu"] == 0.5


def test_helicoid_next_to_the_strip_edge(tmp_path):
    """mu = -0.5001 has t_mu ~ 1/|c| ~ 1e4, which the closed form reaches."""
    out = tmp_path / "o"
    assert run("helicoid", "--mu", "-0.5001", "--spacing", "1", "--out", str(out)) == 0
    rep = json.loads((out / "helicoid_mu_-0.5001.json").read_text())
    assert rep["t_mu"] == pytest.approx(10000.9994452, rel=1e-9)


def test_a_stalled_profile_inversion_is_a_numeric_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("ektlab.helicoid._NEWTON_ITERS", 1)
    assert run("helicoid", "--mu", "-0.6", "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert "numeric failure: profile inversion stalled (mu=-0.6)" in err


def test_helicoid_obj_export(tmp_path):
    out = tmp_path / "o"
    assert run("helicoid", "--mu", "1", "--obj", "--out", str(out)) == 0
    obj = (out / "helicoid_mu_1.obj").read_text().splitlines()
    assert obj[0].startswith("# mu=")
    n_v = sum(1 for l in obj if l.startswith("v "))
    n_f = sum(1 for l in obj if l.startswith("f "))
    assert n_v > 500 and n_f > 500
    # faces index into the vertex list
    worst = max(int(p) for l in obj if l.startswith("f ")
                for p in l.split()[1:])
    assert worst <= n_v


def test_solve_report_fields(tmp_path):
    out = tmp_path / "o"
    assert run("solve", "--a", "2", "--b", "2", "--H", "0.25", "--M", "2",
               "--M", "4", "--target-h", "0.05", "--out", str(out)) == 0
    rep = json.loads((out / "solution_a2_b2_k2_H0.25.json").read_text())
    assert rep["a"] == 2.0 and rep["b"] == 2.0 and rep["k"] == 2
    assert rep["H"] == 0.25 and rep["M"] == 4.0
    # two M values, so the divergence indicator is populated: it is taken
    # over the nodes at least half the domain's depth from the far side
    assert rep["cauchy_indicator"] is not None
    assert rep["cauchy_indicator"] >= 0.0
    assert 0.0 < rep["d_estimate"] < 2.0
    assert rep["discretization_failure"] is False
    csv = (out / "solution_a2_b2_k2_H0.25.csv").read_text().splitlines()
    assert "x,y,u,nu,tag" in csv[:5]


def test_solve_reports_a_discretization_failure(tmp_path, monkeypatch):
    # u drops by 1e-6 from M = 2 to M = 4, past the sweep's 1e-8 allowance
    from ektlab import solver
    solve = solver.solve_dirichlet

    def dropping(domain, data, **kwargs):
        sol = solve(domain, data, **kwargs)
        if data["side_p1p2"] == 4.0:
            sol.u = sol.u - 1e-6
        return sol

    monkeypatch.setattr(solver, "solve_dirichlet", dropping)
    out = tmp_path / "o"
    assert run("solve", "--a", "2", "--b", "2", "--H", "0.25", "--M", "2",
               "--M", "4", "--target-h", "0.05", "--out", str(out)) == 0
    rep = json.loads((out / "solution_a2_b2_k2_H0.25.json").read_text())
    assert rep["discretization_failure"] is True


def test_solve_accepts_inf_literal(tmp_path):
    out = tmp_path / "o"
    assert run("solve", "--a", "inf", "--b", "1", "--H", "0.5", "--M", "2",
               "--target-h", "0.05", "--out", str(out)) == 0
    rep = json.loads((out / "solution_ainf_b1_k2_H0.5.json").read_text())
    assert rep["a"] == "inf"


@pytest.mark.parametrize("argv", [
    ("solve", "--a", "1", "--b", "1", "--H", "0.7", "--M", "2"),
    ("solve", "--a", "inf", "--b", "inf", "--H", "0.5", "--M", "2"),
    ("solve", "--a", "1", "--b", "1", "--H", "0.25", "--M", "4", "--M", "2"),
    ("solve", "--a", "1", "--b", "1", "--H", "0.25", "--M", "2", "--k", "1"),
    ("figure", "catenoid-domains", "--mu", "0.3"),
    ("figure", "noid-domain", "--H", "0.5"),
])
def test_usage_errors_exit_2(tmp_path, argv):
    assert run(*argv, "--out", str(tmp_path / "o")) == 2


def test_missing_out_parent_exits_2(tmp_path):
    assert run("helicoid", "--mu", "0",
               "--out", str(tmp_path / "no" / "such" / "dir")) == 2


def test_out_collides_with_file_exits_2(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("x")
    assert run("helicoid", "--mu", "0", "--out", str(blocker)) == 2


def test_config_overrides_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nmu=-1\n")
    out = tmp_path / "o"
    assert run("helicoid", "--mu", "3", "--config", str(cfg),
               "--out", str(out)) == 0
    rep = json.loads((out / "helicoid_mu_-1.json").read_text())
    assert rep["mu"] == -1.0


def test_config_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mysterious=1\n")
    assert run("helicoid", "--mu", "1", "--config", str(cfg),
               "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("line", ["func=x", "command=solve"])
def test_config_key_that_names_no_option_exits_2(tmp_path, capsys, line):
    # func and command live on the parsed namespace but are not options
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run("helicoid", "--mu", "0.5", "--config", str(cfg),
               "--out", str(tmp_path / "o")) == 2
    assert "unknown key" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("word,written", [
    ("YES", True), ("true", True), ("1", True),
    ("No", False), ("false", False), ("0", False)])
def test_config_switch_reads_truth_words_in_any_case(tmp_path, word, written):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"obj = {word}\n")
    out = tmp_path / "o"
    flag = [] if written else ["--obj"]
    assert run("helicoid", "--mu", "1", *flag, "--config", str(cfg),
               "--out", str(out)) == 0
    assert (out / "helicoid_mu_1.obj").exists() == written


@pytest.mark.parametrize("word", ["ture", "on", ""])
def test_config_switch_misspelled_exits_2(tmp_path, capsys, word):
    # a misspelled switch used to read as false and exit 0 with no OBJ
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# switches\nobj = {word}\n")
    assert run("helicoid", "--mu", "1", "--config", str(cfg),
               "--out", str(tmp_path / "o")) == 2
    assert f"{cfg}:2: {word!r} is not one of" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_missing_file_exits_2(tmp_path):
    assert run("helicoid", "--mu", "1", "--config", str(tmp_path / "nope"),
               "--out", str(tmp_path / "o")) == 2


def test_audit_clean_run(tmp_path):
    out = tmp_path / "o"
    assert run("audit", "--out", str(out)) == 0
    text = (out / "audit.txt").read_text()
    assert text.count("PASS") == 14
    assert "FAIL" not in text
    assert "all 14 checks passed" in text


def test_audit_fault_injection_flips_one_row(tmp_path):
    out = tmp_path / "o"
    assert run("audit", "--fault-inject", "1e-3", "--out", str(out)) == 1
    lines = (out / "audit.txt").read_text().splitlines()
    failed = [l for l in lines if "FAIL" in l]
    assert len(failed) == 1
    assert "helicoid-residuals-mu-quarter" in failed[0]
    assert float(failed[0].split("measured=")[1].split()[0]) > 1e-4


def test_catenoid_figure_verdicts(tmp_path):
    out = tmp_path / "o"
    assert run("figure", "catenoid-domains", "--mu", "-3", "--mu", "3",
               "--step", "2e-3", "--out", str(out)) == 0
    rep = json.loads((out / "catenoid_domains.json").read_text())
    verdicts = rep["verdicts"]
    assert verdicts["-3"]["embedded"] is True
    assert verdicts["-3"]["crossings"] == 0
    assert verdicts["3"]["embedded"] is False
    assert verdicts["3"]["multiplicity_2_area"] > 0.0
    svg = (out / "catenoid_domains.svg").read_text()
    assert svg.startswith("<svg") or svg.startswith("<?xml")


def test_sweep_is_deterministic_across_workers(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("a_grid=0.5,1\nb_grid=0.5,1\nM=2,4\ntarget_h=0.05\n")
    outs = {}
    for label, workers in (("serial", "1"), ("pool", "2")):
        out = tmp_path / label
        assert run("figure", "sweep-d", "--config", str(cfg),
                   "--workers", workers, "--out", str(out)) == 0
        outs[label] = (out / "sweep_d.csv").read_bytes()
    assert outs["serial"] == outs["pool"]
    rep = json.loads((tmp_path / "serial" / "sweep_d.json").read_text())
    assert rep["monotone_in_a"] is True
    assert rep["monotone_in_b"] is True
    assert rep["max_d"] <= rep["max_d_over_schedule"] + 1e-12


@pytest.mark.parametrize("flag", ["--a-grid", "--b-grid"])
def test_sweep_empty_grid_exits_2(tmp_path, capsys, flag):
    assert run("figure", "sweep-d", flag, "", "--out",
               str(tmp_path / "o")) == 2
    assert "sweep grids must not be empty" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_workers_below_one_exits_2(tmp_path, capsys, monkeypatch,
                                         workers):
    solved = []
    monkeypatch.setattr(cli, "_sweep_point", solved.append)
    assert run("figure", "sweep-d", "--a-grid", "1", "--b-grid", "1",
               "--workers", workers, "--out", str(tmp_path / "o")) == 2
    assert "--workers must be at least 1" in capsys.readouterr().err
    assert solved == []


@pytest.mark.parametrize("step", ["0", "-1e-3", "nan"])
def test_noid_domain_bad_step_exits_2_before_solving(tmp_path, capsys,
                                                     monkeypatch, step):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking --step")

    monkeypatch.setattr(cli, "solve_jenkins_serrin", no_solve)
    assert run("figure", "noid-domain", "--H", "0.45", "--step=" + step,
               "--out", str(tmp_path / "o")) == 2
    assert "--step must be positive" in capsys.readouterr().err


def test_noid_domain_unresolved_vertex_names_the_mesh_width(tmp_path, capsys):
    # at h = 0.5 no ray of the theta' probe lands inside the mesh: the
    # message must say which mesh width to refine
    out = tmp_path / "o"
    assert run("figure", "noid-domain", "--H", "0.4", "--b", "2",
               "--target-h", "0.5", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "insufficient near-vertex resolution" in err
    assert "target_h=0.5" in err
    assert not out.exists()


@pytest.fixture
def no_work(monkeypatch):
    """Every entry point into real work raises: a usage error must come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for name in ("solve_jenkins_serrin", "_sweep_point",
                 "critical_catenoid_domain", "residual_grid"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("argv", [
    ("solve", "--a", "1", "--b", "1", "--H", "0.4", "--target-h", "nan"),
    ("figure", "sweep-d", "--H", "0.4", "--target-h", "nan"),
    ("figure", "noid-domain", "--H", "0.4", "--target-h", "nan"),
    ("figure", "catenoid-domains", "--step", "nan"),
    ("figure", "catenoid-domains", "--s-cap", "nan"),
    ("helicoid", "--mu", "1", "--spacing", "nan"),
    ("helicoid", "--mu", "nan"),
], ids=["solve-target-h", "sweep-d-target-h", "noid-domain-target-h",
        "catenoid-step", "catenoid-s-cap", "helicoid-spacing", "helicoid-mu"])
def test_nan_input_is_a_usage_error_before_any_work(tmp_path, capsys,
                                                    no_work, argv):
    assert run(*argv, "--out", str(tmp_path / "o")) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
@pytest.mark.parametrize("argv", [
    ("solve", "--a", "1", "--b", "inf", "--H", "0.4"),
    ("figure", "noid-domain", "--H", "0.4"),
], ids=["solve", "noid-domain"])
def test_bad_r_trunc_is_a_usage_error_before_solving(tmp_path, capsys,
                                                     no_work, argv, value):
    assert run(*argv, "--r-trunc=" + value, "--out", str(tmp_path / "o")) == 2
    assert "--r-trunc must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["1", "0", "-2"])
def test_catenoid_figure_bad_k_is_a_usage_error_before_marching(tmp_path, capsys,
                                                                no_work, k):
    assert run("figure", "catenoid-domains", "--k", k,
               "--out", str(tmp_path / "o")) == 2
    assert "k must be an integer >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("u_max", ["nan", "-1", "0", "inf"])
def test_helicoid_bad_u_max_is_a_usage_error_before_any_work(tmp_path, capsys,
                                                              no_work, u_max):
    assert run("helicoid", "--mu", "1", "--obj", "--u-max=" + u_max,
               "--out", str(tmp_path / "o")) == 2
    assert "--u-max must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("samples,allowed", [(9_999_999, True),
                                             (10_000_001, False)])
def test_helicoid_grid_over_ten_million_samples_is_a_usage_error(
        tmp_path, capsys, no_work, samples, allowed):
    # residual_grid is refused by no_work, so neither case allocates: an
    # allowed grid gets as far as asking for it, a rejected one does not
    vmax = 0.9 * t_mu(1.0)
    spacing = vmax / ((samples - 1) / 2 + 0.4)
    argv = ("helicoid", "--mu", "1", "--spacing", repr(spacing),
            "--out", str(tmp_path / "o"))
    if allowed:
        with pytest.raises(AssertionError, match="work started"):
            run(*argv)
    else:
        assert run(*argv) == 2
        assert "more than 10,000,000 samples" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--mu", "1", "--spacing", "1e-9"),  # 2.5e9 samples, 19 GiB per array
    ("--mu", "0", "--window", "inf"),    # t_mu = inf: the window sets vmax
], ids=["tiny-spacing", "infinite-window"])
def test_helicoid_oversized_grid_is_a_usage_error(tmp_path, capsys, no_work,
                                                  argv):
    assert run("helicoid", *argv, "--out", str(tmp_path / "o")) == 2
    assert "more than 10,000,000 samples" in capsys.readouterr().err


def test_helicoid_window_past_the_overflow_limit_is_a_usage_error(
        tmp_path, capsys, no_work):
    # 2e4 samples pass the sample cap, but x**2 overflows near 1e300
    assert run("helicoid", "--mu", "0.25", "--window", "1e300",
               "--spacing", "1e296", "--out", str(tmp_path / "o")) == 2
    assert "--window must be at most 1e+100" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # the limit itself passes, and a member with finite t_mu ignores the window
    for argv in (("--mu", "0.25", "--window", "1e100", "--spacing", "1e96"),
                 ("--mu", "1", "--window", "1e300")):
        with pytest.raises(AssertionError, match="work started"):
            run("helicoid", *argv, "--out", str(tmp_path / "o"))


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("argv,dest", [
    (["helicoid", "--mu", "1"], "mu"),
    (["figure", "catenoid-domains"], "mus"),
], ids=["helicoid", "catenoid"])
def test_mu_past_1e100_is_a_usage_error(tmp_path, capsys, no_work, argv, dest,
                                        via):
    # t_mu cubes and sigma squares mu as Python floats: OverflowError at 1e300
    if via == "flag":
        argv = argv + ["--mu=1e300"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{dest}=1e300\n")
        argv = argv + ["--config", str(cfg)]
    assert run(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --mu must be") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_mu_at_1e100_keeps_its_outcome(tmp_path, capsys):
    assert run("helicoid", "--mu=1e100", "--out", str(tmp_path / "h")) == 1
    assert "need at least 5 profile samples" in capsys.readouterr().err
    # no march step resolves theta' there: refused, where it once wrote a
    # wrong "embedded" verdict
    assert run("figure", "catenoid-domains", "--mu=1e100",
               "--out", str(tmp_path / "c")) == 1
    assert "cannot resolve theta'" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("mu", ["4000", "-4000"])
def test_catenoid_march_that_cannot_resolve_theta_prime_is_refused(tmp_path, capsys,
                                                                   mu):
    # |sigma| * step is about 2 at the default step: theta' is a spike of
    # width 1/|sigma| that the march steps over
    assert run("figure", "catenoid-domains", f"--mu={mu}",
               "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: step 0.0005 cannot resolve theta'")
    assert not (tmp_path / "o").exists()
    # the step the message names is the largest one that runs
    limit = float(err.split("0.25/|sigma| = ")[1])
    assert limit == 0.25 / abs(hc.sigma(float(mu)))
    assert run("figure", "catenoid-domains", f"--mu={mu}", "--step", repr(limit),
               "--s-cap", "0.5", "--out", str(tmp_path / "o")) == 0
    assert run("figure", "catenoid-domains", f"--mu={mu}",
               "--step", repr(math.nextafter(limit, 1.0)), "--s-cap", "0.5",
               "--out", str(tmp_path / "p")) == 1


@pytest.mark.parametrize("mu", ["300", "-300"])
def test_catenoid_march_at_a_sixth_of_the_spike_width_runs(tmp_path, mu):
    # |sigma| * step = 0.15 at the default step
    assert abs(hc.sigma(float(mu))) * 5e-4 == pytest.approx(0.15, abs=1e-3)
    assert run("figure", "catenoid-domains", f"--mu={mu}", "--s-cap", "2",
               "--out", str(tmp_path / "o")) == 0


@pytest.mark.parametrize("step,json_sha,svg_sha", [
    ("5e-4", "b89caebd96aace91bcc4584fff3b1beb9bf21fce0e33c94c4dac80213ce385d1",
     "b1193f672e3705a4ce9486f159497716036d6de9014ad33a1f668bcb2935fe31"),
    ("2e-3", "cef885c591b14840b2e8e73d8e7c078cefe2679e1d48c889ef8ff0e76827e118",
     "664349f1f963ec8f64605e9096fa44162ac2211dfe66e66b9f883f2513f56169"),
])
def test_catenoid_figure_bytes_at_mu_3_are_unchanged(tmp_path, step, json_sha,
                                                     svg_sha):
    """The step check passes mu = +-3 at both steps, and both output files
    keep the bytes they had before the check existed."""
    out = tmp_path / "o"
    assert run("figure", "catenoid-domains", "--mu", "3", "--mu", "-3",
               "--step", step, "--out", str(out)) == 0
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in out.iterdir()} == {"catenoid_domains.json": json_sha,
                                        "catenoid_domains.svg": svg_sha}


def _traced_peak_mib(*argv):
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_catenoid_figure_keeps_only_what_it_draws(tmp_path):
    """At the default step a panel holds its drawn points, not its 240,001-
    point chains, and the march's samples die before the sweep: one panel
    peaks below 26 MiB, and a second panel adds under 1 MiB."""
    one = _traced_peak_mib("figure", "catenoid-domains", "--mu", "3",
                           "--out", str(tmp_path / "one"))
    two = _traced_peak_mib("figure", "catenoid-domains",
                           "--out", str(tmp_path / "two"))
    assert one < 26.0
    assert two < one + 1.0


# a flag value per option type, and what a config line gives the same option
_FLAG_SAMPLES = {float: "0.25", int: "3", cli._parse_side: "inf",
                 cli._float_list: "0.5 1.5", None: "x"}
_REQUIRED = {"helicoid": ["--mu", "1"], "audit": [],
             "solve": ["--a", "1", "--b", "1", "--H", "0.5"],
             "figure catenoid-domains": [], "figure sweep-d": [],
             "figure noid-domain": ["--H", "0.4"]}


def _all_options(parser, command=()):
    """(command, option) for every option of every command, where a figure
    is a command of two words ("figure sweep-d") with options of its own."""
    for act in parser._actions:
        if isinstance(act, argparse._SubParsersAction):
            for name, sub_parser in act.choices.items():
                yield from _all_options(sub_parser, command + (name,))
        elif act.dest != "help":
            yield " ".join(command), act


def test_every_option_is_a_config_key_that_parses_as_its_flag(tmp_path):
    parser = cli._build_parser()
    cfg = tmp_path / "run.cfg"
    checked = 0
    for command, act in _all_options(parser):
        if act.nargs == 0:  # a switch
            flag, line = [act.option_strings[0]], "true"
        elif isinstance(act, argparse._AppendAction):
            flag, line = [act.option_strings[0], "2",
                          act.option_strings[0], "4"], "2,4"
        else:
            value = (str(list(act.choices)[-1]) if act.choices
                     else _FLAG_SAMPLES[act.type])
            flag = act.option_strings[:1] + [value]
            line = value
        argv = command.split() + _REQUIRED[command] + flag
        want = getattr(parser.parse_args(argv), act.dest)
        args = parser.parse_args(command.split() + _REQUIRED[command])
        assert getattr(args, act.dest) != want
        cfg.write_text(f"{act.dest}={line}\n")
        args.config = str(cfg)
        cli._apply_config(args, parser)
        got = getattr(args, act.dest)
        assert got == want and type(got) is type(want), (command, act.dest)
        checked += 1
    # 8 helicoid, 10 solve, 3 audit options; catenoid-domains 6, sweep-d 9
    # and noid-domain 10
    assert checked == 46


# (command, flag, dest) of every numeric option, each with the commands that
# take it: one case checks a figure option on every figure that reads it
_NUMERIC = {}
for _command, _act in _all_options(cli._build_parser()):
    if _act.type in (float, int, cli._parse_side, cli._float_list):
        _NUMERIC.setdefault((_command.split()[0], _act.option_strings[0],
                             _act.dest), []).append(_command)


def test_every_numeric_option_has_one_declared_domain():
    import ast
    import inspect

    # a dict literal keeps the last of two equal keys, so read the source
    table = next(node.value for node in ast.parse(inspect.getsource(cli)).body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "_DOMAINS")
    declared = []
    for key, value in zip(table.keys, table.values):
        if key is None:  # **dict.fromkeys((dest, ...), domain)
            declared += [ast.literal_eval(e) for e in value.args[0].elts]
        else:
            declared.append(ast.literal_eval(key))
    assert len(declared) == len(set(declared)), "a dest with two entries"
    assert set(declared) == set(cli._DOMAINS)
    numeric = {dest for _, _, dest in _NUMERIC}
    assert numeric - set(cli._DOMAINS) == set(), "options without a domain"
    assert set(cli._DOMAINS) - numeric == set(), "domains of no option"


@pytest.fixture
def no_audit(monkeypatch):
    """run_audit refuses as well: an accepted audit option shows as work."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(cli, "run_audit", refuse)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's own type and choice errors
        return exc.code


# the probe values that each option's declared domain admits; every other
# probe value exits 2 before any work
_ADMITTED = {"mu": {"0", "-1"}, "fault_inject": {"0", "-1"},
             "a": {"inf"}, "b_side": {"inf"}, "window": {"inf"},
             "m_sign": {"-1"}, "mus": {"-1"}}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("command,flag,dest", _NUMERIC,
                         ids=[f"{c}-{d}" for c, _, d in _NUMERIC])
def test_numeric_option_domain_is_checked_before_any_work(
        tmp_path, no_work, no_audit, command, flag, dest, value, via):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{dest}={value}\n")
    for full in _NUMERIC[command, flag, dest]:
        argv = full.split() + _REQUIRED[full]
        # "=" keeps "-inf" from reading as a flag
        argv += [f"{flag}={value}"] if via == "flag" else ["--config", str(cfg)]
        argv += ["--out", str(tmp_path / "o")]
        if value in _ADMITTED.get(dest, ()):
            with pytest.raises(AssertionError, match="work started"):
                _exit_code(argv)
        else:
            assert _exit_code(argv) == 2, full
            assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ("figure", "catenoid-domains", "--step", "inf"),
    ("figure", "catenoid-domains", "--s-cap", "inf"),
    ("helicoid", "--mu", "1", "--spacing", "inf"),
    ("solve", "--a", "1", "--b", "1", "--H", "0.4", "--target-h", "inf"),
    ("solve", "--a", "1", "--b", "1", "--H", "0.4", "--M", "2", "--M", "inf"),
    ("figure", "noid-domain", "--H", "0.4", "--step", "inf"),
    ("audit", "--fault-inject", "nan"),
], ids=["catenoid-step", "catenoid-s-cap", "helicoid-spacing", "solve-target-h",
        "solve-M", "noid-domain-step", "audit-fault-inject"])
def test_infinite_or_nan_control_is_a_usage_error(tmp_path, capsys, no_work,
                                                 no_audit, argv):
    assert run(*argv, "--out", str(tmp_path / "o")) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv,config", [
    (("figure", "sweep-d", "--a-grid", "1 1", "--b-grid", "1"), ""),
    (("figure", "sweep-d", "--a-grid", "1", "--b-grid", "2,2"), ""),
    (("figure", "catenoid-domains", "--mu", "3", "--mu", "3"), ""),
    (("figure", "sweep-d"), "a_grid=0.5,1,0.5"),
    (("figure", "catenoid-domains"), "mus=-3,3,-3"),
    # distinct values with one label f"{mu:g}", the key of their verdicts
    (("figure", "catenoid-domains", "--mu", "3", "--mu", "3.0000001",
      "--step", "1e-2", "--s-cap", "5"), ""),
], ids=["a-grid", "b-grid", "mu", "a-grid-config", "mu-config", "mu-label"])
def test_repeated_list_values_are_a_usage_error(tmp_path, capsys, no_work,
                                                argv, config):
    if config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        argv += ("--config", str(cfg))
    assert run(*argv, "--out", str(tmp_path / "o")) == 2
    assert "distinct" in capsys.readouterr().err


def test_noid_domain_at_h_one_half_exits_2_before_making_out(tmp_path, capsys,
                                                          no_work):
    assert run("figure", "noid-domain", "--H", "0.5",
               "--out", str(tmp_path / "o")) == 2
    assert "noid-domain needs H in (0, 1/2)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("argv,flag,key", [
    (["catenoid-domains"], ["--H", "0.3"], "H=0.3"),
    (["sweep-d"], ["--mu", "3"], "mus=3"),
    (["noid-domain", "--H", "0.4"], ["--workers", "2"], "workers=2"),
], ids=["catenoid-H", "sweep-d-mu", "noid-domain-workers"])
def test_an_option_of_another_figure_exits_2_before_any_work(
        tmp_path, no_work, argv, flag, key, via):
    if via == "flag":
        argv = argv + flag
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(key + "\n")
        argv = argv + ["--config", str(cfg)]
    assert _exit_code(["figure", *argv, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_the_figure_name_is_not_a_config_key(tmp_path, capsys, no_work):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("name=sweep-d\n")
    assert run("figure", "catenoid-domains", "--config", str(cfg),
               "--out", str(tmp_path / "o")) == 2
    assert "unknown key 'name'" in capsys.readouterr().err


def test_noid_domain_takes_h_from_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("H=0.4\ntarget_h=0.1\n")
    outs = {}
    for label, argv in (("flags", ["--H", "0.4", "--target-h", "0.1"]),
                        ("config", ["--config", str(cfg)])):
        out = tmp_path / label
        assert run("figure", "noid-domain", *argv, "--out", str(out)) == 0
        outs[label] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert outs["config"] == outs["flags"]
    cfg.write_text("target_h=0.1\n")
    capsys.readouterr()
    assert run("figure", "noid-domain", "--config", str(cfg),
               "--out", str(tmp_path / "none")) == 2
    assert "noid-domain needs H in (0, 1/2)" in capsys.readouterr().err
    assert not (tmp_path / "none").exists()


def test_noid_domain_with_b_on_the_ideal_circle_fails_before_meshing(
        tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("meshed a triangle with a vertex on the ideal circle")

    monkeypatch.setattr(solver, "triangulate", refuse)
    assert run("figure", "noid-domain", "--H", "0.4", "--b", "1e6",
               "--target-h", "0.1", "--out", str(tmp_path / "o")) == 1
    assert "side b = 1e+06 is finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("solve", "--a", "inf", "--b", "4.5", "--H", "0.4"),
    ("solve", "--a", "4.5", "--b", "inf", "--H", "0.4"),
    ("figure", "noid-domain", "--H", "0.4", "--b", "4.5", "--target-h", "0.05"),
])
def test_truncation_short_of_the_finite_side_exits_1(tmp_path, capsys, argv):
    # R_trunc defaults to 4: the solve used to exit 0 with d taken along a
    # leg the mesh had cut short
    assert run(*argv, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert ("R_trunc = 4 does not reach past the finite side, which is 4.5 "
            "long") in err
    assert "b = 4.5" not in err


@pytest.mark.parametrize("workers,pool", [("100000", 3), ("2", 2), ("1", None)])
def test_sweep_pool_is_no_larger_than_the_task_list(tmp_path, monkeypatch,
                                                    workers, pool):
    sizes = []

    class InlinePool:  # records the size it was asked for, starts nothing
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli, "_sweep_point",
                        lambda t: (t[0], t[1], t[0] + t[1], [t[0] + t[1]]))
    assert run("figure", "sweep-d", "--a-grid", "1 2 3", "--b-grid", "1",
               "--workers", workers, "--out", str(tmp_path / "o")) == 0
    assert sizes == ([] if pool is None else [pool])


def test_config_value_outside_the_choices_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m_sign=3\n")
    assert run("solve", "--a", "1", "--b", "1", "--H", "0.25", "--config",
               str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "is not one of" in capsys.readouterr().err


def test_noid_domain_report(tmp_path):
    out = tmp_path / "o"
    assert run("figure", "noid-domain", "--H", "0.45", "--target-h", "0.05",
               "--out", str(out)) == 0
    rep = json.loads((out / "noid_domain.json").read_text())
    assert rep["verdict"]["b_star"] == 0.0  # k=2 threshold
    lo, hi = rep["verdict"]["resolved_s_range"]
    assert lo >= 0.0 and hi > lo
    assert (out / "noid_domain.svg").exists()


def test_console_entry_point(tmp_path):
    # Resolve the console script that pyproject.toml declares and run it the
    # way the generated wrapper does, in a fresh interpreter, against this
    # source tree rather than whatever `ektlab` may be installed on PATH.
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["ektlab"] == "ektlab.cli:main"
    module, func = scripts["ektlab"].split(":")
    out = tmp_path / "o"
    argv = ["ektlab", "helicoid", "--mu", "0.5", "--out", str(out)]
    wrapper = (f"import sys\nfrom {module} import {func}\n"
               f"sys.argv = {argv!r}\nsys.exit({func}())\n")
    src = str(pathlib.Path(ektlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", wrapper], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "helicoid_mu_0.5.json").exists()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("name,flags", [
    ("catenoid-domains", "--step --s-cap --mu --k --out --config"),
    ("sweep-d", "--M --target-h --H --a-grid --b-grid --workers --k --out "
                "--config"),
    ("noid-domain", "--M --target-h --step --s-cap --H --b --r-trunc --k "
                    "--out --config"),
], ids=["catenoid-domains", "sweep-d", "noid-domain"])
def test_figure_help_lists_only_its_own_options(capsys, name, flags):
    with pytest.raises(SystemExit) as exc:
        main(["figure", name, "--help"])
    assert exc.value.code == 0
    listed = [w.split()[0].rstrip(",") for w in capsys.readouterr().out
              .split("options:")[1].splitlines() if w.strip().startswith("-")]
    assert listed == ["-h"] + flags.split()


@pytest.mark.parametrize("argv", [
    ("sweep-d", "--H", "0.4", "--a-grid", "40", "--b-grid", "1",
     "--target-h", "0.5"),
    ("noid-domain", "--H", "0.4", "--b", "4.5", "--target-h", "0.05"),
])
def test_a_failed_figure_leaves_no_out_directory(tmp_path, argv):
    # the mesh cap and the truncation check refuse these before any output
    assert run("figure", *argv, "--out", str(tmp_path / "o")) == 1
    assert not (tmp_path / "o").exists()
