"""Command line surface: outputs, exit codes, config handling, determinism."""
import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ektlab
from ektlab import cli, solver
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
    assert text.count("PASS") == 15
    assert "FAIL" not in text
    assert "all 15 checks passed" in text


def test_audit_fault_injection_flips_one_row(tmp_path):
    out = tmp_path / "o"
    assert run("audit", "--fault-inject", "1e-3", "--out", str(out)) == 1
    lines = (out / "audit.txt").read_text().splitlines()
    failed = [l for l in lines if "FAIL" in l]
    assert len(failed) == 1
    assert "helicoid-residuals-mu-quarter" in failed[0]


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


# a flag value per option type, and what a config line gives the same option
_FLAG_SAMPLES = {float: "0.25", int: "3", cli._parse_side: "inf",
                 cli._float_list: "0.5 1.5", None: "x"}
_REQUIRED = {"helicoid": ["--mu", "1"], "figure": ["sweep-d"], "audit": [],
             "solve": ["--a", "1", "--b", "1", "--H", "0.5"]}


def _all_options(parser):
    """(subcommand, option) for every option of every subcommand."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, sub_parser in sub.choices.items():
        for act in sub_parser._actions:
            if act.dest != "help":
                yield command, act


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
        # the figure name is positional: its flag is the bare value
        argv = [command] + (_REQUIRED[command] if act.option_strings
                            else []) + flag
        want = getattr(parser.parse_args(argv), act.dest)
        args = parser.parse_args([command] + _REQUIRED[command])
        assert getattr(args, act.dest) != want
        cfg.write_text(f"{act.dest}={line}\n")
        args.config = str(cfg)
        cli._apply_config(args, parser)
        got = getattr(args, act.dest)
        assert got == want and type(got) is type(want), (command, act.dest)
        checked += 1
    assert checked == 36  # 8 helicoid, 10 solve, 15 figure, 3 audit options


_NUMERIC = [(command, act.option_strings[0], act.dest)
            for command, act in _all_options(cli._build_parser())
            if act.type in (float, int, cli._parse_side, cli._float_list)]


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
    argv = [command] + _REQUIRED[command]
    if via == "flag":
        argv.append(f"{flag}={value}")  # "=" keeps "-inf" from reading as a flag
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{dest}={value}\n")
        argv += ["--config", str(cfg)]
    argv += ["--out", str(tmp_path / "o")]
    if value in _ADMITTED.get(dest, ()):
        with pytest.raises(AssertionError, match="work started"):
            _exit_code(argv)
    else:
        assert _exit_code(argv) == 2
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


@pytest.mark.parametrize("argv", [
    ("sweep-d", "--H", "0.4", "--a-grid", "40", "--b-grid", "1",
     "--target-h", "0.5"),
    ("noid-domain", "--H", "0.4", "--b", "4.5", "--target-h", "0.05"),
])
def test_a_failed_figure_leaves_no_out_directory(tmp_path, argv):
    # the mesh cap and the truncation check refuse these before any output
    assert run("figure", *argv, "--out", str(tmp_path / "o")) == 1
    assert not (tmp_path / "o").exists()
