import hashlib
import io
import json

import numpy as np
import pytest

from dyadlab import GridSpec, mc_representation_demo
from dyadlab.cli import main


def run(args, tmp_path, name):
    code = main(args + ["--out", str(tmp_path)])
    path = tmp_path / f"{name}.json"
    report = json.loads(path.read_text()) if path.exists() else None
    return code, report


def test_selftest_passes(tmp_path):
    code, report = run(["selftest", "--d", "1", "--N", "6", "--seed", "7"],
                       tmp_path, "selftest")
    assert code == 0
    assert report["results"]["pass"]
    assert report["results"]["parseval_residual"] < 1e-12
    assert report["config"]["seed"] == 7
    assert "timestamp" in report["meta"]


def test_verify_decomp_small(tmp_path):
    code, report = run(["verify-decomp", "--d", "1", "--N", "4", "--imax", "1",
                        "--jmax", "1", "--trials", "3", "--seed", "7"],
                       tmp_path, "verify-decomp")
    assert code == 0
    assert report["results"]["pass"]
    assert report["results"]["max_residual"] < 1e-9
    # cancellative grid cases + two noncancellative orientations
    cases = report["results"]["cases"]
    assert len(cases) == 4 + 2
    # work counters live in meta: 4 + i + j terms per cancellative case, 4 per
    # noncancellative one, each evaluated once per trial; all 6 cases of 16
    # samples x 3 trials fit one block, whose sweeps make one kernel call per
    # term of the cancellative list at (1, 1) and of each orientation's list
    assert report["meta"]["counters"] == {"cases": 6, "trials": 3, "terms": 28,
                                          "term_evaluations": 84, "blocks": 1,
                                          "term_calls": 6 + 4 + 4}
    assert sum(rep["term_count"] for rep in cases) == 28
    assert "counters" not in report["results"]


def test_a_report_file_holds_the_bytes_json_dump_streams(tmp_path):
    # a report is written as one string; its bytes are those of json.dump
    code, report = run(["verify-decomp", "--biparam", "--N", "3", "--imax", "1",
                        "--jmax", "1", "--trials", "2"], tmp_path, "verify-decomp")
    assert code == 0
    streamed = io.StringIO()
    json.dump(report, streamed, indent=2, sort_keys=True)
    assert (tmp_path / "verify-decomp.json").read_text() == streamed.getvalue() + "\n"


def test_verify_decomp_counts_its_blocks(tmp_path):
    # 27 cases of 1024 samples x 3 trials: blocks of 2 cases
    code, report = run(["verify-decomp", "--N", "10", "--trials", "3"], tmp_path,
                       "verify-decomp")
    assert code == 0
    counters = report["meta"]["counters"]
    assert (counters["cases"], counters["blocks"]) == (27, 14)
    # one case of 4096 samples x 2 trials is a block of its own
    code, report = run(["verify-decomp", "--biparam", "--N", "6", "--imax", "1",
                        "--jmax", "0", "--trials", "2"], tmp_path, "verify-decomp")
    assert code == 0
    counters = report["meta"]["counters"]
    assert (counters["cases"], counters["blocks"]) == (2, 2)


def test_verify_decomp_biparam(tmp_path):
    code, report = run(["verify-decomp", "--biparam", "--d", "1", "--N", "3",
                        "--imax", "1", "--jmax", "1", "--trials", "2",
                        "--seed", "3"], tmp_path, "verify-decomp")
    assert code == 0
    assert report["results"]["pass"]


def test_norm_study_writes_jsonl_and_csv(tmp_path):
    code, _ = run(["norm-study", "--kind", "Bk", "--N", "6", "--kmax", "2",
                   "--trials", "3", "--seed", "5", "--format", "csv"],
                  tmp_path, "norm-study-Bk")
    assert code == 0
    jsonl = (tmp_path / "norm-study-Bk.jsonl").read_text().strip().split("\n")
    assert len(jsonl) == 3
    rec = json.loads(jsonl[0])
    assert rec["kind"] == "Bk" and rec["max_ratio"] <= 1 + 1e-12
    csv_lines = (tmp_path / "norm-study-Bk.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "kind,k,l,i,j,trials,max_ratio,seed"


def test_jn_check(tmp_path):
    code, report = run(["jn-check", "--d", "1", "--N", "5", "--trials", "5",
                        "--p", "1.5", "2.0", "--seed", "2"], tmp_path, "jn-check")
    assert code == 0
    assert report["results"]["ratios"]["2.0"] <= 1 + 1e-12
    # 5 trials of 32 samples fit one block
    assert report["meta"]["counters"] == {"trials": 5, "blocks": 1}
    code, report = run(["jn-check", "--N", "12", "--trials", "5", "--seed", "2"],
                       tmp_path, "jn-check")
    assert report["meta"]["counters"] == {"trials": 5, "blocks": 3}


def test_one_parser_serves_every_call_of_a_process(tmp_path):
    # the parser is built once; calls that share it, with other flags and
    # one through --config, write the bodies of calls on a parser of their own
    from dyadlab import cli
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"N": 5, "p": [1.5, 3.0], "trials": 3}))
    jobs = [(["jn-check", "--config", str(config), "--seed", "2"], "jn-check"),
            (["jn-check", "--N", "4", "--trials", "2"], "jn-check"),
            (["verify-decomp", "--N", "3", "--imax", "1", "--jmax", "1", "--trials", "2"],
             "verify-decomp")]

    def bodies(own_parser):
        out = []
        for n, (argv, name) in enumerate(jobs):
            if own_parser:
                cli.build_parser.cache_clear()
            code, report = run(argv, tmp_path / f"{own_parser}{n}", name)
            assert code == 0
            del report["meta"], report["config"]["out"]
            out.append(report)
        return out
    cli.build_parser()
    built = cli.build_parser.cache_info().misses
    shared = bodies(False)
    assert cli.build_parser.cache_info().misses == built
    assert shared[0]["config"]["p"] == [1.5, 3.0] and shared[1]["config"]["N"] == 4
    assert shared == bodies(True)


def test_jn_check_verdict_reads_p2_when_the_ratios_omit_it(tmp_path, monkeypatch):
    from dyadlab import cli
    code, report = run(["jn-check", "--N", "5", "--trials", "4", "--p", "1.5"],
                       tmp_path, "jn-check")
    assert code == 0
    assert set(report["results"]["ratios"]) == {"1.5"}
    assert report["results"]["p2_at_most_one"] is True
    # a p = 2 ratio above 1 fails the check although --p does not list 2
    asked = []

    def study(grid, ps, **kwargs):
        asked.append(list(ps))
        return {1.5: 0.5, 2.0: 1.5}

    monkeypatch.setattr(cli, "jn_study", study)
    code, report = run(["jn-check", "--N", "5", "--trials", "4", "--p", "1.5"],
                       tmp_path, "jn-check")
    assert code == 1 and asked == [[1.5, 2.0]]
    assert report["results"] == {"ratios": {"1.5": 0.5}, "p2_at_most_one": False}


def test_mc_demo_small(tmp_path):
    code, report = run(["mc-demo", "--N", "4", "--samples", "600", "--seed", "9",
                        "--format", "csv"], tmp_path, "mc-demo")
    assert code == 0
    res = report["results"]
    assert res["toeplitz"]["pass"] and res["antisymmetry"]["pass"]
    # work counters live in meta, so the body stays byte-identical
    assert report["meta"]["counters"] == {"samples": 600, "distinct_grids": 16}
    assert "counters" not in res
    csv = tmp_path / "mc-demo-matrix.csv"
    assert csv.read_text().split("\n")[0] == "row,col,mean,stderr"
    # every cell is a plain float literal that reads back exactly
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    rep = mc_representation_demo(GridSpec(1, 4), 600, 9)
    n = rep["mean_matrix"].shape[0]
    assert rows.shape == (n * n, 4)
    assert np.array_equal(rows[:, :2], np.argwhere(np.ones((n, n))))
    assert np.array_equal(rows[:, 2], rep["mean_matrix"].ravel())
    assert np.array_equal(rows[:, 3], rep["stderr_matrix"].ravel())


def test_mc_demo_zero_samples_exits_2(tmp_path, capsys):
    code, report = run(["mc-demo", "--N", "4", "--samples", "0"], tmp_path, "mc-demo")
    assert code == 2 and report is None
    err = capsys.readouterr().err.strip()
    assert err.startswith("mc-demo: --samples") and "\n" not in err


@pytest.mark.parametrize("argv", [["verify-decomp", "--N", "3", "--N2", "5"],
                                  ["norm-study", "--kind", "Bk", "--N", "4", "--N2", "7"]])
def test_n2_on_a_run_of_one_variable_exits_2(argv, tmp_path, capsys):
    # --N2 sizes variable 2: a one-variable run ignored it and wrote it into
    # its report's config
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"{argv[0]}: --N2 ") and "\n" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind, top", [("P", "kmax"), ("P", "lmax"), ("Bk", "lmax"),
                                       ("Sk", "lmax"), ("PP", "kmax"), ("PP1", "lmax"),
                                       ("BPk", "lmax"), ("PBl", "kmax")])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_norm_study_top_of_a_missing_axis_exits_2(kind, top, where, tmp_path, capsys):
    # a kind with no B or S axis on a variable ignored its top and wrote it
    # into its report's config
    argv = ["norm-study", "--kind", kind, "--N", "3", "--trials", "1", "--out", str(tmp_path)]
    if where == "flag":
        argv += [f"--{top}", "1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({top: 1}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"norm-study: --{top} ") and "\n" not in err
    assert [p.name for p in tmp_path.iterdir()] == (["cfg.json"] if where == "config" else [])


@pytest.mark.parametrize("command", ["selftest", "verify-decomp", "jn-check", "bound-study"])
def test_format_csv_on_a_command_that_writes_no_csv_exits_2(command, tmp_path, capsys):
    # each accepted --format csv, exited 0 and wrote no CSV
    assert main([command, "--format", "csv", "--out", str(tmp_path)]) == 2
    assert "--format: invalid choice: 'csv'" in capsys.readouterr().err.strip().splitlines()[-1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "csv"}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("bad config file: format: 'csv' is not one of json") and "\n" not in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_every_readme_command_line_parses():
    # parsing only: a flag change cannot leave a stale example in the README
    import os
    import shlex
    from dyadlab.cli import build_parser
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines and all(line.startswith("dyadlab ") for line in lines)
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_mc_demo_fails_its_familywise_z_test_on_some_seeds(tmp_path, capsys):
    # the test holds each z-score to a Bonferroni threshold, so about 0.5 %
    # of seeds fail it by design; seed 60 is one, and its exit names it
    code, report = run(["mc-demo", "--N", "6", "--samples", "1000", "--seed", "60"],
                       tmp_path, "mc-demo")
    res = report["results"]
    assert code == 1 and not (res["toeplitz"]["pass"] and res["antisymmetry"]["pass"])
    assert "replay seed: 60" in capsys.readouterr().out.splitlines()


def test_bound_study(tmp_path):
    code, report = run(["bound-study", "--delta", "1.0", "--imax", "1",
                        "--jmax", "1", "--trials", "2", "--N", "4",
                        "--seed", "3"], tmp_path, "bound-study")
    assert code == 0
    res = report["results"]
    assert res["geometric_crosscheck_residual"] < 1e-10
    assert res["bound_ok"]
    jsonl = (tmp_path / "bound-study.jsonl").read_text().strip().split("\n")
    assert len(jsonl) == len(res["reports"])
    assert json.loads(jsonl[0])["kind"] == "commutator"
    # work counters live in meta: 4 (i, j) pairs of 2 trials, one block
    assert report["meta"]["counters"] == {"pairs": 4, "trials": 2, "blocks": 1}
    # 9 trials of 1024 samples fill two blocks of 8
    code, report = run(["bound-study", "--imax", "0", "--jmax", "0", "--trials", "9",
                        "--N", "10", "--seed", "3"], tmp_path, "bound-study")
    assert code == 0
    assert report["meta"]["counters"] == {"pairs": 1, "trials": 9, "blocks": 2}


def test_usage_error_exit_code(tmp_path):
    assert main(["no-such-command"]) == 2
    assert main(["selftest", "--d", "zero"]) == 2
    out = ["--out", str(tmp_path)]
    for argv in (["verify-decomp", "--d", "0"],
                 ["norm-study", "--kind", "PP", "--N", "0"],
                 ["verify-decomp", "--trials", "-1"],
                 ["verify-decomp", "--imax", "-1"],
                 ["jn-check", "--p", "1.0"],
                 ["jn-check", "--p", "nan"],
                 ["bound-study", "--delta", "0"],
                 ["bound-study", "--delta", "inf"],
                 ["selftest", "--N", "25"],
                 ["selftest", "--d", "3", "--N", "9"],
                 ["mc-demo", "--N", "1"],  # no (0, 1) shift fits one level
                 # numpy seeds are nonnegative
                 ["mc-demo", "--seed", "-1"],
                 ["selftest", "--seed", "-1"],
                 # a NaN tolerance would fail every check, or none
                 ["selftest", "--tol", "nan"],
                 ["selftest", "--tol", "-1"],
                 ["verify-decomp", "--tol", "nan"],
                 ["verify-decomp", "--tol", "inf"],
                 ["norm-study", "--kind", "Bkl", "--tol", "nan"],
                 ["norm-study", "--tol", "-1e-12"],
                 # a prefix of --trials is no flag, so a config file cannot
                 # override it unseen
                 ["norm-study", "--kind", "Bk", "--N", "5", "--kmax", "2", "--tri", "2"]):
        assert main(argv + out) == 2, argv
    # config values take the flag's type, range check included
    cfg = tmp_path / "cfg.json"
    for bad in ({"N": 0}, {"trials": -1}, {"delta": 0}, {"p": [1.0]},
                {"tol": float("nan")}, {"tol": -1}, {"tol": "inf"}, {"seed": -1}):
        cfg.write_text(json.dumps(bad))
        command = {"delta": "bound-study", "p": "jn-check"}.get(next(iter(bad)),
                                                                 "verify-decomp")
        assert main([command, "--config", str(cfg)] + out) == 2, bad
    assert list(tmp_path.glob("*.json")) == [cfg]


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 1, "N": 5, "seed": 123}))
    code, report = run(["selftest", "--config", str(cfg), "--N", "4"],
                       tmp_path, "selftest")
    assert code == 0
    assert report["config"]["N"] == 4       # flag wins
    assert report["config"]["seed"] == 123  # config fills the rest
    assert main(["selftest", "--config", str(tmp_path / "missing.json")]) == 2


def test_report_determinism(tmp_path):
    args = ["verify-decomp", "--d", "1", "--N", "3", "--imax", "1",
            "--jmax", "0", "--trials", "2", "--seed", "11",
            "--out", str(tmp_path)]
    assert main(args) == 0
    first = (tmp_path / "verify-decomp.json").read_bytes()
    assert main(args) == 0
    second = (tmp_path / "verify-decomp.json").read_bytes()
    r1 = json.loads(first)
    r2 = json.loads(second)
    r1.pop("meta")
    r2.pop("meta")
    # identical config + seed: byte-identical outside the metadata field
    assert json.dumps(r1, sort_keys=True).encode() == \
        json.dumps(r2, sort_keys=True).encode()


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DYADLAB_OUTDIR", str(tmp_path / "envout"))
    code = main(["selftest", "--d", "1", "--N", "4", "--seed", "1"])
    assert code == 0
    assert (tmp_path / "envout" / "selftest.json").exists()


def test_config_values_use_flag_types_and_choices(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": "5", "seed": 3}))
    code, report = run(["selftest", "--config", str(cfg)], tmp_path, "selftest")
    assert code == 0
    assert report["config"]["N"] == 5
    for bad in ({"N": "six"}, {"N": 6.5}, {"d": True}, {"N": None},
                {"format": "xml"}, {"p": 2.0}, {"p": [1.5, "x"]}):
        cfg.write_text(json.dumps(bad))
        command = "jn-check" if "p" in bad else "selftest"
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("bad config file: ") and "\n" not in err


def test_config_key_naming_no_flag_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trails": 3}))
    assert main(["verify-decomp", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("bad config file: trails") and "\n" not in err
    assert not (tmp_path / "verify-decomp.json").exists()


def test_config_top_level_not_an_object_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([1, 2]))
    assert main(["selftest", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("bad config file: ") and "object" in err and "\n" not in err


def test_inadmissible_parameters_exit_2(tmp_path, capsys):
    # a grid over the sample budget is refused with one line, for B_k and S_k
    for kind in ("Bk", "Sk"):
        code = main(["norm-study", "--kind", kind, "--N", "25", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("norm-study: ") and "\n" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["Bk", "Sk"])
def test_norm_study_kmax_stops_at_finest_level(kind, tmp_path):
    # k = 6..8 do not exist on an N = 6 grid; the study skips them as the
    # bi-parameter kinds do
    code, report = run(["norm-study", "--kind", kind, "--N", "6", "--trials", "1"],
                       tmp_path, f"norm-study-{kind}")
    assert code == 0
    assert [r["k"] for r in report["results"]["reports"]] == list(range(6))


def test_norm_study_counts_trials_combos_and_blocks(tmp_path):
    # 16 x 16 samples a trial: blocks of 32 trials, so 40 trials take two
    code, report = run(["norm-study", "--kind", "PP1", "--N", "4", "--trials", "40"],
                       tmp_path, "norm-study-PP1")
    assert code == 0
    assert report["meta"]["counters"] == {"trials": 40, "combos": 1, "blocks": 2}
    assert "counters" not in report["results"]
    code, report = run(["norm-study", "--kind", "Bk", "--N", "6", "--kmax", "3",
                        "--trials", "3"], tmp_path, "norm-study-Bk")
    assert code == 0
    assert report["meta"]["counters"] == {"trials": 3, "combos": 4, "blocks": 1}


def test_norm_study_defaults_admissible(tmp_path):
    code, report = run(["norm-study", "--trials", "1"], tmp_path, "norm-study-Bk")
    assert code == 0
    assert report["config"]["N"] == 9 and report["config"]["kmax"] == 8


# sha256 of report bodies without ``meta`` and ``config.out``, pinned so
# that a change which moves any reported number, however little, fails here.
PINNED_REPORTS = [
    (["norm-study", "--kind", "Bk", "--N", "6", "--kmax", "5", "--trials", "5"],
     "norm-study-Bk", "57fc05ef499c9766a407a4ed76354fc0323667dab1976c565f48f39bf1142590"),
    (["norm-study", "--kind", "Sk", "--N", "6", "--kmax", "5", "--trials", "5"],
     "norm-study-Sk", "356cdb40b8db268bf69d33a74b312ad0f7f7d3c1d5d52140337632b1a3fcfd56"),
    (["norm-study", "--kind", "P", "--N", "6", "--trials", "5"],
     "norm-study-P", "3bb1b80a28f9f8b3812f1f8d12e1d33af092ca381c21720e801cda55569078bb"),
    (["norm-study", "--kind", "PP", "--N", "3", "--N2", "4", "--trials", "20"],
     "norm-study-PP", "56c858ef1e028a27e85e4a728aa43f0215ec9610dbbf3f56d4ce8e97c060a39e"),
    # 40 trials of 16 x 16 samples span two trial blocks
    (["norm-study", "--kind", "PP1", "--N", "4", "--trials", "40"],
     "norm-study-PP1", "7114bb487d0e3d25332b329aa793cfc52f72d69d5066a9bb4302bd8f44e707de"),
    (["norm-study", "--kind", "BPk", "--N", "3", "--N2", "4", "--trials", "10"],
     "norm-study-BPk", "019dd48b6d57e5214349d0325154796597e1b3257ea51cce8f41157df65adb6c"),
    (["norm-study", "--kind", "PBl", "--N", "4", "--N2", "3", "--trials", "10"],
     "norm-study-PBl", "9076b7e5eaaa9f0d01869323297cce6beac6baf1f782c08140958b9b9411d235"),
    (["norm-study", "--kind", "Bkl", "--N", "3", "--trials", "5"],
     "norm-study-Bkl", "73289349b837697474983cd30b897c02701f5dfff97f86f24ed53c1da2fa463d"),
    (["jn-check", "--N", "6", "--trials", "5"],
     "jn-check", "4bc88a5d83a00893f4bac94300e65b84b556623e3cf26f0c1d9b649da727d0f4"),
    (["jn-check", "--d", "2", "--N", "3", "--trials", "5"],
     "jn-check", "b8125782163e9a825fd1bc1fa1664242c97e3faab3df5b76bd27f2e1be51fe4a"),
    # 7 trials of 4096 samples span four blocks of 2 trials
    (["jn-check", "--N", "12", "--trials", "7"],
     "jn-check", "a4a32721ac6baa239824cb4ef57f0731339b471922ea65e656571c10e7c6f399"),
    (["jn-check", "--d", "3", "--N", "3", "--trials", "9", "--p", "1.1", "2.0", "7.5"],
     "jn-check", "9d3ca248dad3fb9b9ba22e4b978331828476acabb13b606f08272012bff87941"),
    (["verify-decomp", "--d", "1", "--N", "4", "--imax", "1", "--jmax", "1", "--trials", "3"],
     "verify-decomp", "c7c81b9270a95d9360241755bb95a80fbdb7fe88c88183db817c9b7c0c7b2819"),
    # 27 cases of 1024 samples x 3 trials span 14 blocks of 2 cases
    (["verify-decomp", "--N", "10", "--imax", "4", "--jmax", "4", "--trials", "3"],
     "verify-decomp", "638c046cd0bc302063e6767c9172f75502d2fbb8aee81762e5a98839829b0168"),
    (["mc-demo", "--N", "4", "--samples", "600", "--seed", "9"],
     "mc-demo", "05fa5c91e8ac45f1cc3225aef45c081bf55b24a7ad536d85795e236294999861"),
    # the perfbench grids job: 25 (i, j) x 4 trials in one block
    (["bound-study", "--trials", "4"],
     "bound-study", "e95bbce65e25199c46de66902462a15d074d3687ea82e69d8fcf85c21abcfc03"),
    (["bound-study", "--d", "2", "--N", "3", "--trials", "5"],
     "bound-study", "f9438ee049f9917725c0ae71ce9566e2a068cb23411118cc8bf5c9621b8d863d"),
    # 9 (i, j) x 6 trials of 512 samples span four blocks of 16 trials
    (["bound-study", "--N", "9", "--imax", "2", "--jmax", "2", "--trials", "6"],
     "bound-study", "0b4941ae5143f457a19f1246e70d08cc83ef9ac281d9172948d21c31c715c324"),
]


@pytest.mark.parametrize("argv, name, digest", PINNED_REPORTS,
                         ids=[" ".join(argv) for argv, _, _ in PINNED_REPORTS])
def test_report_bodies_are_pinned(argv, name, digest, tmp_path):
    code, report = run(argv, tmp_path, name)
    assert code == 0
    del report["meta"]
    del report["config"]["out"]
    body = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == digest
