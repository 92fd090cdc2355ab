import json

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
    assert len(report["results"]["cases"]) == 4 + 2


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


def test_mc_demo_small(tmp_path):
    code, report = run(["mc-demo", "--N", "4", "--samples", "600", "--seed", "9",
                        "--format", "csv"], tmp_path, "mc-demo")
    assert code == 0
    res = report["results"]
    assert res["toeplitz"]["pass"] and res["antisymmetry"]["pass"]
    csv_head = (tmp_path / "mc-demo-matrix.csv").read_text().split("\n")[0]
    assert csv_head == "row,col,mean,stderr"


def test_mc_demo_zero_samples_exits_2(tmp_path, capsys):
    code, report = run(["mc-demo", "--N", "4", "--samples", "0"], tmp_path, "mc-demo")
    assert code == 2 and report is None
    err = capsys.readouterr().err.strip()
    assert err.startswith("mc-demo: --samples") and "\n" not in err


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
                 ["selftest", "--d", "3", "--N", "9"]):
        assert main(argv + out) == 2, argv
    # config values take the flag's type, range check included
    cfg = tmp_path / "cfg.json"
    for bad in ({"N": 0}, {"trials": -1}, {"delta": 0}, {"p": [1.0]}):
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
    code = main(["norm-study", "--kind", "Bk", "--N", "4", "--kmax", "8",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("norm-study: ") and "\n" not in err
    # S_k needs k < N as B_k does
    code = main(["norm-study", "--kind", "Sk", "--N", "4", "--kmax", "6",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("norm-study: ") and "\n" not in err


def test_norm_study_defaults_admissible(tmp_path):
    code, report = run(["norm-study", "--trials", "1"], tmp_path, "norm-study-Bk")
    assert code == 0
    assert report["config"]["N"] == 9 and report["config"]["kmax"] == 8
