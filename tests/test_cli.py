import json
import subprocess
import sys

import pytest

from sumspace.cli import main
from sumspace.functional import _Valuation
from sumspace.geometry import Cube, CubeFamily

TWO_ATOM = {"n": 1, "atoms": [{"x": [0.0], "w": 1.0}, {"x": [1.0], "w": 1.0}]}
STEP = {"values": [0.0, 1.0]}


@pytest.fixture
def files(tmp_path):
    m = tmp_path / "m.json"
    f = tmp_path / "f.json"
    m.write_text(json.dumps(TWO_ATOM))
    f.write_text(json.dumps(STEP))
    return str(m), str(f), tmp_path


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_oracle_command(files, capsys):
    m, f, _ = files
    code, out, err = run_cli(["oracle", "--measure", m, "--function", f, "--p", "2"], capsys)
    assert code == 0
    assert out.strip() == "0.707106781"


def test_net_command(files, capsys, tmp_path):
    m, f, _ = files
    out_path = tmp_path / "net.json"
    code, _, _ = run_cli(
        ["net", "--measure", m, "--p", "2", "--out", str(out_path)], capsys
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert "points" in data and "working_box" in data and "delta_grid" in data
    assert all(v["ok"] for v in data["verification"].values())


def test_whitney_command(files, capsys):
    m, f, _ = files
    code, out, _ = run_cli(["whitney", "--measure", m, "--p", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["cubes"] and data["lacunae"]


def test_decompose_command(files, capsys):
    m, f, _ = files
    code, out, _ = run_cli(
        ["decompose", "--measure", m, "--function", f, "--p", "2"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert "seminorm" in data and "residual_norm" in data
    assert len(data["f2"]) == 2


def test_estimate_constant_function_zero(files, capsys, tmp_path):
    m, _, _ = files
    f = tmp_path / "const.json"
    f.write_text(json.dumps({"values": [3.0, 3.0]}))
    code, out, _ = run_cli(
        ["estimate", "--measure", m, "--function", str(f), "--p", "2"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert all(v == 0.0 for v in data["values"].values())


def test_kcurve_csv(files, capsys, tmp_path):
    m, f, _ = files
    out_path = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        [
            "kcurve", "--measure", m, "--function", f, "--p", "2",
            "--t-grid", "0.3:10:2", "--format", "csv", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,lower,upper,oracle"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.3)
    assert float(first[3]) == pytest.approx(0.3, abs=1e-6)


def test_kcurve_csv_2d_empty_oracle(capsys, tmp_path):
    m = tmp_path / "m2.json"
    f = tmp_path / "f2.json"
    m.write_text(
        json.dumps(
            {
                "n": 2,
                "atoms": [
                    {"x": [0.0, 0.0], "w": 1.0},
                    {"x": [1.0, 0.5], "w": 2.0},
                ],
            }
        )
    )
    f.write_text(json.dumps({"values": [0.0, 1.0]}))
    code, out, _ = run_cli(
        [
            "kcurve", "--measure", str(m), "--function", str(f), "--p", "2.5",
            "--t-grid", "0.5:2:2", "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,lower,upper,oracle"
    assert all(line.endswith(",") for line in lines[1:])


def test_kcurve_failure_names_the_scale(capsys, tmp_path):
    m = tmp_path / "m2.json"
    f = tmp_path / "f2.json"
    m.write_text(json.dumps({"n": 2, "atoms": [{"x": [0.0, 0.0], "w": 1.0}, {"x": [1.0, 1.0], "w": 1.0}]}))
    f.write_text(json.dumps({"values": [0.0, 1.0]}))
    code, out, err = run_cli(
        ["kcurve", "--measure", str(m), "--function", str(f), "--p", "3", "--t-grid", "1e-6:1e-3:2"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == (
        "verification failure: dyadic recursion not settled at depth 60\n"
        "k_curve: t=1e-06, m=2, n=2\n"
    )


def test_validate_family(files, capsys, tmp_path):
    m, f, _ = files
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"cubes": [{"c": [0.5], "r": 0.6}], "prime": [0], "dprime": [0]}))
    code, out, _ = run_cli(
        [
            "validate-family", "--measure", m, "--function", f, "--p", "2",
            "--family", str(fam),
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["admissible"] is True
    assert data["value"] == pytest.approx(0.2076124567, abs=1e-9)


def test_validate_family_rejects(files, capsys, tmp_path):
    m, _, _ = files
    fam = tmp_path / "fam.json"
    fam.write_text(
        json.dumps(
            {
                "cubes": [{"c": [0.0], "r": 1.0}, {"c": [1.0], "r": 1.0}],
                "prime": [0, 1],
                "dprime": [0, 1],
            }
        )
    )
    code, out, _ = run_cli(
        ["validate-family", "--measure", m, "--p", "2", "--family", str(fam)], capsys
    )
    assert code == 2
    assert json.loads(out)["admissible"] is False


@pytest.mark.parametrize(
    "bad", [{"c": [1.0], "r": 0}, {"c": [1.0], "r": -1}, {"c": [float("nan")], "r": 0.5}]
)
def test_family_with_a_bad_cube_is_an_input_error(files, capsys, tmp_path, bad):
    m, f, _ = files
    with pytest.raises(ValueError) as want:
        Cube(bad["c"], bad["r"])
    with pytest.raises(ValueError) as got:
        CubeFamily.from_arrays([[-3.0], bad["c"]], [0.5, bad["r"]])
    assert str(got.value) == str(want.value)
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"cubes": [{"c": [-3.0], "r": 0.5}, bad], "prime": [0, 1], "dprime": [0, 1]}))
    code, out, err = run_cli(
        ["validate-family", "--measure", m, "--function", f, "--p", "2", "--family", str(fam)], capsys
    )
    assert (code, out, err) == (1, "", f"error: {want.value}\n")


def test_empty_family_is_admissible_in_1d_and_2d(files, capsys, tmp_path):
    m1, f1, _ = files
    m2, f2 = tmp_path / "m2.json", tmp_path / "f2.json"
    m2.write_text(json.dumps({"n": 2, "atoms": [{"x": [0.0, 0.0], "w": 1.0}, {"x": [1.0, 2.0], "w": 1.0}]}))
    f2.write_text(json.dumps(STEP))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"cubes": [], "prime": [], "dprime": []}))
    for m, f in ((m1, f1), (m2, str(f2))):
        argv = ["validate-family", "--measure", str(m), "--p", "3", "--family", str(empty)]
        code, out, err = run_cli(argv + ["--function", f], capsys)
        assert (code, json.loads(out), err) == (0, {"admissible": True, "value": 0.0}, "")
        code, out, err = run_cli(argv, capsys)
        assert (code, json.loads(out), err) == (0, {"admissible": True}, "")
    # cubes of the wrong dimension are still an input error
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"cubes": [{"c": [0.5], "r": 0.6}], "prime": [0], "dprime": [0]}))
    code, out, err = run_cli(
        ["validate-family", "--measure", str(m2), "--p", "3", "--family", str(wrong)], capsys
    )
    assert (code, out, err) == (1, "", "error: expected 1 centers of dimension 2, got (1, 1)\n")


def test_input_errors(files, capsys, tmp_path):
    m, f, _ = files
    code, _, err = run_cli(["oracle", "--measure", m, "--function", f, "--p", "0.5"], capsys)
    assert code == 1
    code, _, err = run_cli(
        ["oracle", "--measure", str(tmp_path / "nope.json"), "--function", f, "--p", "2"],
        capsys,
    )
    assert code == 1
    code, _, _ = run_cli(["oracle", "--measure", m, "--function", f], capsys)
    assert code == 1
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"cubes": [{"c": [0.5], "r": 0.6}], "prime": [0], "dprime": [0]}))
    code, out, err = run_cli(
        ["validate-family", "--measure", m, "--p", "2", "--family", str(fam), "--gamma", "0"], capsys
    )
    assert (code, out, err) == (1, "", "error: gamma must be positive\n")


# per subcommand, the flags it does not read, with a value each would parse
UNREAD_FLAGS = {
    "net": ("--gamma", "--t-grid", "--format"),
    "whitney": ("--gamma", "--seed", "--t-grid", "--format"),
    "decompose": ("--gamma", "--seed", "--t-grid", "--format"),
    "estimate": ("--gamma", "--seed", "--t-grid", "--format"),
    "kcurve": ("--gamma",),
    "oracle": ("--tau", "--gamma", "--seed", "--t-grid", "--format"),
    "validate-family": ("--seed", "--t-grid", "--format"),
}
FLAG_VALUES = {"--tau": "9", "--gamma": "2", "--seed": "1", "--t-grid": "0.3:10:2", "--format": "json"}


@pytest.mark.parametrize(
    "command,flag", [(c, flag) for c, flags in UNREAD_FLAGS.items() for flag in flags]
)
def test_commands_refuse_flags_they_do_not_read(files, capsys, command, flag):
    m, f, tmp_path = files
    argv = [command, "--measure", m, "--p", "2"]
    if command not in ("net", "whitney"):
        argv += ["--function", f]
    if command == "validate-family":
        argv += ["--family", str(tmp_path / "fam.json")]
    code, out, err = run_cli(argv + [flag, FLAG_VALUES[flag]], capsys)
    assert (code, out) == (1, "")
    assert f"error: unrecognized arguments: {flag} {FLAG_VALUES[flag]}\n" in err


def test_selftest_deterministic_bytes(tmp_path, cli_env):
    cmd = [sys.executable, "-m", "sumspace", "selftest", "--seed", "7"]
    r1 = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env={**cli_env, "SUMSPACE_LOG": "error"})
    # the second run logs at info, to stderr only
    r2 = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env={**cli_env, "SUMSPACE_LOG": "info"})
    assert r1.returncode == 0, r1.stderr.decode()
    assert r1.stdout == r2.stdout
    assert r1.stderr == b"" and b"lacunae: " in r2.stderr


def test_validate_family_values_the_family_once(files, capsys, tmp_path, monkeypatch):
    """``validate-family --function`` builds one valuation for the check and the value."""
    m, f, _ = files
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"cubes": [{"c": [0.5], "r": 0.6}], "prime": [0], "dprime": [0]}))
    built = []
    init = _Valuation.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Valuation, "__init__", counted)
    argv = ["validate-family", "--measure", m, "--p", "2", "--family", str(fam)]
    for extra in ([], ["--function", f]):
        built.clear()
        code, out, _ = run_cli(argv + extra, capsys)
        assert code == 0 and json.loads(out)["admissible"] is True
        assert len(built) == 1
