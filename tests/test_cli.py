"""Command-line interface: outputs, exit codes, config round trips."""

from __future__ import annotations

import json

import pytest

import lqspec.cli as cli
from lqspec.cli import RunConfig, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_q1(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--family", "strong-r", "--rho", "1/3", "--r", "2/7",
        "--probs", "uniform", "--q", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"q", "tau", "roots", "basic_classes"}
    assert abs(payload["tau"]) <= 1e-9
    assert payload["basic_classes"] == [[1, 3, 4]]


def test_solve_q2_matches_library(capsys):
    code, out, _ = run(capsys, "solve", "--family", "strong-r", "--q", "2")
    assert code == 0
    # frozen from the independent truncated-series bisection oracle
    assert json.loads(out)["tau"] == pytest.approx(0.675679779315090, abs=1e-9)


def test_solve_negative_q_exits_2(capsys):
    code, _, err = run(capsys, "solve", "--family", "strong-r", "--q", "-1")
    assert code == 2
    assert "q must be >= 0" in err


def test_solve_bad_family_exits_2(capsys):
    code, _, _ = run(capsys, "solve", "--family", "strong-r", "--rho", "0.9", "--r", "0.9",
                     "--q", "1")
    assert code == 2


def test_curve_csv(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys,
        "curve", "--family", "strong-r", "--q-min", "0", "--q-max", "2",
        "--steps", "5", "--output", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "q,alpha"
    assert len(lines) == 6
    row = dict(zip(("q", "alpha"), lines[3].split(",")))
    assert float(row["q"]) == 1.0
    assert abs(float(row["alpha"])) <= 1e-9


def test_derivative_reports_both(capsys):
    code, out, _ = run(capsys, "derivative", "--family", "nonstrong-r-basic", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["difference"]) <= 1e-5 * max(1.0, abs(payload["closed_form"]))


def test_legendre_degenerate_warns_exit_zero(capsys):
    code, out, err = run(
        capsys,
        "legendre", "--family", "strong-r", "--q-min", "1", "--q-max", "1.01", "--steps", "2",
    )
    assert code == 0
    assert "degenerate" in err
    assert out.startswith("alpha,f,q_conj")


def test_classify_symmetric_heights(capsys):
    code, out, _ = run(
        capsys,
        "classify", "--family", "nonstrong-r-heights", "--probs", "symmetric", "--q", "1",
    )
    assert code == 0
    payload = json.loads(out)
    tags = payload["tags"]
    for lab in ("1", "2"):
        assert tags[lab] == "polynomial(1)"
    for lab in ("5", "6"):
        assert tags[lab] == "polynomial(2)"
    for lab in ("3", "4", "7", "8", "9", "10", "11", "12"):
        assert tags[lab] == "decays_to_zero"
    heights = sorted(c["height"] for c in payload["classes"] if c.get("basic"))
    assert heights == [2, 3]


def test_estimate_and_compare(tmp_path, capsys):
    out_path = tmp_path / "fit.csv"
    code, out, _ = run(
        capsys,
        "estimate", "--family", "strong-r", "--q", "1", "--samples", "20000",
        "--seed", "3", "--scale-octaves", "4", "9", "--output", str(out_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["tau_emp"]) <= 0.02
    assert out_path.read_text().startswith("h,S_q\n")

    code, out, _ = run(
        capsys,
        "compare", "--family", "strong-r", "--q", "1", "--samples", "20000",
        "--seed", "3", "--scale-octaves", "4", "9",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["abs_difference"] <= 0.05


def test_config_file_and_roundtrip(tmp_path, capsys):
    cfg = {
        "family": "strong-r",
        "rho": "1/3",
        "r": "2/7",
        "probs": {"e1": "1/3", "e2": "1/3", "e3": "1/3", "e4": "1/2", "e5": "1/2"},
        "q": 1.0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "solve", "--config", str(path))
    assert code == 0
    assert abs(json.loads(out)["tau"]) <= 1e-9

    # raw fields survive a parse/serialize cycle unchanged
    rc = RunConfig.from_dict(cfg)
    packed = rc.to_dict()
    for key, val in cfg.items():
        assert packed[key] == val
    rc.family_params()  # parses cleanly


def test_explicit_prob_map_flag(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--family", "strong-r", "--rho", "1/3", "--r", "2/7",
        "--probs", "e1=1/2,e2=1/4,e3=1/4,e4=2/3,e5=1/3", "--q", "1",
    )
    assert code == 0
    assert abs(json.loads(out)["tau"]) <= 1e-9  # normalization holds for any probs

    # probabilities that do not sum to one per vertex are a config error
    code, _, err = run(
        capsys,
        "solve", "--family", "strong-r",
        "--probs", "e1=1/2,e2=1/2,e3=1/4,e4=1/2,e5=1/2", "--q", "1",
    )
    assert code == 2
    assert "sum to" in err

    # a label that is not an edge of the family is an error, not ignored
    code, _, err = run(
        capsys,
        "solve", "--family", "strong-r",
        "--probs", "e1=1/3,e2=1/3,e3=1/3,e4=1/2,e5=1/2,e9=1", "--q", "1",
    )
    assert code == 2
    assert err.startswith("error:") and "e9" in err

    # unparsable numbers exit 2 with a message, not a traceback
    for argv in (
        ("solve", "--family", "strong-r", "--probs", "e1=abc", "--q", "1"),
        ("estimate", "--family", "strong-r", "--q", "1", "--scales", "0.1,abc"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error:") and "abc" in err, argv


@pytest.mark.parametrize("family", cli.FAMILY_IDS)
def test_derivative_writes_nothing_to_stderr(capsys, family):
    code, _, err = run(capsys, "derivative", "--family", family, "--q", "2")
    assert code == 0
    assert err == ""


def test_config_unknown_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"family": "strong-r", "nope": 1}))
    code, _, err = run(capsys, "solve", "--config", str(path), "--q", "1")
    assert code == 2
    assert "unknown config fields" in err


def test_probs_flag_parsing():
    assert cli._parse_probs_arg("uniform") == "uniform"
    parsed = cli._parse_probs_arg("e1=1/3,e2=2/3")
    assert parsed == {"e1": "1/3", "e2": "2/3"}
    with pytest.raises(cli.ConfigError):
        cli._parse_probs_arg("e1:1/3")


def _no_walks(*args, **kwargs):
    raise AssertionError("a walk started")


@pytest.mark.parametrize("command", ["estimate", "compare"])
@pytest.mark.parametrize(
    "scales", ["--scales=0,0.1,0.01", "--scales=-0.1,0.05,0.01", "--scales=0.1,nan,0.01"]
)
def test_nonpositive_or_nan_scales_exit_2(monkeypatch, capsys, command, scales):
    monkeypatch.setattr(cli.empirical, "_walk_chunk", _no_walks)
    code, out, err = run(capsys, command, "--family", "strong-r", "--q", "1",
                         "--samples", "1000", scales)
    assert code == 2
    assert out == "" and err.startswith("error:") and "scales" in err


@pytest.mark.parametrize("depth_eps", ["-1", "0", "nan"])
def test_bad_depth_eps_exits_2(monkeypatch, capsys, depth_eps):
    # -1 never stops a walk; validation must come before the first one
    monkeypatch.setattr(cli.empirical, "_walk_chunk", _no_walks)
    code, out, err = run(capsys, "estimate", "--family", "strong-r", "--q", "1",
                         "--samples", "1000", "--scale-octaves", "4", "9",
                         "--depth-eps", depth_eps)
    assert code == 2
    assert out == "" and err.startswith("error:") and "depth_eps" in err


@pytest.mark.parametrize("command", ["estimate", "compare"])
@pytest.mark.parametrize("samples", ["-5", "0"])
def test_nonpositive_samples_exit_2(monkeypatch, capsys, command, samples):
    monkeypatch.setattr(cli.empirical, "_walk_chunk", _no_walks)
    code, out, err = run(capsys, command, "--family", "strong-r", "--q", "1",
                         "--samples", samples, "--scale-octaves", "4", "9")
    assert code == 2
    assert out == "" and err.startswith("error:") and "samples" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--q", "nan"),
        ("solve", "--q", "inf"),
        ("classify", "--q", "nan"),
        ("classify", "--q", "inf"),
        ("curve", "--q-max", "inf", "--steps", "3"),
        ("solve", "--q", "1", "--tie-tol", "-1"),
        ("classify", "--q", "1", "--tie-tol", "nan"),
        ("derivative", "--q", "2", "--step", "0"),
        ("derivative", "--q", "2", "--step", "nan"),
    ],
)
def test_bad_numeric_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv[:1], "--family", "strong-r", *argv[1:])
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("command", ["estimate", "compare"])
def test_negative_seed_exits_2(monkeypatch, capsys, command):
    monkeypatch.setattr(cli.empirical, "_walk_chunk", _no_walks)
    code, out, err = run(capsys, command, "--family", "strong-r", "--q", "1",
                         "--samples", "1000", "--scale-octaves", "4", "9", "--seed", "-1")
    assert code == 2
    assert out == "" and err.startswith("error:") and "seed" in err


@pytest.mark.parametrize(
    "scales",
    [
        ("--scales", "0.5,0.1,0.01"),  # coarsest scale above the smallest first-level cell
        ("--scales", "0.1,0.09,0.08"),  # less than two octaves
        ("--scale-octaves", "4", "4"),  # a single scale
    ],
)
def test_user_chosen_scales_too_few_or_narrow_exit_2(monkeypatch, capsys, scales):
    monkeypatch.setattr(cli.empirical, "_walk_chunk", _no_walks)
    code, out, err = run(capsys, "estimate", "--family", "strong-r", "--q", "1",
                         "--samples", "1000", *scales)
    assert code == 2
    assert out == "" and err.startswith("error:") and "scale" in err


def _no_lattice(*args, **kwargs):
    raise AssertionError("a lattice verdict was computed")


@pytest.mark.parametrize("family", cli.FAMILY_IDS)
def test_per_q_commands_compute_no_lattice_verdict(monkeypatch, capsys, family):
    monkeypatch.setattr(cli.spectral, "lattice_check", _no_lattice)
    for argv in (
        ("solve", "--q", "2"),
        ("curve", "--steps", "3"),
        ("compare", "--q", "2", "--samples", "20000"),
    ):
        code, _, _ = run(capsys, *argv[:1], "--family", family, *argv[1:])
        assert code == 0, argv


def test_classify_computes_one_lattice_verdict_per_cyclic_class(monkeypatch, capsys):
    calls = []
    check = cli.spectral.lattice_check

    def counted(spec, members):
        calls.append(tuple(members))
        return check(spec, members)

    monkeypatch.setattr(cli.spectral, "lattice_check", counted)
    code, out, _ = run(capsys, "classify", "--family", "nonstrong-r-heights", "--q", "1")
    assert code == 0
    classes = json.loads(out)["classes"]
    cyclic = [c for c in classes if not c["degenerate"]]
    assert len(calls) == len(set(calls)) == len(cyclic)
    assert all("lattice" in c for c in cyclic)
    assert not any("lattice" in c for c in classes if c["degenerate"])
