"""Command-line interface: outputs, exit codes, config round trips."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

import lqspec.cli as cli
from lqspec import empirical
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
    assert list(payload) == ["q", "closed_form", "spectral", "difference"]
    assert payload["difference"] == payload["closed_form"] - payload["spectral"]
    assert abs(payload["difference"]) <= 1e-9


def test_derivative_at_a_kink_exits_3_naming_both_slopes(capsys):
    # tie tolerance 1 makes both classes attain tau, so tau' has two sides:
    # the least and the greatest class-root slope
    spec = cli.build_matrix_spec(cli.canonical_params("nonstrong-r-basic"))
    _, result = cli.solver.tau(spec, 2.0, class_tie_tol=1.0)
    right, left = sorted(result.roots[ci].slope for ci in result.basic_classes)
    assert left - right > 0.1
    code, out, err = run(capsys, "derivative", "--family", "nonstrong-r-basic", "--q", "2",
                         "--tie-tol", "1")
    assert (code, out) == (3, "")
    assert err.startswith("numeric failure:") and repr(right) in err and repr(left) in err


def test_legendre_short_curve_one_row_per_point(capsys):
    code, out, err = run(
        capsys,
        "legendre", "--family", "strong-r", "--q-min", "1", "--q-max", "1.01", "--steps", "2",
    )
    assert (code, err) == (0, "")
    header, *rows = out.splitlines()
    assert header == "alpha,f,q_conj"
    assert [float(row.split(",")[2]) for row in rows] == [1.01, 1.0]


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
    assert out_path.read_text().startswith("h,log_S_q\n")

    code, out, _ = run(
        capsys,
        "compare", "--family", "strong-r", "--q", "1", "--samples", "20000",
        "--seed", "3", "--scale-octaves", "4", "9",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["abs_difference"] <= 0.05


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "--family", "strong-r", "--q", "200", "--samples", "20000"),
        ("compare", "--family", "strong-r", "--q", "120", "--samples", "20000"),
    ],
)
def test_large_q_estimate_is_finite(capsys, argv):
    # S_q leaves the double range long before q = 200; its log does not
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert math.isfinite(payload["tau_emp"])
    for log_s in payload.get("log_sums", []):
        assert math.isfinite(log_s)


def test_derivative_past_an_overflowing_atom_at_large_q(capsys):
    # an atom term m^q L^(-alpha) of nonstrong-r-heights' closed forms leaves
    # the double range while the root is bracketed at q = 1500; the term
    # counts as +inf, beyond the root, and the search bisects back
    code, out, err = run(capsys, "derivative", "--family", "nonstrong-r-heights", "--q", "1500")
    assert (code, err) == (0, "")
    assert abs(json.loads(out)["difference"]) <= 1e-9


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

    # raw fields survive parsing unchanged
    rc = RunConfig.from_dict(cfg)
    for key, val in cfg.items():
        assert getattr(rc, key) == val
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


_SCALES = ["1/16", "1/32", "1/64", "1/128", "1/256"]


@pytest.mark.parametrize(
    "command, cfg, same_as",
    [
        # numbers given as strings are read like the flags
        ("solve", {"family": "strong-r", "q": "2"}, ("--q", "2")),
        ("estimate", {"family": "strong-r", "q": 1, "samples": 20000, "seed": 3,
                      "scales": _SCALES},
         ("--q", "1", "--samples", "20000", "--seed", "3", "--scales", ",".join(_SCALES))),
        # anything else exits 2
        ("curve", {"family": "strong-r", "steps": "5"}, "'steps' must be an integer"),
        ("curve", {"family": "strong-r", "steps": 5.0}, "'steps' must be an integer"),
        ("solve", {"family": "strong-r", "q": 1, "tie_tol": "x"}, "'tie_tol': bad number"),
        ("solve", [1, 2], "must be a JSON object"),
    ],
    ids=["q-string", "rational-scales", "steps-string", "steps-float", "tie-tol-text", "list"],
)
def test_config_value_types(tmp_path, capsys, command, cfg, same_as):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, command, "--config", str(path))
    if isinstance(same_as, str):
        assert (code, out) == (2, "")
        assert err.startswith("error:") and same_as in err
    else:
        assert (code, err) == (0, "")
        assert out == run(capsys, command, "--family", "strong-r", *same_as)[1]


def test_probs_flag_parsing():
    assert cli._parse_probs_arg("uniform") == "uniform"
    parsed = cli._parse_probs_arg("e1=1/3,e2=2/3")
    assert parsed == {"e1": "1/3", "e2": "2/3"}
    with pytest.raises(cli.ConfigError):
        cli._parse_probs_arg("e1:1/3")


@pytest.mark.parametrize(
    "flags, cfg, message",
    [
        (("--probs", "e1=0.9,e1=0.2,e2=0.5,e3=0.3,e4=0.5,e5=0.5"), None, "repeats the label 'e1'"),
        ((), '{"family": "strong-r", "q": 1, "q": 2}', "repeats the key 'q'"),
        ((), '{"family": "strong-r", "q": 2, "probs": {"e1": "1/3", "e1": "1/2"}}',
         "repeats the key 'e1'"),
    ],
    ids=["probs-flag", "config-field", "config-probs-map"],
)
def test_repeated_keys_exit_2(tmp_path, capsys, flags, cfg, message):
    # the last value must not silently replace an earlier one
    if cfg is None:
        argv = ("--family", "strong-r", "--q", "2", *flags)
    else:
        path = tmp_path / "cfg.json"
        path.write_text(cfg)
        argv = ("--config", str(path))
    code, out, err = run(capsys, "solve", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err


def _no_walks(*args, **kwargs):
    raise AssertionError("a walk started")


@pytest.mark.parametrize(
    "command, flags, cfg, message",
    [
        ("solve", ("--probs", ""), None, "--probs"),
        ("estimate", ("--scales", ""), None, "--scales"),
        ("solve", (), {"probs": {}}, "'probs' must be a string or a nonempty object"),
        ("estimate", (), {"scales": []}, "'scales' must be a nonempty list"),
    ],
    ids=["probs-flag", "scales-flag", "probs-config", "scales-config"],
)
def test_empty_values_exit_2(monkeypatch, tmp_path, capsys, command, flags, cfg, message):
    # an empty map or list is an error, not a request for the defaults
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
    if cfg is None:
        argv = ("--family", "strong-r", "--q", "2", *flags)
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "strong-r", "q": 2, **cfg}))
        argv = ("--config", str(path))
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("command", ["estimate", "compare"])
@pytest.mark.parametrize(
    "scales", ["--scales=0,0.1,0.01", "--scales=-0.1,0.05,0.01", "--scales=0.1,nan,0.01"]
)
def test_nonpositive_or_nan_scales_exit_2(monkeypatch, capsys, command, scales):
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
    code, out, err = run(capsys, command, "--family", "strong-r", "--q", "1",
                         "--samples", "1000", scales)
    assert code == 2
    assert out == "" and err.startswith("error:") and "scales" in err


@pytest.mark.parametrize(
    "family, scales",
    [("strong-r2", "--scales=1e-10,1e-11,1e-12"), ("strong-r", "--scales=1e-300,1e-301,1e-302")],
)
def test_box_side_too_fine_for_integer_keys_exits_2(capsys, family, scales):
    # the packed keys of the first would overflow int64; the second's keys
    # (about 1e299) would not fit one, and a cast would put every point in
    # one box
    code, out, err = run(capsys, "estimate", "--family", family, "--q", "2",
                         "--samples", "2000", scales)
    assert code == 2
    assert out == "" and err.startswith("error: box side") and "too fine" in err


@pytest.mark.parametrize("depth_eps", ["-1", "0", "nan"])
def test_bad_depth_eps_exits_2(monkeypatch, tmp_path, capsys, depth_eps):
    # the box sides fix where walks stop: --depth-eps and the config field
    # depth_eps are gone, and any value exits 2 before a walk starts
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
    argv = ["estimate", "--family", "strong-r", "--q", "1", "--samples", "1000",
            "--scale-octaves", "4", "9"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--depth-eps", depth_eps])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --depth-eps {depth_eps}" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": "strong-r", "depth_eps": float(depth_eps)}))
    code, out, err = run(capsys, "estimate", "--config", str(path), *argv[3:])
    assert (code, out) == (2, "")
    assert err == "error: unknown config fields: ['depth_eps']\n"


@pytest.mark.parametrize("command", ["estimate", "compare"])
@pytest.mark.parametrize("samples", ["-5", "0"])
def test_nonpositive_samples_exit_2(monkeypatch, capsys, command, samples):
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
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
        ("derivative", "--q", "nan"),
        ("derivative", "--q", "2", "--tie-tol", "inf"),
    ],
)
def test_bad_numeric_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv[:1], "--family", "strong-r", *argv[1:])
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("command", ["estimate", "compare"])
def test_negative_seed_exits_2(monkeypatch, capsys, command):
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
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
        ("--scales", "0.0625,0.0625,0.015625"),  # two distinct sides
    ],
)
def test_user_chosen_scales_too_few_or_narrow_exit_2(monkeypatch, capsys, scales):
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
    code, out, err = run(capsys, "estimate", "--family", "strong-r", "--q", "1",
                         "--samples", "1000", *scales)
    assert code == 2
    assert out == "" and err.startswith("error:") and "scale" in err


@pytest.mark.parametrize("command", ["estimate", "compare"])
def test_scales_and_scale_octaves_together_exit_2(monkeypatch, capsys, command):
    # neither flag may silently win over the other
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
    code, out, err = run(capsys, command, "--family", "strong-r", "--q", "2", "--samples", "2000",
                         "--scales", "0.1,0.05,0.025", "--scale-octaves", "4", "6")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--scales" in err and "--scale-octaves" in err


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


# -- the flat parser -------------------------------------------------------------

def _subcommand_parser():
    """The former parser, one subparser per command with the same flags: the
    oracle for the flat parser's Namespace."""
    import argparse

    ap = argparse.ArgumentParser(prog="lqspec")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in cli._COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--family", choices=cli.FAMILY_IDS)
        sp.add_argument("--config")
        for flag in ("--rho", "--r", "--t", "--s", "--probs"):
            sp.add_argument(flag)
        for flag in ("--q", "--q-min", "--q-max", "--tie-tol"):
            sp.add_argument(flag, type=float)
        for flag in ("--steps", "--samples", "--seed"):
            sp.add_argument(flag, type=int)
        sp.add_argument("--scales")
        sp.add_argument("--scale-octaves", nargs=2, type=int)
        sp.add_argument("--output", "-o")
    return ap


def _golden_argvs():
    from test_golden import CASES

    for family in cli.FAMILY_IDS:
        for flags in CASES.values():
            command, *rest = flags.split()
            yield [command, "--family", family, *rest]


_MORE_ARGVS = [
    ["solve", "--family", "strong-r", "--rho", "1/3", "--r", "2/7", "--probs", "uniform",
     "--q", "1"],
    ["solve", "--family", "nonstrong-r2", "--t", "0.5", "--s", "1/4", "--q", "-1"],
    ["curve", "--family", "strong-r", "--q-min", "0.0", "--q-max", "10.0", "--steps", "101",
     "-o", "curve.csv"],
    ["estimate", "--config", "cfg.json", "--scale-octaves", "4", "11", "--seed", "7"],
    ["compare", "--family", "strong-r", "--scales", "1/16,1/32,1/64", "--seed", "3"],
    ["classify", "--family", "nonstrong-r-heights", "--probs", "e1=0.2,e2=0.3,e3=0.5",
     "--tie-tol", "1e-8"],
    ["derivative", "--family", "strong-r", "--q", "2", "--output", "d.json"],
]


@pytest.mark.parametrize("argv", [*_golden_argvs(), *_MORE_ARGVS], ids=" ".join)
def test_flat_parser_matches_subcommand_parser(argv):
    assert cli._build_parser().parse_args(argv) == _subcommand_parser().parse_args(argv)


def test_one_parser_per_process(monkeypatch, capsys, tmp_path):
    # main builds its parser on its first call and reuses it after a usage
    # error and after --help
    import argparse

    from test_golden import GOLDEN, _assert_close, _parse

    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    monkeypatch.chdir(tmp_path)
    cli._build_parser.cache_clear()
    solve = ["solve", "--family", "strong-r", "--q", "2"]
    assert run(capsys, *solve)[0] == 0
    code, _, err = run(capsys, *solve, "-o", "x.json")
    assert code == 2 and "solve does not read --output" in err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "usage: lqspec" in capsys.readouterr().out
    code, out, _ = run(capsys, *solve)
    assert (code, len(built)) == (0, 1)
    # as test_golden compares: floats within its 1e-12
    _assert_close(_parse(out), _parse((GOLDEN / "strong-r.solve_q2.out").read_text()))


def test_flags_may_come_before_the_command(capsys):
    code, after, _ = run(capsys, "solve", "--family", "strong-r", "--q", "2")
    assert code == 0
    code, before, _ = run(capsys, "--family", "strong-r", "--q", "2", "solve")
    assert code == 0
    assert before == after


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: lqspec" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["--family", "strong-r", "--q", "2"], "the following arguments are required: command"),
        (["frobnicate", "--family", "strong-r"], "invalid choice: 'frobnicate'"),
        (["solve", "curve", "--family", "strong-r"], "unrecognized arguments: curve"),
    ],
)
def test_missing_or_unknown_command_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# -- flags a command does not read -------------------------------------------------

@pytest.mark.parametrize(
    "argv, unread",
    [
        (["solve", "--q", "2", "-o", "{tmp}/x.json"], "--output"),
        (["curve", "--q", "5", "--samples", "7", "--steps", "3"], "--q, --samples"),
        (["compare", "--q", "2", "--samples", "1000", "--tie-tol", "1e-6"], "--tie-tol"),
        (["classify", "--scale-octaves", "4", "9"], "--scale-octaves"),
        (["legendre", "--seed", "1"], "--seed"),
        (["derivative", "--q", "2", "--q-max", "3"], "--q-max"),
    ],
)
def test_flag_the_command_does_not_read_exits_2(monkeypatch, tmp_path, capsys, argv, unread):
    monkeypatch.setattr(cli, "_config_from_args", _no_walks)  # rejected before any work
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run(capsys, argv[0], "--family", "strong-r", *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: {argv[0]} does not read {unread}\n"
    assert not list(tmp_path.iterdir())


def test_config_fields_a_command_does_not_read_are_allowed(tmp_path, capsys):
    # one config file serves several commands
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": "strong-r", "q": 2, "samples": 20000, "seed": 1,
                                "steps": 3, "output": str(tmp_path / "curve.csv")}))
    for command in ("solve", "curve"):
        code, _, err = run(capsys, command, "--config", str(path))
        assert (code, err) == (0, ""), command
    assert (tmp_path / "curve.csv").read_text().startswith("q,alpha\n")


@pytest.mark.parametrize(
    "argv", [["curve", "--sam", "7"], ["derivative", "--q", "2", "--step", "0"]]
)
def test_flag_abbreviations_are_not_accepted(capsys, argv):
    # with --step gone, an old --step would otherwise parse as --steps
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--family", "strong-r", *argv[1:]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_command_reads_exactly_its_flags(monkeypatch, capsys, command):
    # the RunConfig fields a command reads are the fields of its flags
    read = set()

    class Recording(RunConfig):
        def __getattribute__(self, name):
            if name == "family" or name in RunConfig.DEFAULTS:
                read.add(name)
            return super().__getattribute__(name)

    cfg = Recording(family="strong-r", q=2.0, steps=3, samples=20000, seed=1)
    monkeypatch.setattr(cli, "_config_from_args", lambda args: cfg)
    code, _, err = run(capsys, command, "--family", "strong-r")
    assert (code, err) == (0, "")
    flags = cli._COMMANDS[command][1] | cli._FAMILY_FLAGS
    fields = {"scales" if f == "scale_octaves" else f for f in flags} - {"config"}
    assert read == fields


def test_only_sampling_commands_import_numpy():
    # solve, curve, classify, derivative and legendre run on plain floats;
    # estimate and compare load numpy and the thread pool with the sampler.
    code = """
import sys
from lqspec import cli
for argv in (
    ["solve", "--family", "strong-r", "--q", "2"],
    ["curve", "--family", "strong-r2", "--steps", "5"],
    ["classify", "--family", "nonstrong-r-heights"],
    ["derivative", "--family", "nonstrong-r-basic", "--q", "2"],
    ["legendre", "--family", "nonstrong-r2", "--steps", "5"],
):
    assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
    assert "concurrent.futures" not in sys.modules, argv
assert cli.main(["estimate", "--family", "strong-r", "--q", "2", "--samples", "2000"]) == 0
assert "numpy" in sys.modules
assert "concurrent.futures" in sys.modules
"""
    _assert_runs(code)


def test_import_loads_no_dataclass_machinery():
    # the records are named tuples: importing the CLI costs no dataclasses
    # or inspect import (typing is left out: site may import it first)
    _assert_runs("""
import sys
import lqspec.cli
assert "dataclasses" not in sys.modules and "inspect" not in sys.modules
""")


def _assert_runs(code):
    """Run ``code`` in a fresh interpreter on this checkout's lqspec; it must exit 0."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
