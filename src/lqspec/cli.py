"""Command-line front end.

Exit codes form a stable scripting contract: 0 on success, 2 on usage or
configuration errors (a flag the command does not read is one; an unread
config-file field is not, so one config can serve several commands), 3 on
numeric failures.  Only ``estimate`` and ``compare`` import numpy (through
``empirical``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import shutil
import sys
from types import SimpleNamespace

from . import closed_forms, solver, spectral
from .errors import (
    ConfigError, InsufficientScales, InvalidGrid, InvalidParams, LqSpecError, NotDifferentiable,
)
from .families import FAMILY_IDS, FamilyParams, canonical_params, default_probs
from .gifs import build_example, parse_number
from .matrix import build_matrix_spec


_FLOAT_FIELDS = ("q", "q_min", "q_max", "tie_tol")
_INT_FIELDS = ("steps", "samples", "seed")
_PARAM_FIELDS = ("rho", "r", "t", "s")
_KINK_TOL = 1e-9  # one-sided slopes of tau further apart than this mean tau' does not exist


def _config_number(name: str, v) -> float:
    """A config number: a JSON number or a numeric string such as "1/3"."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ConfigError(f"config field {name!r} must be a number or a numeric string, got {v!r}")
    try:
        return parse_number(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"config field {name!r}: bad number {v!r}") from exc


class RunConfig(SimpleNamespace):
    """Command inputs: ``family`` and each field of ``DEFAULTS``, which
    holds its default (``scales`` starts as a new empty list).

    The family parameters (``rho``, ``r``, ``t``, ``s``) and ``probs`` are
    kept as given and parsed by ``family_params``; every other number is
    already a float or an int.
    """

    DEFAULTS = {
        "rho": None, "r": None, "t": None, "s": None,  # str | float | None
        "probs": "uniform",  # str | dict
        "q": None, "q_min": 0.0, "q_max": 10.0, "steps": 101, "scales": [],
        "samples": 1_000_000, "seed": 42, "tie_tol": 1e-9, "output": None,
    }

    def __init__(self, family: str, **given):
        unknown = given.keys() - RunConfig.DEFAULTS.keys()
        if unknown:
            raise TypeError(f"RunConfig has no fields {sorted(unknown)}")
        super().__init__(family=family, **{**RunConfig.DEFAULTS, "scales": [], **given})

    @staticmethod
    def from_dict(d) -> "RunConfig":
        """A config from a parsed JSON object.

        Float fields and ``scales`` entries are read with ``parse_number``;
        a field of the wrong JSON type raises ConfigError.
        """
        if not isinstance(d, dict):
            raise ConfigError(f"a config must be a JSON object, got a JSON {type(d).__name__}")
        unknown = set(d) - {"family", *RunConfig.DEFAULTS}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "family" not in d:
            raise ConfigError("config requires a 'family' field")
        out = dict(d)
        for name, v in d.items():
            if v is None and name != "family" and RunConfig.DEFAULTS[name] is None:
                continue
            if name in _FLOAT_FIELDS:
                out[name] = _config_number(name, v)
            elif name in _INT_FIELDS:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ConfigError(f"config field {name!r} must be an integer, got {v!r}")
            elif name == "scales":
                if not isinstance(v, list) or not v:
                    raise ConfigError(f"config field 'scales' must be a nonempty list, got {v!r}")
                out[name] = [_config_number(name, x) for x in v]
            elif name in _PARAM_FIELDS:
                _config_number(name, v)
            elif name == "probs":
                if isinstance(v, dict) and v:
                    for lab, p in v.items():
                        _config_number(f"probs.{lab}", p)
                elif not isinstance(v, str):
                    raise ConfigError(
                        f"config field 'probs' must be a string or a nonempty object, got {v!r}"
                    )
            elif not isinstance(v, str):  # family, output
                raise ConfigError(f"config field {name!r} must be a string, got {v!r}")
        return RunConfig(**out)

    def family_params(self) -> FamilyParams:
        if self.family not in FAMILY_IDS:
            raise ConfigError(f"unknown family {self.family!r}; choose from {FAMILY_IDS}")
        try:
            if isinstance(self.probs, str):
                probs = default_probs(self.family, self.probs)
            else:
                probs = {k: parse_number(v) for k, v in self.probs.items()}
            given = {
                name: parse_number(v)
                for name in ("rho", "r", "t", "s")
                if (v := getattr(self, name)) is not None
            }
            return canonical_params(self.family)._replace(probs=probs, **given)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad numeric parameter: {exc}") from exc


def _parse_probs_arg(text: str):
    if text in ("uniform", "symmetric"):
        return text
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise ConfigError(f"bad --probs entry {part!r}; expected label=value")
        k, v = (s.strip() for s in part.split("=", 1))
        if k in out:
            raise ConfigError(f"--probs repeats the label {k!r}")
        out[k] = v
    return out


def _unique_keys(pairs) -> dict:
    """A JSON object read from a config file; a repeated key raises ConfigError."""
    out = {}
    for k, v in pairs:
        if k in out:
            raise ConfigError(f"config repeats the key {k!r}")
        out[k] = v
    return out


def _parse_scales(args) -> list[float]:
    if args.scales is not None and args.scale_octaves is not None:
        raise ConfigError("give --scales or --scale-octaves, not both")
    if args.scales is not None:
        try:
            return [parse_number(x) for x in args.scales.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad --scales entry: {exc}") from exc
    lo, hi = args.scale_octaves
    if lo > hi:
        lo, hi = hi, lo
    return [2.0 ** (-k) for k in range(int(lo), int(hi) + 1)]


def _config_from_args(args) -> RunConfig:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = RunConfig.from_dict(json.load(fh, object_pairs_hook=_unique_keys))
    else:
        if not args.family:
            raise ConfigError("--family is required (or use --config)")
        cfg = RunConfig(family=args.family)
    if args.probs is not None:
        cfg.probs = _parse_probs_arg(args.probs)
    for name in ("rho", "r", "t", "s", "q", "q_min", "q_max", "steps", "samples", "seed",
                 "tie_tol", "output"):
        v = getattr(args, name)
        if v is not None:
            setattr(cfg, name, v)
    if args.scales is not None or args.scale_octaves is not None:
        cfg.scales = _parse_scales(args)
    return cfg


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_json(obj):
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _require_q(cfg: RunConfig) -> float:
    if cfg.q is None:
        raise ConfigError("this command requires --q")
    if not 0.0 <= cfg.q < math.inf:
        raise ConfigError(f"q must be >= 0 and finite, got {cfg.q}")
    return cfg.q


def _classification_report(spec, result):
    deco = result.decomposition
    classes = []
    for ci, members in enumerate(deco.classes):
        entry = {
            "members": [spec.labels[i] for i in members],
            "degenerate": deco.degenerate[ci],
            "root": result.roots.get(ci),
            "basic": ci in result.basic_classes,
            "final": deco.final_flags[ci],
        }
        if ci in result.heights:
            entry["height"] = result.heights[ci]
        if not deco.degenerate[ci]:
            v = spectral.lattice_check(spec, members)
            entry["lattice"] = {"lattice": v.lattice, "span": v.span, "detail": v.detail}
        classes.append(entry)
    return {
        "tau": result.tau,
        "classes": classes,
        "s_sets": {str(m): list(v) for m, v in sorted(result.s_sets.items())},
        "tags": {str(lab): result.tags[lab].as_text() for lab in sorted(result.tags)},
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_solve(cfg: RunConfig) -> int:
    q = _require_q(cfg)
    spec = build_matrix_spec(cfg.family_params())
    alpha, result = solver.tau(spec, q, class_tie_tol=cfg.tie_tol)
    _print_json(
        {
            "q": q,
            "tau": alpha,
            "roots": [result.roots[ci] for ci in sorted(result.roots)],
            "basic_classes": [
                list(result.labels_of_class(spec, ci)) for ci in result.basic_classes
            ],
        }
    )
    return 0


def cmd_curve(cfg: RunConfig) -> int:
    spec = build_matrix_spec(cfg.family_params())
    curve = solver.tau_curve(spec, cfg.q_min, cfg.q_max, cfg.steps)
    _emit(solver.curve_to_csv(curve), cfg.output)
    return 0


def cmd_derivative(cfg: RunConfig) -> int:
    q = _require_q(cfg)
    params = cfg.family_params()
    _, result = solver.tau(build_matrix_spec(params), q, class_tie_tol=cfg.tie_tol)
    right, left = solver.tau_slopes(result)
    if left - right > _KINK_TOL:
        raise NotDifferentiable(
            f"tau'({q}) does not exist: right slope {right!r}, left slope {left!r}"
        )
    closed = closed_forms.build_closed_form(params).tau_prime(q)
    _print_json({"q": q, "closed_form": closed, "spectral": right, "difference": closed - right})
    return 0


def cmd_legendre(cfg: RunConfig) -> int:
    spec = build_matrix_spec(cfg.family_params())
    curve = solver.tau_curve(spec, cfg.q_min, cfg.q_max, cfg.steps)
    _emit(solver.legendre_to_csv(solver.legendre(curve)), cfg.output)
    return 0


def cmd_classify(cfg: RunConfig) -> int:
    q = 1.0 if cfg.q is None else _require_q(cfg)
    spec = build_matrix_spec(cfg.family_params())
    _, result = solver.tau(spec, q, class_tie_tol=cfg.tie_tol)
    report = _classification_report(spec, result)
    report["q"] = q
    _print_json(report)
    return 0


def _fit(cfg: RunConfig, params: FamilyParams, q: float):
    from . import empirical  # numpy is imported only for sampling

    if cfg.samples < 1:
        raise ConfigError(f"samples must be >= 1, got {cfg.samples}")
    g = build_example(params)
    scales = cfg.scales or empirical.DEFAULT_SCALES
    n_per_vertex = max(1, cfg.samples // g.num_vertices)
    return empirical.estimate_tau(g, q, scales, n_per_vertex, cfg.seed)


def cmd_estimate(cfg: RunConfig) -> int:
    q = _require_q(cfg)
    fit = _fit(cfg, cfg.family_params(), q)
    if cfg.output:
        from .empirical import fit_to_csv

        _emit(fit_to_csv(fit), cfg.output)
    _print_json(
        {
            "q": q,
            "tau_emp": fit.slope,
            "stderr": fit.stderr,
            "scales": list(fit.scales),
            "log_sums": list(fit.log_sums),
        }
    )
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    q = _require_q(cfg)
    params = cfg.family_params()
    spec = build_matrix_spec(params)
    alpha, _ = solver.tau(spec, q)
    fit = _fit(cfg, params, q)
    _print_json(
        {
            "q": q,
            "tau": alpha,
            "tau_emp": fit.slope,
            "abs_difference": abs(alpha - fit.slope),
            "stderr": fit.stderr,
        }
    )
    return 0


# Each command and the flags it reads besides _FAMILY_FLAGS; main rejects others.
_FAMILY_FLAGS = {"family", "config", "rho", "r", "t", "s", "probs"}
_SAMPLING_FLAGS = {"q", "samples", "seed", "scales", "scale_octaves"}
_COMMANDS = {
    "solve": (cmd_solve, {"q", "tie_tol"}),
    "curve": (cmd_curve, {"q_min", "q_max", "steps", "output"}),
    "derivative": (cmd_derivative, {"q", "tie_tol"}),
    "legendre": (cmd_legendre, {"q_min", "q_max", "steps", "output"}),
    "classify": (cmd_classify, {"q", "tie_tol"}),
    "estimate": (cmd_estimate, _SAMPLING_FLAGS | {"output"}),
    "compare": (cmd_compare, _SAMPLING_FLAGS),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first call of main and kept for the process, so its help
    # width is the terminal's at that call.  argparse builds a formatter per
    # add_argument call, and each one asks for the terminal size unless
    # given a width: ask once, with argparse's own margin of two columns.
    width = shutil.get_terminal_size().columns - 2
    ap = argparse.ArgumentParser(
        prog="lqspec", description=__doc__, allow_abbrev=False,
        formatter_class=functools.partial(argparse.HelpFormatter, width=width),
    )
    ap.add_argument("command", choices=list(_COMMANDS))
    ap.add_argument("--family", choices=FAMILY_IDS)
    ap.add_argument("--config", help="JSON config file with the same fields as the flags")
    for flag in ("--rho", "--r", "--t", "--s"):
        ap.add_argument(flag)
    ap.add_argument("--probs", help="'uniform', 'symmetric', or e1=1/3,e2=1/3,...")
    for flag in ("--q", "--q-min", "--q-max", "--tie-tol"):
        ap.add_argument(flag, type=float)
    for flag in ("--steps", "--samples", "--seed"):
        ap.add_argument(flag, type=int)
    ap.add_argument("--scales", help="comma-separated box sides")
    ap.add_argument(
        "--scale-octaves", nargs=2, type=int, metavar=("LO", "HI"),
        help="use sides 2^-LO .. 2^-HI",
    )
    ap.add_argument("--output", "-o")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command, reads = _COMMANDS[args.command]
    try:
        unread = [f"--{name.replace('_', '-')}" for name, v in vars(args).items()
                  if v is not None and name not in reads | _FAMILY_FLAGS | {"command"}]
        if unread:
            raise ConfigError(f"{args.command} does not read {', '.join(unread)}")
        return command(_config_from_args(args))
    except (ConfigError, InvalidParams, InvalidGrid, InsufficientScales, OSError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except LqSpecError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
