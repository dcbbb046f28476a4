"""Command-line front end.

Exit codes form a stable scripting contract: 0 on success, 2 on usage or
configuration errors, 3 on numeric failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace

from . import closed_forms, empirical, solver, spectral
from .errors import ConfigError, InsufficientScales, InvalidGrid, InvalidParams, LqSpecError
from .families import FAMILY_IDS, FamilyParams, canonical_params, default_probs
from .gifs import build_example, parse_number
from .matrix import build_matrix_spec


@dataclass
class RunConfig:
    """Raw, unparsed command inputs; kept verbatim for round-tripping."""

    family: str
    rho: str | float | None = None
    r: str | float | None = None
    t: str | float | None = None
    s: str | float | None = None
    probs: str | dict = "uniform"
    q: float | None = None
    q_min: float = 0.0
    q_max: float = 10.0
    steps: int = 101
    scales: list = field(default_factory=list)
    samples: int = 1_000_000
    seed: int = 42
    depth_eps: float = 1e-9
    step: float = 1e-4
    tie_tol: float = 1e-9
    output: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        known = {f for f in RunConfig.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "family" not in d:
            raise ConfigError("config requires a 'family' field")
        return RunConfig(**d)

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
            return replace(canonical_params(self.family), probs=probs, **given)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad numeric parameter: {exc}") from exc


def _parse_probs_arg(text: str):
    if text in ("uniform", "symmetric"):
        return text
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise ConfigError(f"bad --probs entry {part!r}; expected label=value")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _parse_scales(args) -> list[float]:
    if args.scales:
        try:
            return [parse_number(x) for x in args.scales.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad --scales entry: {exc}") from exc
    lo, hi = args.scale_octaves
    if lo > hi:
        lo, hi = hi, lo
    return [2.0 ** (-k) for k in range(int(lo), int(hi) + 1)]


def _config_from_args(args) -> RunConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = RunConfig.from_dict(json.load(fh))
    else:
        if not args.family:
            raise ConfigError("--family is required (or use --config)")
        cfg = RunConfig(family=args.family)
    if getattr(args, "probs", None):
        cfg.probs = _parse_probs_arg(args.probs)
    for name in ("rho", "r", "t", "s", "q", "q_min", "q_max", "steps", "samples", "seed",
                 "depth_eps", "step", "tie_tol", "output"):
        v = getattr(args, name, None)
        if v is not None:
            setattr(cfg, name, v)
    if getattr(args, "scales", None) or getattr(args, "scale_octaves", None):
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
    spec = build_matrix_spec(params)
    fam = closed_forms.build_closed_form(params)
    closed = fam.tau_prime(q)
    fd = solver.tau_prime_fd(spec, q, step=cfg.step)
    _print_json({"q": q, "closed_form": closed, "finite_difference": fd,
                 "difference": closed - fd})
    return 0


def cmd_legendre(cfg: RunConfig) -> int:
    spec = build_matrix_spec(cfg.family_params())
    curve = solver.tau_curve(spec, cfg.q_min, cfg.q_max, cfg.steps)
    leg = solver.legendre(curve)
    if leg.degenerate:
        sys.stderr.write("warning: degenerate curve; Legendre data covers a single slope\n")
    _emit(solver.legendre_to_csv(leg), cfg.output)
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
    if cfg.samples < 1:
        raise ConfigError(f"samples must be >= 1, got {cfg.samples}")
    g = build_example(params)
    scales = cfg.scales or [2.0 ** (-k) for k in range(4, 12)]
    n_per_vertex = max(1, cfg.samples // g.num_vertices)
    return empirical.estimate_tau(g, q, scales, n_per_vertex, cfg.seed, depth_eps=cfg.depth_eps)


def cmd_estimate(cfg: RunConfig) -> int:
    q = _require_q(cfg)
    fit = _fit(cfg, cfg.family_params(), q)
    if cfg.output:
        _emit(empirical.fit_to_csv(fit), cfg.output)
    _print_json(
        {
            "q": q,
            "tau_emp": fit.slope,
            "stderr": fit.stderr,
            "scales": list(fit.scales),
            "sums": list(fit.sums),
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


_COMMANDS = {
    "solve": cmd_solve,
    "curve": cmd_curve,
    "derivative": cmd_derivative,
    "legendre": cmd_legendre,
    "classify": cmd_classify,
    "estimate": cmd_estimate,
    "compare": cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lqspec", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--family", choices=FAMILY_IDS)
        sp.add_argument("--config", help="JSON config file with the same fields as the flags")
        for flag in ("--rho", "--r", "--t", "--s"):
            sp.add_argument(flag)
        sp.add_argument("--probs", help="'uniform', 'symmetric', or e1=1/3,e2=1/3,...")
        for flag in ("--q", "--q-min", "--q-max", "--depth-eps", "--tie-tol"):
            sp.add_argument(flag, type=float)
        for flag in ("--steps", "--samples", "--seed"):
            sp.add_argument(flag, type=int)
        sp.add_argument("--scales", help="comma-separated box sides")
        sp.add_argument(
            "--scale-octaves", nargs=2, type=int, metavar=("LO", "HI"),
            help="use sides 2^-LO .. 2^-HI",
        )
        sp.add_argument("--step", type=float, help="finite-difference step")
        sp.add_argument("--output", "-o")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, InvalidParams, InvalidGrid, InsufficientScales, OSError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except LqSpecError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
