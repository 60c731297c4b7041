"""JSON-configured benchmark harness.

Subcommands::

    uapd solve   config.json [--out DIR]
    uapd compare config.json [--out DIR]
    uapd flow    config.json [--out DIR]
    uapd bounds  config.json [--out DIR]

A config names an instance (inline recipe dict, inline serialized
instance, or a path to a JSON file holding either), an optional
``solver`` section with SolverConfig fields, a ``variant`` ("uapd" or
"fixed_tolerance", which needs a top-level ``eps``), and an ``output``
file prefix (a non-empty string with no path separator or NUL).
``flow`` runs need a ``flow`` section with ``t_end`` and ``dt`` that
give a grid :func:`uapd.flow.integrate` accepts;
``bounds`` accepts a ``bounds`` section (nu, M_nu, fit_window).  Any
other top-level key exits 2.

``main`` checks the top-level keys, resolves the output prefix, the
instance, the SolverConfig (against the instance) and the ``--out``
directory once, and hands each ``cmd_*`` the config, the instance, the
resolved SolverConfig and a map from file suffix to path.
Every CSV is written by the csv module in its default dialect (CRLF
line ends, UTF-8, a header row, None as an empty cell, floats by repr)
and every summary by one JSON writer.  With a fixed seed the CSVs are
reproducible byte for byte except for the wall-clock column, whose
last value each summary reports as ``wall_time_s``.  A bad config, an
unreadable config or instance file and an unusable ``--out`` exit 2
with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from itertools import zip_longest

from .analysis import (decay_spec_for_solver, envelope, fit_rate,
                       rate_bound_preconditions)
from .flow import FlowGridError, integrate, trajectory_to_csv
from .problems import load_instance
from .solver import SolverConfig, SolverError, solve, trace_to_csv

__all__ = ["main", "ConfigError", "cmd_solve", "cmd_compare", "cmd_flow", "cmd_bounds"]


class ConfigError(Exception):
    """Malformed or incomplete run configuration (exit code 2)."""


# the top-level config keys some command reads
_CONFIG_KEYS = {"instance", "solver", "variant", "eps", "output", "flow", "bounds"}


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _write_json(path, summary):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _require(cfg, field):
    if field not in cfg:
        raise ConfigError(f"config is missing the field '{field}'")
    return cfg[field]


def _number(value, name, integer=False):
    """``value`` if it is a finite number (an integer if asked), else ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or not math.isfinite(value)):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"'{name}' must be {kind}, got {value!r}")
    return value


def _resolve_instance(spec, base_dir):
    if isinstance(spec, str):
        spec = _load_json(os.path.join(base_dir, spec))
    if not isinstance(spec, dict):
        raise ConfigError("'instance' must be a dict or a path string")
    try:
        return load_instance(spec)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad instance description: {exc}") from exc


def _solver_config(cfg, instance):
    """The ``solver`` section as a SolverConfig resolved against ``instance``."""
    section = cfg.get("solver", {})
    if not isinstance(section, dict):
        raise ConfigError("'solver' must be a dict of SolverConfig fields")
    known = set(SolverConfig.__dataclass_fields__)
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"unknown solver fields {sorted(unknown)}")
    for name, value in section.items():
        default = SolverConfig.__dataclass_fields__[name].default
        if not (value is None and default is None):
            _number(value, f"solver.{name}", integer=isinstance(default, int))
    try:
        return SolverConfig(**section).resolved(instance)
    except ValueError as exc:
        raise ConfigError(f"bad solver section: {exc}") from exc


def _fixed_eps(eps):
    """``eps`` of the fixed_tolerance variant as a positive float, else ConfigError."""
    if eps is None:
        raise ConfigError("config is missing the field 'eps' "
                          "(required by the fixed_tolerance variant)")
    eps = float(_number(eps, "eps"))
    if eps <= 0:
        raise ConfigError("eps must be positive")
    return eps


def _variant(cfg):
    """``solve``'s ``fixed_eps`` for the configured variant: None for "uapd"."""
    name, eps = cfg.get("variant", "uapd"), cfg.get("eps")
    if eps is not None:
        _number(eps, "eps")
    if name not in ("uapd", "fixed_tolerance"):
        raise ConfigError(f"unknown variant {name!r} (expected 'uapd' or 'fixed_tolerance')")
    return None if name == "uapd" else _fixed_eps(eps)


def _summary(cfg, instance, state, trace, eps):
    last = trace[-1]
    out = {
        "variant": cfg.get("variant", "uapd"),
        "iterations": last.k,
        "objective": last.objective,
        "feasibility": last.feasibility,
        "f_residual": last.f_residual,
        "final_M": state.M,
        "final_beta": state.beta,
        "final_gamma": state.gamma,
        "line_search_total": state.line_search_total,
        "wall_time_s": last.wall_time_s,
        "instance_kind": instance.metadata.get("kind"),
        "seed": instance.metadata.get("seed"),
    }
    if eps is not None:  # only the fixed_tolerance variant uses eps
        out["eps"] = eps
    return out


def cmd_solve(cfg, instance, config, out):
    eps = _variant(cfg)
    state, trace = solve(instance, config, fixed_eps=eps)
    trace_to_csv(trace, out("trace.csv"))
    _write_json(out("summary.json"), _summary(cfg, instance, state, trace, eps))
    return 0


def cmd_compare(cfg, instance, config, out):
    eps = _fixed_eps(cfg.get("eps", 1e-3))
    state_u, trace_u = solve(instance, config)
    state_b, trace_b = solve(instance, config, fixed_eps=eps)
    cols_u, cols_b = trace_u.columns, trace_b.columns
    # rows align on k, blank where one run stopped earlier; f is the
    # objective residual when the optimum is known, the raw objective otherwise
    _write_csv(out("compare.csv"),
               ("k", "f_UAPD", "f_base", "M_UAPD", "M_base", "ik_UAPD", "ik_base"),
               zip_longest(max(cols_u["k"], cols_b["k"], key=len),
                           cols_u.get("f_residual", cols_u["objective"]),
                           cols_b.get("f_residual", cols_b["objective"]),
                           cols_u["M_k"], cols_b["M_k"], cols_u["i_k"], cols_b["i_k"]))
    _write_json(out("compare_summary.json"), {
        "eps": eps,
        "uapd": {"iterations": trace_u[-1].k, "wall_time_s": trace_u[-1].wall_time_s,
                 "line_search_total": state_u.line_search_total},
        "fixed_tolerance": {"iterations": trace_b[-1].k, "wall_time_s": trace_b[-1].wall_time_s,
                            "line_search_total": state_b.line_search_total},
    })
    return 0


def cmd_flow(cfg, instance, config, out):
    section = _require(cfg, "flow")
    if not isinstance(section, dict):
        raise ConfigError("'flow' must be a dict with 't_end' and 'dt'")
    for field in ("t_end", "dt"):
        if field not in section:
            raise ConfigError(f"config is missing the field 'flow.{field}'")
        _number(section[field], f"flow.{field}")
    try:
        trajectory = integrate(instance, t_end=float(section["t_end"]), dt=float(section["dt"]),
                               gamma0=config.gamma0)
    except FlowGridError as exc:
        raise ConfigError(f"bad flow section: {exc}") from exc
    trajectory_to_csv(trajectory, instance, out("flow.csv"))
    return 0


def cmd_bounds(cfg, instance, config, out):
    section = cfg.get("bounds", {})
    if not isinstance(section, dict):
        raise ConfigError("'bounds' must be a dict")
    for field in ("nu", "M_nu"):
        if field in section:
            _number(section[field], f"bounds.{field}")
    # nu and M_nu default to the instance's Hoelder certificate, nu = 0 and
    # no M_nu without one; the certificate's constant holds at its nu only
    nu, m_nu = instance.holder or (0.0, None)
    if section.get("nu", nu) != nu:
        nu, m_nu = float(section["nu"]), None
    m_nu = section.get("M_nu", m_nu)
    if not 0.0 <= nu <= 1.0:
        raise ConfigError(f"'bounds.nu' must lie in [0, 1], got {nu!r}")
    if m_nu is None:
        raise ConfigError(f"config is missing the field 'bounds.M_nu' (the instance "
                          f"certifies no Hoelder constant at nu = {nu!r})")
    if not m_nu > 0:
        raise ConfigError(f"'bounds.M_nu' must be positive, got {m_nu!r}")
    m_nu = float(m_nu)
    window = section.get("fit_window")
    if window is not None:
        if not (isinstance(window, list) and len(window) == 2):
            raise ConfigError(f"'bounds.fit_window' must be [k_lo, k_hi], got {window!r}")
        window = [_number(k, "bounds.fit_window", integer=True) for k in window]
        if not 1 <= window[0] <= window[1]:
            raise ConfigError(f"'bounds.fit_window' must have 1 <= k_lo <= k_hi, got {window!r}")

    _, trace = solve(instance, config)
    gamma0, mu = config.gamma0, instance.mu
    gamma_min = min(gamma0, mu) if mu > 0 else gamma0
    spec = decay_spec_for_solver(nu, mu, gamma0, gamma_min, instance.a_norm, m_nu)
    ks, betas = trace.columns["k"], trace.columns["beta_k"]
    k_lo, k_hi = window or (10, min(100, ks[-1]))
    raw = [envelope(spec, k) for k in ks]
    fits = [beta / env for k, beta, env in zip(ks, betas, raw) if k_lo <= k <= k_hi]
    if not fits:
        if window is None:
            raise ConfigError(f"the default fit_window [10, 100] needs at least 10 iterations, "
                              f"the run made {ks[-1]}")
        raise ConfigError(f"fit_window [{k_lo}, {k_hi}] selects no iterations")
    scale = max(fits)
    _write_csv(out("bounds.csv"), ("k", "beta", "envelope"),
               zip(ks, betas, [scale * env for env in raw]))

    summary = {
        "nu": nu,
        "M_nu": m_nu,
        "gamma0": gamma0,
        "gamma_min": gamma_min,
        "fit_window": [k_lo, k_hi],
        "fit_constant": scale,
        "precondition_issues": rate_bound_preconditions(
            nu, mu, gamma0, instance.a_norm, m_nu, config.M0),
    }
    try:
        summary["beta_slope"] = fit_rate(ks, betas, k_lo, max(k_hi, k_lo + 1))
    except ValueError:
        pass
    _write_json(out("bounds_summary.json"), summary)
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "compare": cmd_compare,
    "flow": cmd_flow,
    "bounds": cmd_bounds,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="uapd",
        description="Accelerated primal-dual solver benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("solve", "run one variant, write trace + summary"),
                      ("compare", "run both variants, write a merged CSV"),
                      ("flow", "integrate the continuous-time system"),
                      ("bounds", "overlay observed beta decay with its envelope")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("config", help="path to a JSON run configuration")
        p.add_argument("--out", default=".", help="output directory (default: .)")
    args = parser.parse_args(argv)
    try:
        cfg = _load_json(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(cfg) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config fields {sorted(unknown)}")
        prefix = cfg.get("output", "run")
        if not (isinstance(prefix, str) and prefix and os.path.basename(prefix) == prefix
                and "\0" not in prefix):
            raise ConfigError(f"'output' must be a non-empty file name prefix with no path "
                              f"separator or NUL, got {prefix!r}")
        base_dir = os.path.dirname(os.path.abspath(args.config))
        instance = _resolve_instance(_require(cfg, "instance"), base_dir)
        config = _solver_config(cfg, instance)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out} is not a usable directory: "
                              f"{exc.strerror}") from exc
        return _COMMANDS[args.command](
            cfg, instance, config, lambda suffix: os.path.join(args.out, f"{prefix}_{suffix}"))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
