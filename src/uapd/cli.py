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
give a grid, and an instance, that :func:`uapd.flow.integrate` accepts;
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
last value each summary reports as ``wall_time_s``.  Bad input (a bad
config, an unreadable file, an unusable ``--out``) raises ValueError
and exits 2; a failed run raises a RuntimeError (SolverError,
FlowDomainError) and exits 1; either prints one ``error:`` line.
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
from .flow import integrate, trajectory_to_csv
from .geometry import check_number
from .problems import load_instance
from .solver import SolverConfig, solve, trace_to_csv

__all__ = ["main", "cmd_solve", "cmd_compare", "cmd_flow", "cmd_bounds"]

# the top-level config keys some command reads
_CONFIG_KEYS = {"instance", "solver", "variant", "eps", "output", "flow", "bounds"}


def _load_json(path):
    try:  # an OSError is not a ValueError
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"file not found: {path}") from None
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _write_json(path, summary):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _require(section, field, where=""):
    """``section[field]``; ValueError naming ``where + field`` when it is absent."""
    if field not in section:
        raise ValueError(f"config is missing the field '{where}{field}'")
    return section[field]


def _resolve_instance(spec, base_dir):
    if isinstance(spec, str):
        spec = _load_json(os.path.join(base_dir, spec))
    if not isinstance(spec, dict):
        raise ValueError("'instance' must be a dict or a path string")
    try:
        return load_instance(spec)
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"bad instance description: {exc}") from exc


def _solver_config(cfg, instance):
    """The ``solver`` section as a SolverConfig resolved against ``instance``."""
    section = cfg.get("solver", {})
    if not isinstance(section, dict):
        raise ValueError("'solver' must be a dict of SolverConfig fields")
    unknown = set(section) - set(SolverConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown solver fields {sorted(unknown)}")
    return SolverConfig(**section).resolved(instance)


def _variant(cfg):
    """``fixed_eps`` for the configured variant: None for "uapd", which still checks an eps."""
    name, eps = cfg.get("variant", "uapd"), cfg.get("eps")
    if name not in ("uapd", "fixed_tolerance"):
        raise ValueError(f"unknown variant {name!r} (expected 'uapd' or 'fixed_tolerance')")
    if eps is None and name == "fixed_tolerance":
        raise ValueError("config is missing the field 'eps' "
                         "(required by the fixed_tolerance variant)")
    eps = None if eps is None else float(check_number(eps, "'eps'", positive=True))
    return None if name == "uapd" else eps


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
    eps = float(check_number(cfg.get("eps", 1e-3), "'eps'", positive=True))
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
        raise ValueError("'flow' must be a dict with 't_end' and 'dt'")
    trajectory = integrate(instance, t_end=_require(section, "t_end", "flow."),
                           dt=_require(section, "dt", "flow."), gamma0=config.gamma0)
    trajectory_to_csv(trajectory, instance, out("flow.csv"))
    return 0


def cmd_bounds(cfg, instance, config, out):
    section = cfg.get("bounds", {})
    if not isinstance(section, dict):
        raise ValueError("'bounds' must be a dict")
    # nu and M_nu default to the instance's Hoelder certificate, nu = 0 and
    # no M_nu without one; the certificate's constant holds at its nu only
    nu, m_nu = instance.holder or (0.0, None)
    if check_number(section.get("nu", nu), "'bounds.nu'", 1) != nu:
        nu, m_nu = float(section["nu"]), None
    m_nu = section.get("M_nu", m_nu)
    if m_nu is None:
        raise ValueError(f"config is missing the field 'bounds.M_nu' (the instance "
                         f"certifies no Hoelder constant at nu = {nu!r})")
    m_nu = float(check_number(m_nu, "'bounds.M_nu'", positive=True))
    window = section.get("fit_window")
    if window is not None:
        if not (isinstance(window, list) and len(window) == 2):
            raise ValueError(f"'bounds.fit_window' must be [k_lo, k_hi], got {window!r}")
        window = [check_number(k, "'bounds.fit_window'", positive=True, integer=True)
                  for k in window]
        if not 1 <= window[0] <= window[1]:
            raise ValueError(f"'bounds.fit_window' must have 1 <= k_lo <= k_hi, got {window!r}")

    gamma0, mu = config.gamma0, instance.mu
    gamma_min = min(gamma0, mu) if mu > 0 else gamma0
    spec = decay_spec_for_solver(nu, mu, gamma0, gamma_min, instance.a_norm, m_nu)
    _, trace = solve(instance, config)
    ks, betas = trace.columns["k"], trace.columns["beta_k"]
    k_lo, k_hi = window or (10, min(100, ks[-1]))
    raw = [envelope(spec, k) for k in ks]
    fitted = [(beta, env) for k, beta, env in zip(ks, betas, raw) if k_lo <= k <= k_hi]
    if not fitted:
        if window is None:
            raise ValueError(f"the default fit_window [10, 100] needs at least 10 iterations, "
                             f"the run made {ks[-1]}")
        raise ValueError(f"fit_window [{k_lo}, {k_hi}] selects no iterations")
    if not all(0.0 < env < math.inf for _, env in fitted):  # it underflows at extreme M_nu
        raise ValueError(f"'bounds.M_nu' = {m_nu!r} gives an envelope that is not positive "
                         f"and finite in the fit window [{k_lo}, {k_hi}]")
    scale = max(beta / env for beta, env in fitted)
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
            raise ValueError("config root must be a JSON object")
        unknown = set(cfg) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config fields {sorted(unknown)}")
        prefix = cfg.get("output", "run")
        if not (isinstance(prefix, str) and prefix and os.path.basename(prefix) == prefix
                and "\0" not in prefix):
            raise ValueError(f"'output' must be a non-empty file name prefix with no path "
                             f"separator or NUL, got {prefix!r}")
        base_dir = os.path.dirname(os.path.abspath(args.config))
        instance = _resolve_instance(_require(cfg, "instance"), base_dir)
        config = _solver_config(cfg, instance)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"--out {args.out} is not a usable directory: "
                             f"{exc.strerror}") from exc
        return _COMMANDS[args.command](
            cfg, instance, config, lambda suffix: os.path.join(args.out, f"{prefix}_{suffix}"))
    except ValueError as exc:  # bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a failed run: SolverError, FlowDomainError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
