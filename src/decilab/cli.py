"""Batch front-end: config parsing, experiment orchestration, CSV emission.

Experiments are described by a line-oriented ``key = value`` file with
sections (configparser syntax); command-line flags override config keys.
Every output carries a 12-hex digest of the effective configuration: a
last column on each CSV row, a ``digest`` line in each report, and the
comment line of path.csv; re-running a digest reproduces its outputs byte
for byte. Floats are emitted with 17 significant digits, UTF-8, LF line
endings. This module is the only writer of output files.

Exit codes: 0 success, 2 configuration error (including any value the
library rejects), 3 hypothesis-gate rejection (a requested window whose
decay cannot support the estimator theory).

Config schema (sections and keys; unknown keys are rejected):

  [experiment]  command (optional, must match the subcommand), seed, out
  [family]      type = bspline_ma | two_frequency | files
                order, gammas, modulation          (built-in types)
                built-in gammas: increasing, even, >= 1; multiples of 4 for two_frequency
                decay, limit_freqs, threshold (0 .. number of levels),
                gamma.<j>, kernels.<j>, freqs.<j>  (type = files)
  [noise]       distribution = gaussian | rademacher | scaled_uniform
  [run]         level, n, replicates, centering, levels
  [specdens]    window_order, gamma, gammas, input | synth, phi, n
  [tolerances]  rate_threshold
"""

import argparse
import configparser
import hashlib
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import montecarlo, moments, simulate, specdens
from .kernels import DecimatedFamily, FamilyLevel, make_scaled_window_family, read_kernel, two_frequency_demo_family
from .windows import make_bspline_window

FLOAT_FMT = "%.17g"
SWEEP_HEADER = "gamma,n,entry_i,entry_ip,empirical,analytic_n,gamma_limit,se"

_KNOWN_KEYS = {
    "experiment": {"command", "seed", "out"},
    "family": {"type", "order", "gammas", "modulation", "decay", "limit_freqs", "threshold"},
    "noise": {"distribution"},
    "run": {"level", "n", "replicates", "centering", "levels"},
    "specdens": {"window_order", "gamma", "gammas", "input", "synth", "phi", "n"},
    "tolerances": {"rate_threshold"},
}


class ConfigError(Exception):
    pass


class HypothesisGateError(Exception):
    pass


def _parse_config_file(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg_path = Path(path)
    if not cfg_path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(cfg_path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    for section in parser.sections():
        base = section.split(".")[0]
        if base not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if base == "family" and "." in key:
                stem = key.split(".")[0]
                if stem not in {"gamma", "kernels", "freqs"}:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
            elif key not in _KNOWN_KEYS[base]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    return parser


def _effective_items(parser, command, seed):
    items = [("experiment.command", command), ("experiment.seed", str(seed))]
    for section in sorted(parser.sections()):
        for key in sorted(parser[section]):
            if (section, key) in (("experiment", "seed"), ("experiment", "out"), ("experiment", "command")):
                continue
            items.append((f"{section}.{key}", parser[section][key]))
    return items


def config_digest(parser, command, seed):
    text = "\n".join(f"{k}={v}" for k, v in _effective_items(parser, command, seed))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _get(parser, section, key, default=None, required=False):
    if parser.has_option(section, key):
        return parser.get(section, key)
    if required:
        raise ConfigError(f"missing required key {key!r} in section [{section}]")
    return default


def _get_int(parser, section, key, default=None, required=False):
    raw = _get(parser, section, key, None, required)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from exc


def _get_float(parser, section, key, default=None, required=False):
    raw = _get(parser, section, key, None, required)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc


def _get_values(parser, section, key, kind=float, default=None, required=False):
    raw = _get(parser, section, key, None, required)
    if raw is None:
        return default
    try:
        return [kind(tok) for tok in raw.split()]
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a list of {kind.__name__}") from exc


def _get_level(parser, family):
    """[run] level (default 0) and [run] levels (default all), each a level of the family."""
    level = _get_int(parser, "run", "level", 0)
    levels = _get_values(parser, "run", "levels", int, list(range(family.n_levels)))
    if not levels:
        raise ConfigError("[run] levels is empty")
    for j in [level, *levels]:
        if not 0 <= j < family.n_levels:
            raise ConfigError(f"[run] level {j} is not in 0..{family.n_levels - 1}")
    return level, levels


def _family_from_config(parser, config_dir):
    ftype = _get(parser, "family", "type", required=True)
    if ftype in ("bspline_ma", "two_frequency"):
        order = _get_int(parser, "family", "order", 4)
        gammas = _get_values(parser, "family", "gammas", int, required=True)
        window = make_bspline_window(order)
        if ftype == "bspline_ma":
            modulation = _get_float(parser, "family", "modulation", 0.0)
            return make_scaled_window_family(window, gammas, modulation)
        return two_frequency_demo_family(window, gammas)
    if ftype == "files":
        decay = _get_float(parser, "family", "decay", required=True)
        limit_freqs = _get_values(parser, "family", "limit_freqs", float, required=True)
        threshold = _get_int(parser, "family", "threshold", 0)
        levels = []
        j = 0
        while parser.has_option("family", f"gamma.{j}"):
            gamma = _get_int(parser, "family", f"gamma.{j}", required=True)
            paths = _get(parser, "family", f"kernels.{j}", required=True).split()
            freqs = _get_values(parser, "family", f"freqs.{j}", float, required=True)
            kernels = []
            for rel in paths:
                kpath = (config_dir / rel).resolve()
                if not kpath.is_file():
                    raise ConfigError(f"kernel file not found: {rel}")
                kernels.append(read_kernel(kpath))
            levels.append(FamilyLevel(gamma=gamma, kernels=tuple(kernels), center_freqs=np.array(freqs)))
            j += 1
        return DecimatedFamily(
            levels=tuple(levels),
            limit_freqs=np.array(limit_freqs),
            decay=decay,
            threshold=threshold,
            name="files",
        )
    raise ConfigError(f"unknown family type {ftype!r}")


def _noise_from_config(parser):
    return simulate.NoiseSpec(_get(parser, "noise", "distribution", "gaussian"))


def _window_from_config(parser):
    order = _get_int(parser, "specdens", "window_order", 4)
    if order <= 2:
        raise HypothesisGateError(
            f"window order {order} gives decay <= 2: outside estimator hypotheses"
        )
    return make_bspline_window(order)


def _series_from_config(parser, config_dir, seed):
    input_path = _get(parser, "specdens", "input")
    synth = _get(parser, "specdens", "synth")
    if (input_path is None) == (synth is None):
        raise ConfigError("specdens needs exactly one of 'input' or 'synth'")
    if input_path is not None:
        path = (config_dir / input_path).resolve()
        if not path.is_file():
            raise ConfigError(f"input series not found: {input_path}")
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                tok = line.strip()
                if not tok:
                    continue
                try:
                    rows.append(float(tok))
                except ValueError:
                    if line_no == 1:
                        continue  # tolerate a header line
                    raise ConfigError(f"{input_path}:{line_no}: not a number: {tok!r}")
        if not rows:
            raise ConfigError(f"input series is empty: {input_path}")
        return np.asarray(rows), None
    n = _get_int(parser, "specdens", "n", required=True)
    noise = _noise_from_config(parser)
    if synth == "white":
        return simulate.draw_noise(noise, n, seed), 1.0 / (2.0 * np.pi)
    if synth == "ar1":
        phi = _get_float(parser, "specdens", "phi", 0.5)
        kernel = simulate.ar1_kernel(phi)
        target = 1.0 / (2.0 * np.pi * (1.0 - phi) ** 2)
        return simulate.simulate_linear_process(kernel, n, noise, seed), target
    raise ConfigError(f"unknown synthetic source {synth!r}")


def _open_out(out_dir, name):
    out_dir.mkdir(parents=True, exist_ok=True)
    return open(out_dir / name, "w", encoding="utf-8", newline="\n")


def _fmt(value):
    return FLOAT_FMT % value if isinstance(value, float) else str(value)


def _write_report(out_dir, name, pairs):
    with _open_out(out_dir, name) as fh:
        for key, value in pairs:
            fh.write(f"{key} = {_fmt(value)}\n")


def _write_csv(out_dir, name, header, rows, digest):
    """header, then one line per row; every line ends in the digest column."""
    with _open_out(out_dir, name) as fh:
        fh.write(f"{header},digest\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + f",{digest}\n")


def _cmd_gamma(parser, out_dir, seed, digest, config_dir):
    family = _family_from_config(parser, config_dir)
    if family.limit_kernels is None:
        raise ConfigError("gamma command needs a family with limit kernels (built-in types)")
    gm = moments.gamma_matrix(family)
    cells = [(i, ip) for i in range(family.n_branches) for ip in range(family.n_branches)]
    _write_csv(out_dir, "gamma_matrix.csv", "entry_i,entry_ip,constant,value",
               [(i + 1, ip + 1, gm.constants[i, ip], gm.entries[i, ip]) for i, ip in cells], digest)
    return 0


def _cmd_simulate(parser, out_dir, seed, digest, config_dir):
    family = _family_from_config(parser, config_dir)
    noise = _noise_from_config(parser)
    level, _ = _get_level(parser, family)
    n = _get_int(parser, "run", "n", required=True)
    z = simulate.simulate_decimated(family, level, n, noise, seed)
    with _open_out(out_dir, "path.csv") as fh:
        fh.write(f"# level={level},gamma={family.levels[level].gamma},seed={seed},digest={digest}\n")
        fh.write("k," + ",".join(f"Z_{i + 1}" for i in range(z.shape[0])) + "\n")
        for k, column in enumerate(z.T):
            fh.write(f"{k}," + ",".join(map(_fmt, column)) + "\n")
    return 0


def _run_replicates(parser, config_dir):
    family = _family_from_config(parser, config_dir)
    noise = _noise_from_config(parser)
    level, levels = _get_level(parser, family)
    n = _get_int(parser, "run", "n", required=True)
    reps = _get_int(parser, "run", "replicates", required=True)
    centering = _get(parser, "run", "centering", "exact")
    return family, noise, level, levels, n, reps, centering


def _cmd_clt(parser, out_dir, seed, digest, config_dir):
    family, noise, level, _, n, reps, centering = _run_replicates(parser, config_dir)
    rs = montecarlo.replicate_sums(family, level, n, noise, reps, seed, centering)
    n_replicates, n_branches = rs.samples.shape
    coords = ",".join(f"coord_{i + 1}" for i in range(n_branches))
    _write_csv(out_dir, "replicates.csv", f"replicate,{coords}",
               ((r, *rs.samples[r]) for r in range(n_replicates)), digest)
    pairs = [("digest", digest), ("replicates", n_replicates), ("centering", centering)]
    for i in range(n_branches):
        rep = montecarlo.normality_report(rs.samples[:, i])
        prefix = f"coord_{i + 1}"
        pairs += [
            (f"{prefix}.skewness", rep.skewness),
            (f"{prefix}.excess_kurtosis", rep.excess_kurtosis),
            (f"{prefix}.ks_distance", rep.ks_distance),
            (f"{prefix}.degenerate", rep.degenerate),
        ]
    _write_report(out_dir, "normality.txt", pairs)
    return 0


def _cmd_cov_check(parser, out_dir, seed, digest, config_dir):
    family, noise, level, _, n, reps, centering = _run_replicates(parser, config_dir)
    rows = montecarlo.convergence_sweep(family, [level], n, noise, reps, seed, centering)
    _write_csv(out_dir, "cov_check.csv", SWEEP_HEADER, map(astuple, rows), digest)
    return 0


def _cmd_sweep(parser, out_dir, seed, digest, config_dir):
    family, noise, _, levels, n, reps, centering = _run_replicates(parser, config_dir)
    rows = montecarlo.convergence_sweep(family, levels, n, noise, reps, seed, centering)
    _write_csv(out_dir, "sweep.csv", SWEEP_HEADER, map(astuple, rows), digest)
    return 0


def _cmd_specdens(parser, out_dir, seed, digest, config_dir):
    window = _window_from_config(parser)
    threshold = _get_float(parser, "tolerances", "rate_threshold", specdens.DEFAULT_RATE_THRESHOLD)
    series, target = _series_from_config(parser, config_dir, seed)
    gammas = _get_values(parser, "specdens", "gammas", int)
    if gammas == []:
        raise ConfigError("[specdens] gammas is empty")
    gamma = _get_int(parser, "specdens", "gamma", gammas[-1] if gammas else None, required=gammas is None)
    sweep = [specdens.estimate_f0(series, window, g, rate_threshold=threshold) for g in gammas or ()]
    est = next((e for e in sweep if e.gamma == gamma), None) or specdens.estimate_f0(
        series, window, gamma, rate_threshold=threshold)
    pairs = [
        ("digest", digest),
        ("f0_hat", est.f0_hat),
        ("n", est.n),
        ("gamma", est.gamma),
        ("n_j", est.n_j),
        ("sigma2", est.sigma2),
        ("se", est.se),
        ("bias_order", est.bias_order),
        ("rate_value", est.rate_value),
        ("rate_ok", est.rate_ok),
        ("degenerate", est.degenerate),
    ]
    if target is not None:
        pairs.append(("target_f0", target))
    _write_report(out_dir, "specdens_report.txt", pairs)
    if sweep:
        _write_csv(out_dir, "specdens_sweep.csv", "gamma,f0_hat,se,rate_value",
                   [(e.gamma, e.f0_hat, e.se, e.rate_value) for e in sweep], digest)
    return 0


_COMMANDS = {
    "gamma": _cmd_gamma,
    "simulate": _cmd_simulate,
    "cov-check": _cmd_cov_check,
    "clt": _cmd_clt,
    "specdens": _cmd_specdens,
    "sweep": _cmd_sweep,
}


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="decilab",
        description="experiments on decimated linear processes and spectral estimation",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    args = ap.parse_args(argv)

    try:
        parser = _parse_config_file(args.config)
        declared = _get(parser, "experiment", "command")
        if declared is not None and declared != args.command:
            raise ConfigError(f"config declares command {declared!r} but {args.command!r} was invoked")
        seed = args.seed if args.seed is not None else _get_int(parser, "experiment", "seed", 0)
        out_dir = Path(args.out if args.out is not None else _get(parser, "experiment", "out", "."))
        digest = config_digest(parser, args.command, seed)
        config_dir = Path(args.config).resolve().parent
        return _COMMANDS[args.command](parser, out_dir, seed, digest, config_dir)
    except (ConfigError, ValueError) as exc:
        print(f"decilab: config error: {exc}", file=sys.stderr)
        return 2
    except HypothesisGateError as exc:
        print(f"decilab: rejected: {exc}", file=sys.stderr)
        return 3


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
