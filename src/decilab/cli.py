"""Batch front-end: config parsing, experiment orchestration, CSV emission.

Experiments are described by a line-oriented ``key = value`` file with
sections (configparser syntax); command-line flags override config keys.
Values are literal (no ``%`` interpolation); ``[DEFAULT]`` is an unknown
section. Config, kernel and input series files are UTF-8 and may start with
a byte-order mark; line 1 of a series is a header unless it starts with a
digit, a sign or a point. An error reading a kernel file or series names
its path as the config gives it.
Every output carries a 12-hex digest of the effective configuration: a
last column on each CSV row, a ``digest`` line in each report, and the
comment line of path.csv; re-running a digest reproduces its outputs byte
for byte. The digest is the first 12 hex digits of SHA-256 over the
effective configuration items and the bytes of each kernel file and
input series they name. It comes from the interpreter's built-in
SHA-256, so no run maps OpenSSL for it. Floats are emitted with 17
significant digits, UTF-8, LF line endings. This module is the only
writer of output files.

Environment: DECILAB_THREADS, the number of threads the replicate runner
uses, is read only by clt, cov-check and sweep. It defaults to 1 and must be
an integer >= 1; any other value exits 2. Outputs are identical for every
value.

Exit codes: 0 success, 2 configuration error (including any value the
library rejects, an input or output file that cannot be read or written,
and a size numpy refuses to allocate), 3 hypothesis-gate rejection (a
requested window whose decay cannot support the estimator theory).

Config schema. Every value is parsed once, when the file is loaded; an
unknown section or key, or a value of the wrong kind, is rejected. An
integer (a config value, a kernel file's support line, --seed,
DECILAB_THREADS) lies in (-2**64, 2**64) and is written in one way only:
an optional '-' and ASCII digits without a leading zero, so 020, +20, 2_0
and non-ASCII digits are rejected and each integer has one digest. A float
(a config value, a kernel coefficient, a series value) may not hold a
digit-group underscore such as 0.2_5; other spellings of one float (0.95,
0.950, 9.5e-1) still read as the same value under different digests:

  [experiment]  seed, out
  [family]      type = bspline_ma | two_frequency | files; each type reads only these keys:
                  bspline_ma     order, gammas, modulation
                  two_frequency  order, gammas
                  files          decay, limit_freqs, threshold, gamma.<j>, kernels.<j>, freqs.<j>
                kernels.<j>: kernel file paths, relative to the config file, split on
                  whitespace; quote a path ('...' or "...") that holds a space
                built-in gammas: increasing, even, >= 1; multiples of 4 for two_frequency;
                files: threshold in 0 .. number of levels, levels j = 0, 1, ... without gaps
  [noise]       distribution = gaussian | rademacher | scaled_uniform
  [run]         level, n, replicates; sweep runs every level of the family
  [specdens]    window_order, gammas; the series source is input, or synth = white | ar1, and reads only these keys:
                  input          input
                  white          synth, n
                  ar1            synth, n, phi
                specdens_report.txt holds the estimate at the last of gammas, specdens_sweep.csv each;
                a synth series is seeded and reproducible by its digest, drawn from the law of the
                noise (simulate_linear_process), not from the xi_t simulate writes

A [family] or [specdens] key the chosen type or source does not read is
rejected, and so is a key in a section the command never reads:

  gamma                   [experiment] [family]
  simulate, clt,          [experiment] [family] [noise] [run]
  cov-check, sweep
  specdens                [experiment] [specdens], and [noise] with synth only
"""

import argparse
import codecs
import configparser
import functools
import os
import shlex
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

try:  # the built-in SHA-256: hashlib would map OpenSSL (about 3.7 MB of RSS) for one 12-hex digest
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in hashes

import numpy as np

from . import montecarlo, moments, simulate, specdens
from .kernels import (DecimatedFamily, FamilyLevel, TimeKernel, _float, _int, _integer,
                      make_scaled_window_family, read_kernel, two_frequency_demo_family)
from .windows import make_bspline_window

FLOAT_FMT = "%.17g"
SWEEP_HEADER = ",".join(f.name for f in fields(montecarlo.SweepRow))


def _ints(raw):
    return [_int(tok) for tok in raw.split()]


def _floats(raw):
    return [_float(tok) for tok in raw.split()]


def _paths(raw):
    """Whitespace-separated paths; a path in single or double quotes may hold spaces. Backslashes are literal."""
    lexer = shlex.shlex(raw, posix=True)
    lexer.whitespace_split, lexer.commenters, lexer.escape = True, "", ""
    return list(lexer)


# {section: {key: parser of its value}}; a stem ending in "." stands for the per-level keys <stem><j>
_SCHEMA = {
    "experiment": {"seed": _int, "out": str},
    "family": {"type": str, "order": _int, "gammas": _ints, "modulation": _float, "decay": _float,
               "limit_freqs": _floats, "threshold": _int, "gamma.": _int, "kernels.": _paths, "freqs.": _floats},
    "noise": {"distribution": str},
    "run": {"level": _int, "n": _int, "replicates": _int},
    "specdens": {"window_order": _int, "gammas": _ints, "input": str, "synth": str, "phi": _float, "n": _int},
}
# {family type: the [family] keys it reads besides type}
_FAMILY_KEYS = {
    "bspline_ma": {"order", "gammas", "modulation"},
    "two_frequency": {"order", "gammas"},
    "files": {"decay", "limit_freqs", "threshold", "gamma.", "kernels.", "freqs."},
}
# {series source: the [specdens] keys it reads besides window_order and gammas}
_SOURCE_KEYS = {"input": {"input"}, "white": {"synth", "n"}, "ar1": {"synth", "n", "phi"}}
_KIND = {_int: "an integer in (-2**64, 2**64)", _ints: "a list of int in (-2**64, 2**64)", _float: "a number",
         _floats: "a list of float", _paths: "a list of paths (a quote is not closed)"}


class ConfigError(Exception):
    pass


class HypothesisGateError(Exception):
    pass


def _stem(key):
    """The schema name of a key: gamma.<j> goes by its stem gamma., every other key by itself."""
    name, dot, _ = key.partition(".")
    return name + dot


def _parsed(name, raw, parse):
    """parse(raw), with a ValueError raised as the one-line ConfigError that names the key or flag."""
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{name} = {raw!r} is not {_KIND[parse]}") from exc


def _parse_config_file(path):
    """The raw parser, which the digest reads, and {section: {key: value}} with each value parsed."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"), default_section="")
    try:  # an OSError names the path and is main's to report
        with open(path, "r", encoding="utf-8-sig") as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    cfg = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            parse = _SCHEMA[section].get(_stem(key))
            if parse is None:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            cfg[section][key] = _parsed(f"[{section}] {key}", raw, parse)
    return parser, cfg


def _effective_items(parser, cfg, command, seed, config_dir):
    """The raw config items, then the SHA-256 of each kernel file and input series they name, as read."""
    items = [("experiment.command", command), ("experiment.seed", str(seed))]
    for section in sorted(parser.sections()):
        for key in sorted(parser[section]):
            if (section, key) in (("experiment", "seed"), ("experiment", "out")):
                continue
            items.append((f"{section}.{key}", parser[section][key]))
    files = [rel for key in sorted(cfg["family"]) if key.startswith("kernels.") for rel in cfg["family"][key]]
    files += [cfg["specdens"]["input"]] if "input" in cfg["specdens"] else []
    for rel in files:
        path = config_dir / rel
        if path.is_file():  # a missing file is left for its handler to report; a BOM is dropped, as when read
            items.append((f"file:{rel}", sha256(path.read_bytes().removeprefix(codecs.BOM_UTF8)).hexdigest()))
    return items


def config_digest(parser, cfg, command, seed, config_dir):
    text = "\n".join(f"{k}={v}" for k, v in _effective_items(parser, cfg, command, seed, config_dir))
    return sha256(text.encode()).hexdigest()[:12]


def _need(cfg, section, key):
    if key not in cfg[section]:
        raise ConfigError(f"missing required key {key!r} in section [{section}]")
    return cfg[section][key]


def _family_from_config(cfg, config_dir):
    fam = cfg["family"]
    ftype = _need(cfg, "family", "type")
    if ftype not in _FAMILY_KEYS:
        raise ConfigError(f"unknown family type {ftype!r}")
    n_levels = sum(key.startswith("gamma.") for key in fam)
    levels_read = {str(j) for j in range(n_levels)}  # files reads gamma.<j> etc. for j = 0 .. n_levels - 1
    for key in fam:
        name, dot, j = key.partition(".")
        if key != "type" and (name + dot not in _FAMILY_KEYS[ftype] or dot and j not in levels_read):
            raise ConfigError(f"[family] {key} is not read by type = {ftype}")
    if ftype != "files":
        gammas = _need(cfg, "family", "gammas")
        window = make_bspline_window(fam.get("order", 4))
        if ftype == "bspline_ma":
            return make_scaled_window_family(window, gammas, fam.get("modulation", 0.0))
        return two_frequency_demo_family(window, gammas)
    decay = _need(cfg, "family", "decay")
    limit_freqs = _need(cfg, "family", "limit_freqs")
    levels = []
    for j in range(n_levels):
        gamma = _need(cfg, "family", f"gamma.{j}")
        paths = _need(cfg, "family", f"kernels.{j}")
        freqs = _need(cfg, "family", f"freqs.{j}")
        kernels = []
        for rel in paths:
            try:
                kernels.append(read_kernel(config_dir / rel))
            except (OSError, ValueError) as exc:
                raise ConfigError(f"{rel}: {exc}") from exc
        levels.append(FamilyLevel(gamma=gamma, kernels=tuple(kernels), center_freqs=np.array(freqs)))
    return DecimatedFamily(levels=tuple(levels), limit_freqs=np.array(limit_freqs), decay=decay,
                           threshold=fam.get("threshold", 0), name="files")


def _noise_from_config(cfg):
    return simulate.NoiseSpec(cfg["noise"].get("distribution", "gaussian"))


def _family_run(cfg, config_dir):
    """The family, the noise, [run] level (default 0, a level of the family) and [run] n, read in that order."""
    family = _family_from_config(cfg, config_dir)
    noise = _noise_from_config(cfg)
    level = cfg["run"].get("level", 0)
    family.level(level)
    return family, noise, level, _need(cfg, "run", "n")


def _window_from_config(cfg):
    order = cfg["specdens"].get("window_order", 4)
    if order <= 2:
        raise HypothesisGateError(f"window order {order} gives decay <= 2: outside estimator hypotheses")
    return make_bspline_window(order)


def _series_from_config(cfg, config_dir, seed):
    spec = cfg["specdens"]
    source = spec.get("synth", "input")
    if source not in _SOURCE_KEYS:
        raise ConfigError(f"unknown synthetic source {source!r}")
    for key in spec:
        if key not in {"window_order", "gammas", *_SOURCE_KEYS[source]}:
            raise ConfigError(f"[specdens] {key} is not read by the {source} source")
    if source == "input":
        input_path = _need(cfg, "specdens", "input")
        if cfg["noise"]:
            raise ConfigError("[noise] is not read with input: the series is given")
        rows = []
        try:
            with open(config_dir / input_path, "r", encoding="utf-8-sig") as fh:
                for line_no, line in enumerate(fh, 1):
                    tok = line.strip()
                    if not tok or line_no == 1 and tok[0] not in "0123456789+-.":
                        continue  # a blank line, or a header line
                    try:
                        rows.append(_float(tok))
                    except ValueError:
                        raise ConfigError(f"{input_path}:{line_no}: not a number: {tok!r}")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{input_path}: {exc}") from exc
        if not rows:
            raise ConfigError(f"input series is empty: {input_path}")
        return np.asarray(rows), None
    n = _need(cfg, "specdens", "n")
    noise = _noise_from_config(cfg)
    if source == "white":  # the identity kernel reads xi_0 .. xi_{n-1}
        kernel, target = TimeKernel(1, np.ones(1)), 1.0 / (2.0 * np.pi)
    else:
        phi = spec.get("phi", 0.5)
        kernel, target = simulate.ar1_kernel(phi), 1.0 / (2.0 * np.pi * (1.0 - phi) ** 2)
    return simulate.simulate_linear_process(kernel, n, noise, seed), target


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


def _cmd_gamma(cfg, out_dir, seed, digest, config_dir):
    family = _family_from_config(cfg, config_dir)
    gm = moments.gamma_matrix(family)
    cells = [(i, ip) for i in range(family.n_branches) for ip in range(family.n_branches)]
    _write_csv(out_dir, "gamma_matrix.csv", "entry_i,entry_ip,constant,value",
               [(i + 1, ip + 1, gm.constants[i, ip], gm.entries[i, ip]) for i, ip in cells], digest)


def _cmd_simulate(cfg, out_dir, seed, digest, config_dir):
    family, noise, level, n = _family_run(cfg, config_dir)
    z = simulate.simulate_decimated(family, level, n, noise, seed)
    with _open_out(out_dir, "path.csv") as fh:
        fh.write(f"# level={level},gamma={family.level(level).gamma},seed={seed},digest={digest}\n")
        fh.write("k," + ",".join(f"Z_{i + 1}" for i in range(z.shape[0])) + "\n")
        for k, column in enumerate(z.T):
            fh.write(f"{k}," + ",".join(map(_fmt, column)) + "\n")


def _thread_count():
    """DECILAB_THREADS as the replicate runner's worker count, 1 when it is unset."""
    text = os.environ.get("DECILAB_THREADS", "1")
    try:
        return _integer(_int(text), "workers", 1)
    except ValueError:
        raise ConfigError(f"DECILAB_THREADS must be an integer >= 1, got {text!r}") from None


def _run_replicates(cfg, config_dir):
    return (*_family_run(cfg, config_dir), _need(cfg, "run", "replicates"), _thread_count())


def _cmd_clt(cfg, out_dir, seed, digest, config_dir):
    family, noise, level, n, reps, workers = _run_replicates(cfg, config_dir)
    samples = montecarlo.replicate_sums(family, level, n, noise, reps, seed, workers)
    n_replicates, n_branches = samples.shape
    coords = ",".join(f"coord_{i + 1}" for i in range(n_branches))
    _write_csv(out_dir, "replicates.csv", f"replicate,{coords}",
               ((r, *samples[r]) for r in range(n_replicates)), digest)
    pairs = [("digest", digest), ("replicates", n_replicates)]
    for i in range(n_branches):  # every NormalityReport field in order but n_samples, which the replicates line gives
        report = asdict(montecarlo.normality_report(samples[:, i]))
        pairs += [(f"coord_{i + 1}.{key}", value) for key, value in report.items() if key != "n_samples"]
    _write_report(out_dir, "normality.txt", pairs)


def _cmd_cov_check(cfg, out_dir, seed, digest, config_dir):
    family, noise, level, n, reps, workers = _run_replicates(cfg, config_dir)
    rows = montecarlo.convergence_sweep(family, [level], n, noise, reps, seed, workers)
    _write_csv(out_dir, "cov_check.csv", SWEEP_HEADER, map(astuple, rows), digest)


def _cmd_sweep(cfg, out_dir, seed, digest, config_dir):
    family, noise, _, n, reps, workers = _run_replicates(cfg, config_dir)
    rows = montecarlo.convergence_sweep(family, range(family.n_levels), n, noise, reps, seed, workers)
    _write_csv(out_dir, "sweep.csv", SWEEP_HEADER, map(astuple, rows), digest)


def _cmd_specdens(cfg, out_dir, seed, digest, config_dir):
    window = _window_from_config(cfg)
    gammas = _need(cfg, "specdens", "gammas")
    if not gammas:
        raise ConfigError("[specdens] gammas is empty")
    series, target = _series_from_config(cfg, config_dir, seed)
    sweep = [specdens.estimate_f0(series, window, g) for g in gammas]
    pairs = [("digest", digest), *asdict(sweep[-1]).items()]  # the last rung: every SpecEstimate field, in order
    if target is not None:
        pairs.append(("target_f0", target))
    _write_report(out_dir, "specdens_report.txt", pairs)
    _write_csv(out_dir, "specdens_sweep.csv", "gamma,f0_hat,se,rate_value",
               [(e.gamma, e.f0_hat, e.se, e.rate_value) for e in sweep], digest)


_FAMILY_RUN = {"experiment", "family", "noise", "run"}
# {command: (its handler, the sections it reads)}; _series_from_config also rejects [noise] with input
_COMMANDS = {
    "gamma": (_cmd_gamma, {"experiment", "family"}),
    "simulate": (_cmd_simulate, _FAMILY_RUN),
    "cov-check": (_cmd_cov_check, _FAMILY_RUN),
    "clt": (_cmd_clt, _FAMILY_RUN),
    "specdens": (_cmd_specdens, {"experiment", "specdens", "noise"}),
    "sweep": (_cmd_sweep, _FAMILY_RUN),
}


@functools.cache
def _argument_parser():
    """The command-line parser, built on the first main() call and reused by every later one."""
    ap = argparse.ArgumentParser(
        prog="decilab",
        description="experiments on decimated linear processes and spectral estimation",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    return ap


def main(argv=None):
    args = _argument_parser().parse_args(argv)
    handler, sections = _COMMANDS[args.command]

    try:
        parser, cfg = _parse_config_file(args.config)
        for section, keys in cfg.items():
            if keys and section not in sections:
                raise ConfigError(f"[{section}] is not read by {args.command}")
        seed = cfg["experiment"].get("seed", 0) if args.seed is None else _parsed("--seed", args.seed, _int)
        out_dir = Path(args.out if args.out is not None else cfg["experiment"].get("out", "."))
        config_dir = Path(args.config).resolve().parent
        digest = config_digest(parser, cfg, args.command, seed, config_dir)
        handler(cfg, out_dir, seed, digest, config_dir)
    # OSError: a file that cannot be read or written; MemoryError: a size numpy cannot allocate
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        # one line, also where a configparser message spans several
        print("decilab: config error:", *map(str.strip, str(exc).splitlines()), file=sys.stderr)
        return 2
    except HypothesisGateError as exc:
        print(f"decilab: rejected: {exc}", file=sys.stderr)
        return 3
    return 0


def console_main():
    raise SystemExit(main())
