import argparse
import codecs
import concurrent.futures
import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import decilab
from decilab import cli
from decilab.cli import main

FAMILY = {"type": "two_frequency", "order": 4, "gammas": "16 32"}
SCALED = {"type": "bspline_ma", "order": 4, "gammas": "16 32"}
KERNEL = "kernel.txt"  # written next to every test config by write_kernel
# written next to every test config by write_series
SERIES, INF_SERIES, BAD_FIRST_SERIES = "series.txt", "inf_series.txt", "bad_first_series.txt"
GAPPED_SERIES, BLANK_SERIES = "gapped_series.txt", "blank_series.txt"
FILES = {"type": "files", "decay": 1.0, "limit_freqs": "0",
         "gamma.0": 2, "kernels.0": KERNEL, "freqs.0": 0,
         "gamma.1": 4, "kernels.1": KERNEL, "freqs.1": 0}
RUN = {"level": 1, "n": 20, "replicates": 150}
CONFIGS = {
    "simulate": {"family": FAMILY, "run": RUN},
    "clt": {"family": FAMILY, "run": RUN},
    "cov-check": {"family": FAMILY, "run": RUN},
    "sweep": {"family": FAMILY, "run": RUN},
    "specdens": {"specdens": {"window_order": 4, "gammas": "16 64", "synth": "ar1", "phi": 0.5, "n": 4096}},
    "gamma": {"family": FAMILY},
}
CSV_HEADERS = {
    ("clt", "replicates.csv"): "replicate,coord_1,coord_2,digest",
    ("cov-check", "cov_check.csv"): "gamma,n,entry_i,entry_ip,empirical,analytic_n,gamma_limit,se,digest",
    ("sweep", "sweep.csv"): "gamma,n,entry_i,entry_ip,empirical,analytic_n,gamma_limit,se,digest",
    ("gamma", "gamma_matrix.csv"): "entry_i,entry_ip,constant,value,digest",
    ("specdens", "specdens_sweep.csv"): "gamma,f0_hat,se,rate_value,digest",
}


def write_config(path, sections):
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in items.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(tmp_path, command, sections, tag="out", seed=5):
    cfg = tmp_path / f"{command}.ini"
    write_config(cfg, {"experiment": {"seed": seed}, **sections})
    out = tmp_path / tag
    return main([command, "--config", str(cfg), "--out", str(out)]), out


def write_kernel(tmp_path):
    (tmp_path / KERNEL).write_text("-1\n0.5\n1.0\n0.5\n", encoding="utf-8")


def write_series(tmp_path):
    values = [f"{math.sin(0.7 * u):.17g}" for u in range(64)]
    (tmp_path / SERIES).write_text("\n".join(["x", *values]) + "\n", encoding="utf-8")
    (tmp_path / INF_SERIES).write_text("\n".join(["x", *values[:40], "inf", *values[41:]]) + "\n", encoding="utf-8")
    (tmp_path / BAD_FIRST_SERIES).write_text("\n".join(["0,5", *values[1:]]) + "\n", encoding="utf-8")
    (tmp_path / GAPPED_SERIES).write_text("\n".join(["x", *values[:30], "", "  ", *values[30:]]) + "\n",
                                          encoding="utf-8")
    (tmp_path / BLANK_SERIES).write_text("x\n\n \n\n", encoding="utf-8")


def with_run(**changes):
    return {"family": FAMILY, "run": {**RUN, **changes}}


def with_family(base=FAMILY, **changes):
    return {"family": {**base, **changes}, "run": RUN}


def specdens(**changes):
    return {"specdens": {"window_order": 4, "gammas": 16, "synth": "white", "n": 4096, **changes}}


REJECTED = {
    "too_few_replicates": ("clt", with_run(replicates=50)),
    "zero_n": ("simulate", with_run(n=0)),
    "zero_n_clt": ("clt", with_run(n=0)),
    "zero_n_cov_check": ("cov-check", with_run(n=0)),
    "zero_n_sweep": ("sweep", with_run(n=0)),
    "level_past_end": ("simulate", with_run(level=5)),
    "negative_level": ("simulate", with_run(level=-1)),
    "centering_is_an_unknown_key": ("clt", with_run(centering="limit")),  # every run centers by E Z^2
    "levels_is_an_unknown_key": ("sweep", with_run(levels="0 1")),  # sweep runs every level
    "specdens_gamma_is_an_unknown_key": ("specdens", specdens(gamma=16)),  # the report is the last of gammas
    "tolerances_is_an_unknown_section": ("specdens", {**specdens(), "tolerances": {"rate_threshold": 0.1}}),
    "missing_specdens_gammas": ("specdens", {"specdens": {"window_order": 4, "synth": "white", "n": 4096}}),
    "stray_percent": ("simulate", {**with_run(), "noise": {"distribution": "gaussian%"}}),  # literal, not interpolated
    "odd_specdens_sweep_gamma": ("specdens", specdens(gammas="16 15")),
    "explosive_phi": ("specdens", specdens(synth="ar1", phi=1.5)),
    "unknown_noise": ("simulate", {**with_run(), "noise": {"distribution": "cauchy"}}),
    "low_window_order": ("simulate", {"family": {**FAMILY, "order": 2}, "run": RUN}),
    "series_shorter_than_gamma": ("specdens", specdens(n=10)),
    "empty_specdens_gammas": ("specdens", {"specdens": {"window_order": 4, "gammas": "", "synth": "white",
                                                        "n": 4096}}),
    "zero_family_gamma": ("simulate", with_family(gammas="0 16")),
    "negative_family_gamma": ("simulate", with_family(SCALED, gammas="-2 16")),
    "odd_family_gamma": ("simulate", with_family(SCALED, gammas="15 16")),
    "decreasing_family_gammas": ("simulate", with_family(SCALED, gammas="32 16")),
    "nan_modulation": ("simulate", with_family(SCALED, modulation="nan")),
    "nan_limit_freq": ("simulate", with_family(FILES, limit_freqs="nan")),
    "nan_decay": ("simulate", with_family(FILES, decay="nan")),
    "negative_threshold": ("simulate", with_family(FILES, threshold=-1)),
    "files_family_no_branches": ("simulate", with_family(FILES, limit_freqs="", **{
        "kernels.0": "", "freqs.0": "", "kernels.1": "", "freqs.1": ""})),
    # a files family has no limit kernels, so nothing that needs a limit runs on it
    "files_family_gamma": ("gamma", {"family": FILES}),
    # a [family] key the chosen type does not read, and [specdens] keys the chosen source does not read
    "decay_with_bspline_ma": ("simulate", with_family(SCALED, decay=9)),
    "modulation_with_two_frequency": ("simulate", with_family(modulation=0.5)),
    "order_with_files": ("simulate", with_family(FILES, order=4)),
    "files_family_stray_level": ("simulate", with_family(FILES, **{"kernels.2": KERNEL})),
    "unclosed_quote_kernel_path": ("simulate", with_family(FILES, **{"kernels.1": f'"{KERNEL}'})),
    "phi_with_white": ("specdens", specdens(phi=0.5)),
    "input_and_synth": ("specdens", specdens(input=SERIES)),
    "neither_input_nor_synth": ("specdens", {"specdens": {"window_order": 4, "gammas": 16}}),
    "unknown_synth": ("specdens", specdens(synth="foo")),
    "n_with_input": ("specdens", {"specdens": {"window_order": 4, "gammas": 16, "input": SERIES, "n": 64}}),
    # a section the command, or the series source, never reads
    "run_and_noise_with_gamma": ("gamma", {"family": FAMILY, "run": {"n": 40},
                                           "noise": {"distribution": "rademacher"}}),
    "noise_with_input": ("specdens", {"specdens": {"window_order": 4, "gammas": 16, "input": SERIES},
                                      "noise": {"distribution": "cauchy"}}),
    "family_with_specdens": ("specdens", {**specdens(), "family": FAMILY}),
    "specdens_with_simulate": ("simulate", {**with_run(), "specdens": {"window_order": 4}}),
    # values are parsed on load, also in a section the command never reads
    "unparsed_n_with_gamma": ("gamma", {"family": FAMILY, "run": {"n": "abc"}}),
    "non_finite_input_series": ("specdens", {"specdens": {"window_order": 4, "gammas": 16, "input": INF_SERIES}}),
    # a line 1 that starts like a number is a value, not a header
    "malformed_first_value": ("specdens", {"specdens": {"window_order": 4, "gammas": 16, "input": BAD_FIRST_SERIES}}),
    "header_and_blank_lines_series": ("specdens", {"specdens": {"window_order": 4, "gammas": 16,
                                                                "input": BLANK_SERIES}}),
    # [DEFAULT] is a section like any other, not copied into each
    "default_section_keys": ("gamma", {"DEFAULT": {"gammas": "16 32"}, "family": {"type": "two_frequency"}}),
    "default_section_only": ("gamma", {"DEFAULT": {"foo": 1}}),
    "command_is_an_unknown_key": ("simulate", {**with_run(), "experiment": {"seed": 5, "command": "simulate"}}),
    # sizes past the 2^47-byte address space: numpy refuses at once, whatever the overcommit setting
    "unallocatable_synth_n": ("specdens", specdens(synth="ar1", phi=0.5, n=10**16)),
    "unallocatable_n_sweep": ("sweep", {**with_run(n=10**16), "noise": {"distribution": "rademacher"}}),
    "unallocatable_n_simulate": ("simulate", with_run(n=10**16)),
    # a kernel file or input series that cannot be read; "." is the directory of the config
    "missing_kernel_file": ("simulate", with_family(FILES, **{"kernels.1": "missing.txt"})),
    "kernel_path_is_a_directory": ("simulate", with_family(FILES, **{"kernels.1": "."})),
    "missing_input_series": ("specdens", {"specdens": {"window_order": 4, "gammas": 16, "input": "missing.txt"}}),
    "input_series_is_a_directory": ("specdens", {"specdens": {"window_order": 4, "gammas": 16, "input": "."}}),
}
# the REJECTED cases of a file that cannot be read, and the path the config gives it
FILE_ERRORS = {"missing_kernel_file": "missing.txt", "kernel_path_is_a_directory": ".",
               "missing_input_series": "missing.txt", "input_series_is_a_directory": "."}
# REJECTED cases and what their message must name
NAMED_ERRORS = {"centering_is_an_unknown_key": "unknown key 'centering' in [run]", "stray_percent": "'gaussian%'",
                "levels_is_an_unknown_key": "unknown key 'levels' in [run]",
                "specdens_gamma_is_an_unknown_key": "unknown key 'gamma' in [specdens]",
                "tolerances_is_an_unknown_section": "unknown config section [tolerances]",
                "missing_specdens_gammas": "missing required key 'gammas' in section [specdens]",
                "unparsed_n_with_gamma": "[run] n = 'abc' is not an integer",
                "command_is_an_unknown_key": "unknown key 'command' in [experiment]",
                "phi_with_white": "[specdens] phi is not read by the white source",
                "n_with_input": "[specdens] n is not read by the input source",
                "input_and_synth": "[specdens] input is not read by the white source",
                "neither_input_nor_synth": "missing required key 'input' in section [specdens]",
                "unknown_synth": "unknown synthetic source 'foo'",
                "header_and_blank_lines_series": f"input series is empty: {BLANK_SERIES}"}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_bad_config_exits_2_without_traceback(tmp_path, capsys, case):
    command, sections = REJECTED[case]
    write_kernel(tmp_path)
    write_series(tmp_path)
    with warnings.catch_warnings(record=True) as caught:  # under pytest, warnings never reach stderr
        warnings.simplefilter("always")
        code, out = run(tmp_path, command, sections)
    err = capsys.readouterr().err
    assert not caught and "Warning" not in err
    assert code == 2
    assert err.startswith("decilab: config error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(FILE_ERRORS))
def test_file_error_names_the_configured_path(tmp_path, capsys, case):
    command, sections = REJECTED[case]
    write_kernel(tmp_path)
    assert run(tmp_path, command, sections)[0] == 2
    assert capsys.readouterr().err.startswith(f"decilab: config error: {FILE_ERRORS[case]}: ")


@pytest.mark.parametrize("case", sorted(NAMED_ERRORS))
def test_error_names_the_rejected_key_or_value(tmp_path, capsys, case):
    command, sections = REJECTED[case]
    write_series(tmp_path)
    assert run(tmp_path, command, sections)[0] == 2
    assert NAMED_ERRORS[case] in capsys.readouterr().err


@pytest.mark.parametrize("order", [1, 2])
def test_low_window_order_exits_3(tmp_path, capsys, order):
    # the hypothesis gate: a window decay <= 2 cannot support the estimator theory
    code, out = run(tmp_path, "specdens", specdens(window_order=order))
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == (f"decilab: rejected: window order {order} gives decay <= 2: "
                                       "outside estimator hypotheses\n")


def test_undecodable_series_names_its_path(tmp_path, capsys):
    (tmp_path / "latin1.txt").write_bytes(b"x\n0.5\n\xff\n")
    sections = {"specdens": {"window_order": 4, "gammas": 16, "input": "latin1.txt"}}
    assert run(tmp_path, "specdens", sections)[0] == 2
    assert capsys.readouterr().err.startswith("decilab: config error: latin1.txt: 'utf-8' codec can't decode")


def test_specdens_reads_its_gammas_before_drawing_the_series(tmp_path, capsys):
    # the series would need 71.1 PiB, so an empty gammas must be seen first
    sections = {"specdens": {"window_order": 4, "gammas": "", "synth": "ar1", "n": 10 ** 16}}
    assert run(tmp_path, "specdens", sections)[0] == 2
    assert capsys.readouterr().err == "decilab: config error: [specdens] gammas is empty\n"


@pytest.mark.parametrize("command", ["simulate", "clt", "cov-check", "sweep", "specdens"])
def test_negative_seed_exits_2_where_noise_is_drawn(tmp_path, capsys, command):
    # -1 was masked onto the stream of 2**64 - 1
    cfg = tmp_path / f"{command}.ini"
    write_config(cfg, CONFIGS[command])
    assert main([command, "--config", str(cfg), "--seed=-1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"decilab: config error: seed -1 is not in 0..{2 ** 64 - 1}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,sections", [("gamma", CONFIGS["gamma"]),
                                              ("specdens", {"specdens": {"window_order": 4, "gammas": 16,
                                                                         "input": SERIES}})],
                         ids=["gamma", "specdens_input"])
def test_negative_seed_runs_where_no_noise_is_drawn(tmp_path, command, sections):
    # the seed only enters the digest
    write_series(tmp_path)
    assert run(tmp_path, command, sections, seed=-1)[0] == 0


# every integer key of the schema: a command that loads it, and the sections that set it to a value
OVERSIZED = {
    "experiment.seed": ("gamma", lambda v: {"experiment": {"seed": v}, "family": FAMILY}),
    "family.order": ("gamma", lambda v: {"family": {**FAMILY, "order": v}}),
    "family.gammas": ("gamma", lambda v: {"family": {**FAMILY, "gammas": f"16 {v}"}}),
    "family.threshold": ("simulate", lambda v: with_family(FILES, threshold=v)),
    "family.gamma.": ("simulate", lambda v: with_family(FILES, **{"gamma.1": v})),
    "run.level": ("simulate", lambda v: with_run(level=v)),
    "run.n": ("simulate", lambda v: with_run(n=v)),
    "run.n/clt": ("clt", lambda v: with_run(n=v)),
    "run.n/cov-check": ("cov-check", lambda v: with_run(n=v)),
    "run.n/sweep": ("sweep", lambda v: with_run(n=v)),
    "run.replicates": ("clt", lambda v: with_run(replicates=v)),
    "specdens.window_order": ("specdens", lambda v: specdens(window_order=v)),
    "specdens.gammas": ("specdens", lambda v: specdens(gammas=f"16 {v}")),
    "specdens.n": ("specdens", lambda v: specdens(n=v)),
}


def test_oversized_cases_cover_every_integer_key():
    keys = {f"{section}.{key}" for section, parsers in cli._SCHEMA.items()
            for key, parse in parsers.items() if parse in (cli._int, cli._ints)}
    assert {case.partition("/")[0] for case in OVERSIZED} == keys


@pytest.mark.parametrize("value", [2 ** 64, -(2 ** 64), 10 ** 400], ids=["2_64", "minus_2_64", "10_400"])
@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_integer_exits_2_without_traceback(tmp_path, capsys, case, value):
    # an integer past 64 bits is rejected on load, before numpy raises OverflowError or TypeError on it
    command, sections = OVERSIZED[case]
    write_kernel(tmp_path)
    code, out = run(tmp_path, command, sections(value))
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.startswith("decilab: config error: [") and "(-2**64, 2**64)" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


# every float key of the schema: a command that loads it, and the sections that set it to a value
FLOAT_KEYS = {
    "family.modulation": ("simulate", lambda v: with_family(SCALED, modulation=v)),
    "family.decay": ("simulate", lambda v: with_family(FILES, decay=v)),
    "family.limit_freqs": ("simulate", lambda v: with_family(FILES, limit_freqs=v)),
    "family.freqs.": ("simulate", lambda v: with_family(FILES, **{"freqs.1": v})),
    "specdens.phi": ("specdens", lambda v: specdens(synth="ar1", phi=v)),
}
# a value each number key runs with, in the one spelling an integer has
NUMBER_VALUES = {"experiment.seed": "15", "family.order": "4", "family.gammas": "32", "family.threshold": "0",
                 "family.gamma.": "4", "run.level": "1", "run.n": "20", "run.n/clt": "20", "run.n/cov-check": "20",
                 "run.n/sweep": "20", "run.replicates": "150", "specdens.window_order": "4", "specdens.gammas": "64",
                 "specdens.n": "4096", "family.modulation": "0.25", "family.decay": "10", "family.limit_freqs": "0.00",
                 "family.freqs.": "0.00", "specdens.phi": "0.95"}
_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def other_spellings(case, value):
    """Spellings float() or int() reads as value that the key rejects: a digit-group underscore, and for an
    integer also a leading zero, a '+' and non-ASCII digits."""
    underscore = f"{value[:-1]}_{value[-1]}" if len(value) > 1 else f"0_{value}"
    if case in FLOAT_KEYS:
        return [underscore]
    return [underscore, f"0{value}", f"+{value}", value.translate(_FULLWIDTH)]


def test_float_cases_cover_every_float_key():
    keys = {f"{section}.{key}" for section, parsers in cli._SCHEMA.items()
            for key, parse in parsers.items() if parse in (cli._float, cli._floats)}
    assert set(FLOAT_KEYS) == keys
    assert set(NUMBER_VALUES) == {*OVERSIZED, *FLOAT_KEYS}


@pytest.mark.parametrize("case", sorted(NUMBER_VALUES))
def test_number_in_another_spelling_exits_2(tmp_path, capsys, case):
    # int() reads 2_0, 020, +20 and non-ASCII digits as 20, float() reads 0.2_5 as 0.25: each would run under
    # another digest
    command, sections = {**OVERSIZED, **FLOAT_KEYS}[case]
    value = NUMBER_VALUES[case]
    write_kernel(tmp_path)
    assert run(tmp_path, command, sections(value), tag="plain")[0] == 0
    section, key = case.partition("/")[0].split(".", 1)
    for spelling in other_spellings(case, value):
        capsys.readouterr()
        code, out = run(tmp_path, command, sections(spelling))
        err = capsys.readouterr().err
        assert code == 2 and not out.exists(), spelling
        assert err.startswith(f"decilab: config error: [{section}] {key}") and spelling in err.split(" = ", 1)[1]
        assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_series_value_with_an_underscore_exits_2(tmp_path, capsys):
    write_series(tmp_path)
    lines = (tmp_path / SERIES).read_text(encoding="utf-8").splitlines()
    (tmp_path / "underscore.txt").write_text("\n".join([*lines[:3], "0.2_5", *lines[3:]]) + "\n", encoding="utf-8")
    code, out = run(tmp_path, "specdens", {"specdens": {"window_order": 4, "gammas": 16, "input": "underscore.txt"}})
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == "decilab: config error: underscore.txt:4: not a number: '0.2_5'\n"


@pytest.mark.parametrize("value", ["1_5", "abc", str(2 ** 64)])
def test_seed_flag_with_an_underscore_exits_2(tmp_path, capsys, value):
    # an underscore, a non-integer or 2**64: the schema's integer rule gives one config error line naming --seed
    cfg = tmp_path / "gamma.ini"
    write_config(cfg, CONFIGS["gamma"])
    assert main(["gamma", "--config", str(cfg), "--seed", value, "--out", str(tmp_path / "out")]) == 2
    want = f"decilab: config error: --seed = {value!r} is not an integer in (-2**64, 2**64)\n"
    assert capsys.readouterr().err == want
    assert not (tmp_path / "out").exists()


def test_largest_seed_runs_and_the_seed_flag_is_bounded(tmp_path):
    # the bound keeps every 64-bit seed, in the config and under --seed
    code, out = run(tmp_path, "gamma", CONFIGS["gamma"], seed=2 ** 64 - 1)
    assert code == 0 and (out / "gamma_matrix.csv").is_file()
    cfg = tmp_path / "gamma.ini"
    assert main(["gamma", "--config", str(cfg), "--seed", str(2 ** 64 - 1), "--out", str(tmp_path / "flag")]) == 0
    assert main(["gamma", "--config", str(cfg), "--seed", str(2 ** 64), "--out", str(tmp_path / "over")]) == 2
    assert not (tmp_path / "over").exists()


@pytest.mark.parametrize("case", ["default_section_keys", "default_section_only"])
def test_default_section_is_an_unknown_section(tmp_path, capsys, case):
    # configparser would copy its keys into every section, where no schema check sees them
    command, sections = REJECTED[case]
    assert run(tmp_path, command, sections)[0] == 2
    assert capsys.readouterr().err == "decilab: config error: unknown config section [DEFAULT]\n"


@pytest.mark.parametrize("text", ["-1\n0.5\nabc\n", "1.5\n0.5\n", f"{2 ** 64}\n0.5\n", f"{10 ** 400}\n0.5\n",
                                  "-0_1\n0.5\n", "-01\n0.5\n", "+1\n0.5\n", "-1\n0.2_5\n"],
                         ids=["bad_coefficient", "non_integer_support", "support_2_64", "support_10_400",
                              "underscore_support", "leading_zero_support", "plus_support", "underscore_coefficient"])
def test_kernel_file_error_names_the_file(tmp_path, capsys, text):
    write_kernel(tmp_path)
    (tmp_path / "bad_kernel.txt").write_text(text, encoding="utf-8")
    code, out = run(tmp_path, "simulate", with_family(FILES, **{"kernels.1": "bad_kernel.txt"}))
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.startswith("decilab: config error: bad_kernel.txt: ") and len(err.splitlines()) == 1


def test_quoted_kernel_path_with_space_loads(tmp_path):
    write_kernel(tmp_path)
    (tmp_path / "kernël α.txt").write_text("-2\n0.25\n-1.0\n0.5\n", encoding="utf-8")
    sections = with_family(FILES, limit_freqs="0 0", **{"kernels.0": f"{KERNEL} {KERNEL}", "freqs.0": "0 0",
                                                        "kernels.1": f'"kernël α.txt" {KERNEL}', "freqs.1": "0 0"})
    code, out = run(tmp_path, "simulate", sections)
    assert code == 0 and (out / "path.csv").is_file()
    _, cfg = cli._parse_config_file(tmp_path / "simulate.ini")
    assert cfg["family"]["kernels.1"] == ["kernël α.txt", KERNEL]
    kernels = cli._family_from_config(cfg, tmp_path).levels[1].kernels
    assert [(k.support_start, k.coeffs.tolist()) for k in kernels] == [(-2, [0.25, -1.0, 0.5]), (-1, [0.5, 1.0, 0.5])]


@pytest.mark.parametrize("raw", ["kernel.txt", "a.txt  b.txt", "\tdir\\k.txt\n  c%1.txt ", ""])
def test_unquoted_kernel_paths_split_on_whitespace(raw):
    # as before quoting was read: backslashes stay literal
    assert cli._paths(raw) == raw.split()


@pytest.mark.parametrize("command,sections,want", [
    ("gamma", {"family": FAMILY}, 0),
    ("gamma", {"family": {**FAMILY, "type": "foo"}}, 2),
    ("specdens", {"specdens": {"synth": "white", "n": 4096, "gammas": 16, "window_order": 2}}, 3),
], ids=["valid", "bad", "gate"])
def test_console_main_exit_code(tmp_path, monkeypatch, command, sections, want):
    # the target of the decilab script: main's return value becomes the process exit code
    cfg = tmp_path / f"{command}.ini"
    write_config(cfg, {"experiment": {"seed": 5}, **sections})
    monkeypatch.setattr(sys, "argv", ["decilab", command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exc:
        cli.console_main()
    assert exc.value.code == want


# config text configparser cannot parse; several of its messages span two or three lines
UNPARSABLE = {
    "no_section_header": "gammas = 16 32\n",
    "unclosed_section_header": "[family\ntype = two_frequency\n",
    "key_without_value": "[family]\ngammas\n",
    "value_without_key": "[family]\n= 5\n",
    "leading_continuation_line": "[family]\n  continued\n",
    "duplicate_section": "[family]\ntype = two_frequency\n[family]\n",
    "duplicate_key": "[family]\ntype = two_frequency\ntype = bspline_ma\n",
}


@pytest.mark.parametrize("case", sorted(UNPARSABLE))
def test_unparsable_config_exits_2_on_one_line(tmp_path, capsys, case):
    cfg = tmp_path / "gamma.ini"
    cfg.write_text(UNPARSABLE[case], encoding="utf-8")
    assert main(["gamma", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("decilab: config error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_percent_in_out_is_literal(tmp_path, via):
    out = tmp_path / "res%1" / "%(x)s"
    cfg = tmp_path / "gamma.ini"
    write_config(cfg, {"experiment": {"seed": 5, **({"out": out} if via == "config" else {})}, **CONFIGS["gamma"]})
    assert main(["gamma", "--config", str(cfg), *(["--out", str(out)] if via == "flag" else [])]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gamma.ini", "res%1"]
    assert [p.name for p in out.iterdir()] == ["gamma_matrix.csv"]


@pytest.mark.parametrize("marked", ["config", "series", "kernel"])
def test_byte_order_mark_changes_no_output(tmp_path, marked):
    # a file that starts with a UTF-8 BOM reads as the file without it; a series with no header keeps its first value
    write_kernel(tmp_path)
    (tmp_path / "bare.txt").write_text("".join(f"{math.sin(0.7 * u):.17g}\n" for u in range(64)), encoding="utf-8")
    command, sections = ("simulate", with_family(FILES)) if marked == "kernel" else (
        "specdens", {"specdens": {"window_order": 4, "gammas": 16, "input": "bare.txt"}})
    cfg = tmp_path / f"{command}.ini"
    write_config(cfg, {"experiment": {"seed": 5}, **sections})
    path = {"config": cfg, "series": tmp_path / "bare.txt", "kernel": tmp_path / KERNEL}[marked]
    outputs = []
    for tag in ("plain", "bom"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / tag)]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted((tmp_path / tag).iterdir())})
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert outputs[0] and outputs[0] == outputs[1]
    if command == "specdens":
        assert b"\nn = 64\n" in outputs[1]["specdens_report.txt"]


def test_one_command_table():
    # the subcommands are the keys of _COMMANDS; each reads [experiment] and only sections of the schema
    sub = next(a for a in cli._argument_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli._COMMANDS)
    for command, (handler, sections) in cli._COMMANDS.items():
        assert handler.__name__ == "_cmd_" + command.replace("-", "_")
        assert "experiment" in sections and sections <= cli._SCHEMA.keys(), command


@pytest.mark.parametrize("sub", ["", "sub"], ids=["out_is_a_file", "out_under_a_file"])
def test_output_path_that_cannot_be_made_exits_2(tmp_path, capsys, sub):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n", encoding="utf-8")
    cfg = tmp_path / "gamma.ini"
    write_config(cfg, CONFIGS["gamma"])
    assert main(["gamma", "--config", str(cfg), "--out", str(blocker / sub)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("decilab: config error: ") and len(err.splitlines()) == 1
    assert blocker.read_text(encoding="utf-8") == "kept\n"


def test_files_family_runs(tmp_path):
    # the control for the nan_* cases above: the same family with finite values runs
    write_kernel(tmp_path)
    code, out = run(tmp_path, "simulate", with_family(FILES))
    assert code == 0 and (out / "path.csv").is_file()


def test_input_series_runs(tmp_path):
    # the control for n_with_input and non_finite_input_series: the finite series without n runs
    write_series(tmp_path)
    code, out = run(tmp_path, "specdens", {"specdens": {"window_order": 4, "gammas": 16, "input": SERIES}})
    assert code == 0 and sorted(f.name for f in out.iterdir()) == ["specdens_report.txt", "specdens_sweep.csv"]


def test_blank_lines_inside_a_series_are_skipped(tmp_path):
    # the same 64 values with two blank lines after the 30th: the same sweep, under another digest
    write_series(tmp_path)
    sweeps = []
    for name in (SERIES, GAPPED_SERIES):
        code, out = run(tmp_path, "specdens", {"specdens": {"window_order": 4, "gammas": "16 32", "input": name}},
                        tag=f"{name}.out")
        assert code == 0
        sweeps.append([line.rsplit(",", 1)[0] for line in (out / "specdens_sweep.csv").read_text().splitlines()])
    assert sweeps[0] == sweeps[1]


@pytest.mark.parametrize("header", ["nan", "inf"], ids=["nan_header_series", "inf_header_series"])
def test_line_1_that_float_reads_is_a_header(tmp_path, header):
    # line 1 is a header unless it starts with a digit, a sign or a point, also where float() reads it:
    # the same sweep as under header x, under another digest
    write_series(tmp_path)
    series = (tmp_path / SERIES).read_text(encoding="utf-8")
    (tmp_path / "header.txt").write_text(series.replace("x\n", f"{header}\n", 1), encoding="utf-8")
    sweeps = []
    for name in (SERIES, "header.txt"):
        code, out = run(tmp_path, "specdens", {"specdens": {"window_order": 4, "gammas": "16 32", "input": name}},
                        tag=f"{name}.out")
        assert code == 0
        sweeps.append([line.rsplit(",", 1)[0] for line in (out / "specdens_sweep.csv").read_text().splitlines()])
    assert sweeps[0] == sweeps[1]


def test_config_seed_is_parsed_under_seed_flag(tmp_path, capsys):
    cfg = tmp_path / "simulate.ini"
    write_config(cfg, {"experiment": {"seed": "abc"}, **with_run()})
    assert main(["simulate", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "out")]) == 2
    want = "decilab: config error: [experiment] seed = 'abc' is not an integer in (-2**64, 2**64)\n"
    assert capsys.readouterr().err == want


def test_docstring_names_the_whole_schema():
    # every section and key of the schema table, and the keys of each family type, appear in the module docstring
    blocks = dict(re.findall(r"^  \[(\w+)\] +(.*(?:\n {16}.*)*)", cli.__doc__, re.M))
    assert blocks.keys() == cli._SCHEMA.keys()

    def names(keys):
        return {key + "<j>" if key.endswith(".") else key for key in keys}

    for section, keys in cli._SCHEMA.items():
        assert names(keys) <= set(re.findall(r"[a-z_]+(?:\.<j>)?", blocks[section])), section
    for section, table in (("family", cli._FAMILY_KEYS), ("specdens", cli._SOURCE_KEYS)):
        for kind, keys in table.items():
            line = re.search(rf"^ +{kind} +(.+)$", blocks[section], re.M).group(1)
            assert set(line.split(", ")) == names(keys), kind


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.0", "1_0", "02", "+2"])
@pytest.mark.parametrize("command", ["clt", "cov-check", "sweep"])
def test_bad_thread_count_exits_2(tmp_path, capsys, monkeypatch, command, value):
    monkeypatch.setenv("DECILAB_THREADS", value)
    code, out = run(tmp_path, command, CONFIGS[command])
    assert code == 2
    assert capsys.readouterr().err == (
        f"decilab: config error: DECILAB_THREADS must be an integer >= 1, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "specdens", "gamma"])
def test_thread_count_read_only_by_replicate_commands(tmp_path, monkeypatch, command):
    monkeypatch.setenv("DECILAB_THREADS", "abc")
    assert run(tmp_path, command, CONFIGS[command])[0] == 0


def test_rademacher_sweep_same_at_one_and_two_threads(tmp_path, monkeypatch):
    # Rademacher replicates come from the noise stream in chunks: 300 at n 40 are 4 chunks at gamma 16 and 7 at
    # gamma 32, so DECILAB_THREADS=2 runs both levels on a two-thread pool
    pools = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    sections = {"family": FAMILY, "noise": {"distribution": "rademacher"}, "run": {"n": 40, "replicates": 300}}
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("DECILAB_THREADS", threads)
        code, out = run(tmp_path, "sweep", sections, tag=f"threads_{threads}")
        assert code == 0
        outputs.append((out / "sweep.csv").read_bytes())
    assert pools == [1, 1, 2, 2]
    assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == 7


def test_gaussian_sweep_at_unallocatable_n_runs(tmp_path):
    # a built-in family's Gaussian square sums are one Wishart draw of O(r**2) values a replicate, so n = 10**16,
    # which no stream draw could allocate (unallocatable_n_sweep), runs; every entry within 4 se of analytic_n
    code, out = run(tmp_path, "sweep", with_run(n=10 ** 16))
    assert code == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert len(rows) == 6 and all(row[1] == str(10 ** 16) for row in rows)
    for row in rows:
        empirical, analytic_n, se = float(row[4]), float(row[5]), float(row[7])
        assert se > 0.0 and abs(empirical - analytic_n) <= 4.0 * se, row


def test_module_entry_point_exit_code(tmp_path):
    cfg = tmp_path / "simulate.ini"
    write_config(cfg, with_run(level=-1))
    env_src = str(Path(decilab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "decilab", "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "out")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": env_src})
    assert proc.returncode == 2
    assert proc.stderr == "decilab: config error: level -1 is not in 0..1\n"


def test_noise_free_runs_load_no_scipy(tmp_path):
    # scipy.special loads on the first Gaussian draw or KS distance, so these runs never import scipy.
    # The config digest takes the built-in SHA-256, so gamma never maps OpenSSL (_hashlib); the noise
    # runs still do, as numpy.random imports secrets, which imports hmac and with it _hashlib.
    runs = [("gamma", CONFIGS["gamma"]),
            ("simulate", {**CONFIGS["simulate"], "noise": {"distribution": "rademacher"}}),
            ("sweep", {**CONFIGS["sweep"], "noise": {"distribution": "scaled_uniform"}})]
    argvs = []
    for command, sections in runs:
        cfg = tmp_path / f"{command}.ini"
        write_config(cfg, {"experiment": {"seed": 5}, **sections})
        argvs.append([command, "--config", str(cfg), "--out", str(tmp_path / command)])
    code = ("import sys; from decilab.cli import main; "
            f"argvs = {argvs!r}; "
            "codes = [main(argvs[0])]; gamma_openssl = '_hashlib' in sys.modules; "
            "codes += [main(argv) for argv in argvs[1:]]; "
            "print(codes, gamma_openssl, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = {**os.environ, "PYTHONPATH": str(Path(decilab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0] False []"


def test_gaussian_sweep_and_cov_check_load_no_scipy_special(tmp_path):
    # law-only replicates draw numpy's Generator, not ndtri; only clt's KS distance needs scipy.special. On a
    # built-in family they are one Wishart draw on the calling thread, so no thread pool (or logging) loads either
    argvs = []
    for command in ("sweep", "cov-check"):
        cfg = tmp_path / f"{command}.ini"
        write_config(cfg, {"experiment": {"seed": 5}, **CONFIGS[command], "noise": {"distribution": "gaussian"}})
        argvs.append([command, "--config", str(cfg), "--out", str(tmp_path / command)])
    code = ("import sys; from decilab.cli import main; "
            f"codes = [main(argv) for argv in {argvs!r}]; "
            "print(codes, [m for m in sys.modules if m.startswith('scipy.special')], "
            "[m for m in ('concurrent.futures', 'logging') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(decilab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] [] []"


def test_gaussian_specdens_loads_no_scipy_special(tmp_path):
    # a synthetic series is drawn from the law by numpy's standard_normal, not from the stream's ndtri
    argvs = []
    for synth, extra in (("white", {}), ("ar1", {"phi": 0.95})):
        cfg = tmp_path / f"{synth}.ini"
        write_config(cfg, {"experiment": {"seed": 5}, **specdens(synth=synth, **extra),
                           "noise": {"distribution": "gaussian"}})
        argvs.append(["specdens", "--config", str(cfg), "--out", str(tmp_path / synth)])
    code = ("import sys; from decilab.cli import main; "
            f"codes = [main(argv) for argv in {argvs!r}]; "
            "print(codes, [m for m in sys.modules if m.startswith('scipy.special')])")
    env = {**os.environ, "PYTHONPATH": str(Path(decilab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"


def test_gamma_loads_no_thread_pool_noise_or_scipy(tmp_path):
    # concurrent.futures (and logging with it) loads on the first replicate run, numpy.random and scipy.special
    # on the first noise draw; gamma makes neither
    cfg = tmp_path / "gamma.ini"
    write_config(cfg, {"experiment": {"seed": 5}, **CONFIGS["gamma"]})
    argv = ["gamma", "--config", str(cfg), "--out", str(tmp_path / "out")]
    code = ("import sys; from decilab.cli import main; "
            f"code = main({argv!r}); "
            "print(code, [m for m in ('concurrent.futures', 'numpy.random', 'scipy.special') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(decilab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_gamma_sweep_and_audit_load_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, 10-40 ms of every process that reached it; the limit
    # layer's Gauss-Legendre nodes and PSD check load neither numpy.polynomial nor LAPACK's eigensolver
    runs = [("gamma", CONFIGS["gamma"]), ("sweep", {**CONFIGS["sweep"], "noise": {"distribution": "scaled_uniform"}})]
    argvs = []
    for command, sections in runs:
        cfg = tmp_path / f"{command}.ini"
        write_config(cfg, {"experiment": {"seed": 5}, **sections})
        argvs.append([command, "--config", str(cfg), "--out", str(tmp_path / command)])
    code = ("import sys, numpy as np, decilab; from decilab.cli import main\n"
            "def eigvalsh(*args, **kwargs):\n"
            "    raise AssertionError('np.linalg.eigvalsh called')\n"
            "np.linalg.eigvalsh = eigvalsh\n"
            f"codes = [main(argv) for argv in {argvs!r}]\n"
            "window = decilab.make_bspline_window(4)\n"
            "fam = decilab.two_frequency_demo_family(window, [16, 32])\n"
            "decilab.check_condition_c(fam)\n"
            "decilab.gamma_limit(fam, 0, 1), decilab.limit_cross_cov(fam, 1, 1, 1)\n"
            "decilab.asymptotic_sigma2(window, 0.5)\n"
            "print(codes, 'numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(decilab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] False False"


def test_main_after_a_failed_call_matches_a_fresh_process(tmp_path):
    # the argument parser is built once per process and reused, also after a call that exits 2
    cfg = tmp_path / "simulate.ini"
    write_config(cfg, {"experiment": {"seed": 5}, **CONFIGS["simulate"]})
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--seed"])
    assert exc.value.code == 2
    assert main(["simulate", "--config", str(cfg), "--seed", "abc"]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.ini")]) == 2
    assert main(["simulate", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "again")]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(decilab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "decilab", "simulate", "--config", str(cfg), "--seed", "7",
                           "--out", str(tmp_path / "fresh")], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    fresh = (tmp_path / "fresh" / "path.csv").read_bytes()
    assert (tmp_path / "again" / "path.csv").read_bytes() == fresh
    assert b"seed=7," in fresh


def test_specdens_on_a_long_ar1_kernel_finishes(tmp_path):
    # phi = 0.999999 gives 34 192 186 taps against 4096 outputs; n*L multiply-adds took minutes
    cfg = tmp_path / "specdens.ini"
    write_config(cfg, {"experiment": {"seed": 5},
                       "specdens": {"window_order": 4, "gammas": "16 64", "synth": "ar1", "phi": 0.999999, "n": 4096}})
    env = {**os.environ, "PYTHONPATH": str(Path(decilab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "decilab", "specdens", "--config", str(cfg),
                           "--out", str(tmp_path / "out")], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "out" / "specdens_sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 3 and all(math.isfinite(float(row.split(",")[1])) for row in rows[1:])


# sha256 of every output file of CONFIGS at seed 5 with one BLAS thread, as the benchmark runs
# the CLI; a refactor that leaves the arithmetic alone leaves these alone
OUTPUT_SHA256 = {
    "simulate/path.csv": "8f3746faa535fe9aea8fa9b2f8be98bde4bab7a9d1b7be1d903e94a4440af6bc",
    "clt/normality.txt": "7fc2eda7d889db8a9e04fab519b5e6442c06609ab94b737f18d179c9124124dd",
    "clt/replicates.csv": "e6e7cf1e4fc39a17ae41d2e23d70a9728750de98b333076d4650000ff7992824",
    "cov-check/cov_check.csv": "281d2720852c468d19d1ba3b7016a1e05871f9018afa40fe9d4c879afbacec8c",
    "sweep/sweep.csv": "c99d9d0511e0186f48745bb3bcddb9b8f972b92466bcb69e7aa92ca3e6461ab3",
    "specdens/specdens_report.txt": "7d304b508e55993f8d6f6ad96064add4e07667978cc0f10d8fbf26940df6c408",
    "specdens/specdens_sweep.csv": "f3d84921ae50f97454f230570a68c35721448422cb09e61fc52322409e15b39e",
    "gamma/gamma_matrix.csv": "dc034d3a889965678fe02d14aee28c581f23d9af0430e2f19e2087029a3c15e1",
}


def test_outputs_match_pinned_hashes(tmp_path):
    argvs = []
    for command, sections in CONFIGS.items():
        cfg = tmp_path / f"{command}.ini"
        write_config(cfg, {"experiment": {"seed": 5}, **sections})
        argvs.append([command, "--config", str(cfg), "--out", str(tmp_path / command)])
    # a child process, as OPENBLAS_NUM_THREADS only acts before numpy loads
    code = f"import sys; from decilab.cli import main; sys.exit(max(main(argv) for argv in {argvs!r}))"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(Path(decilab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    hashes = {f"{command}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
              for command in CONFIGS for f in sorted((tmp_path / command).iterdir())}
    assert hashes == OUTPUT_SHA256


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_rerun_is_byte_identical(tmp_path, command):
    outputs = []
    for tag in ("a", "b"):
        code, out = run(tmp_path, command, CONFIGS[command], tag)
        assert code == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    return {command: run(tmp_path, command, sections, command)[1] for command, sections in CONFIGS.items()}


@pytest.mark.parametrize("command,name", sorted(CSV_HEADERS))
def test_csv_header_and_digest_column(outputs, command, name):
    lines = (outputs[command] / name).read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADERS[command, name]
    digests = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert len(lines) > 1 and len(digests) == 1
    assert re.fullmatch("[0-9a-f]{12}", digests.pop())


def test_specdens_report_is_the_last_rung_of_its_sweep(outputs):
    report = dict(line.split(" = ") for line in
                  (outputs["specdens"] / "specdens_report.txt").read_text(encoding="utf-8").splitlines())
    last = (outputs["specdens"] / "specdens_sweep.csv").read_text(encoding="utf-8").splitlines()[-1].split(",")
    assert [report[key] for key in ("gamma", "f0_hat", "se", "rate_value", "digest")] == last
    assert last[0] == "64"


def test_path_csv_carries_digest_in_comment_line(outputs):
    lines = (outputs["simulate"] / "path.csv").read_text(encoding="utf-8").splitlines()
    assert re.fullmatch(r"# level=1,gamma=32,seed=5,digest=[0-9a-f]{12}", lines[0])
    assert lines[1] == "k,Z_1,Z_2"
    assert len(lines) == 2 + RUN["n"]
    assert lines[2].startswith("0,") and lines[2].count(",") == 2


def test_reports_lead_with_digest(outputs):
    for path in (outputs["clt"] / "normality.txt", outputs["specdens"] / "specdens_report.txt"):
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert re.fullmatch("digest = [0-9a-f]{12}", first)


@pytest.mark.parametrize("command,sections", [*sorted(CONFIGS.items()),
                                              ("simulate", with_family(FILES, **{"kernels.1": "kernël α.txt"})),
                                              ("simulate", with_family(FILES, **{"kernels.1": "k%1 %(x)s.txt"}))],
                         ids=[*sorted(CONFIGS), "non_ascii_kernel_path", "percent_kernel_path"])
def test_config_digest_matches_stdlib_sha256(tmp_path, command, sections):
    # the digest takes the interpreter's built-in SHA-256; it must stay hashlib's, over the UTF-8 text
    cfg = tmp_path / f"{command}.ini"
    write_config(cfg, {"experiment": {"seed": 5}, **sections})
    parser, parsed = cli._parse_config_file(cfg)
    lines = [f"{k}={v}" for k, v in cli._effective_items(parser, parsed, command, 5, tmp_path)]
    written = {f"{section}.{key}={value}" for section, items in sections.items() for key, value in items.items()}
    assert written <= set(lines)  # every value is digested as written
    text = "\n".join(lines)
    assert cli.config_digest(parser, parsed, command, 5, tmp_path) == hashlib.sha256(text.encode()).hexdigest()[:12]


@pytest.mark.parametrize("command,sections,name,edited", [
    ("simulate", with_family(FILES), KERNEL, "-1\n0.5\n1.0\n0.25\n"),
    ("specdens", {"specdens": {"window_order": 4, "gammas": 16, "input": SERIES}}, SERIES,
     "\n".join(["x", *(f"{0.5 * u}" for u in range(64))]) + "\n"),
], ids=["kernel", "series"])
def test_digest_covers_the_bytes_of_the_files_a_run_reads(tmp_path, command, sections, name, edited):
    write_kernel(tmp_path)
    write_series(tmp_path)

    def digest(tag):
        code, out = run(tmp_path, command, sections, tag)
        assert code == 0
        first_line = sorted(out.iterdir())[0].read_text(encoding="utf-8").splitlines()[0]
        return re.search("[0-9a-f]{12}", first_line).group()

    before = digest("a")
    assert digest("b") == before  # an unchanged rerun
    (tmp_path / name).write_text(edited, encoding="utf-8")
    assert digest("c") != before
