import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import decilab
from decilab.cli import main

FAMILY = {"type": "two_frequency", "order": 4, "gammas": "16 32"}
SCALED = {"type": "bspline_ma", "order": 4, "gammas": "16 32"}
KERNEL = "kernel.txt"  # written next to every test config by write_kernel
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
    ("gamma", "gamma_truncation.csv"): "entry_i,entry_ip,truncation_bound,digest",
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


def with_run(**changes):
    return {"family": FAMILY, "run": {**RUN, **changes}}


def with_family(base=FAMILY, **changes):
    return {"family": {**base, **changes}, "run": RUN}


def specdens(**changes):
    return {"specdens": {"window_order": 4, "gamma": 16, "synth": "white", "n": 4096, **changes}}


REJECTED = {
    "too_few_replicates": ("clt", with_run(replicates=50)),
    "zero_n": ("simulate", with_run(n=0)),
    "zero_n_clt": ("clt", with_run(n=0)),
    "zero_n_cov_check": ("cov-check", with_run(n=0)),
    "zero_n_sweep": ("sweep", with_run(n=0)),
    "empty_levels": ("sweep", with_run(levels="")),
    "level_past_end": ("simulate", with_run(level=5)),
    "negative_level": ("simulate", with_run(level=-1)),
    "levels_past_end": ("sweep", with_run(levels="0 7")),
    "unknown_centering": ("cov-check", with_run(centering="foo")),
    "odd_specdens_gamma": ("specdens", specdens(gamma=15)),
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
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_bad_config_exits_2_without_traceback(tmp_path, capsys, case):
    command, sections = REJECTED[case]
    write_kernel(tmp_path)
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


def test_files_family_runs(tmp_path):
    # the control for the nan_* cases above: the same family with finite values runs
    write_kernel(tmp_path)
    code, out = run(tmp_path, "simulate", with_family(FILES))
    assert code == 0 and (out / "path.csv").is_file()


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
@pytest.mark.parametrize("command", ["clt", "cov-check", "sweep"])
def test_bad_thread_count_exits_2(tmp_path, capsys, monkeypatch, command, value):
    monkeypatch.setenv("DECILAB_THREADS", value)
    code, out = run(tmp_path, command, CONFIGS[command])
    assert code == 2
    assert capsys.readouterr().err == (
        f"decilab: config error: DECILAB_THREADS must be an integer >= 1, got {value!r}\n")
    assert not out.exists()


def test_module_entry_point_exit_code(tmp_path):
    cfg = tmp_path / "simulate.ini"
    write_config(cfg, with_run(level=-1))
    env_src = str(Path(decilab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "decilab", "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "out")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": env_src})
    assert proc.returncode == 2
    assert proc.stderr == "decilab: config error: [run] level -1 is not in 0..1\n"


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
