import importlib.util
import pathlib
import re
import sys

import numpy as np
import pytest

from hjhom import ConfigError, parse_config_text, spec_from_config
from hjhom.cli import EXIT_CONFIG, EXIT_OK, main
from hjhom.config import KNOWN_KEYS

GOOD = """
# oscillatory 1-d family
dimension = 1
potential.a0 = 2.0
potential.terms = 1.0,1
grid.dt = 0.25
grid.dx = 0.25
sweep.eps = 0.25,0.125
sweep.t = 1.0
seed = 3
"""


def test_parse_good_config():
    cfg = parse_config_text(GOOD, "good.cfg")
    assert cfg.get_int("dimension") == 1
    assert cfg.get_float("potential.a0") == 2.0
    assert cfg.get_terms("potential.terms") == [(1.0, (1,))]
    assert cfg.get_floats("sweep.eps") == [0.25, 0.125]
    assert cfg.get_str("missing", "fallback") == "fallback"


def test_parse_reports_line_numbers():
    bad = "dimension = 1\npotential.a0 : 2.0\n"
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        parse_config_text(bad, "bad.cfg")


def test_parse_rejects_duplicates():
    bad = "dimension = 1\ndimension = 2\n"
    with pytest.raises(ConfigError, match=":2"):
        parse_config_text(bad, "dup.cfg")


def test_bad_number_carries_line():
    cfg = parse_config_text("dimension = one\n", "x.cfg")
    with pytest.raises(ConfigError, match=r"x\.cfg:1"):
        cfg.get_int("dimension")


def test_bad_term_carries_line():
    cfg = parse_config_text("dimension = 1\npotential.terms = 1.0,half\n", "y.cfg")
    with pytest.raises(ConfigError, match=r"y\.cfg:2"):
        cfg.get_terms("potential.terms")


def test_spec_from_config_normalizes():
    cfg = parse_config_text("dimension = 1\npotential.a0 = 0.0\n", "z.cfg")
    spec, shift = spec_from_config(cfg)
    assert shift == -1.0
    assert spec.potential(np.array([0.1])) == pytest.approx(1.0)


def test_spec_from_config_checks_wave_vector_dim():
    cfg = parse_config_text(
        "dimension = 2\npotential.a0 = 3.0\npotential.terms = 1.0,1\n", "w.cfg")
    with pytest.raises(ConfigError, match=r"w\.cfg:3"):
        spec_from_config(cfg)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_metric_smoke(tmp_path):
    cfg = _write(tmp_path, "m.cfg", """
dimension = 1
potential.a0 = 1.0
grid.dt = 0.25
grid.dx = 0.25
grid.vmax = 3.0
metric.horizon = 2.0
""")
    out = tmp_path / "out"
    assert main(["metric", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "metric.csv").exists()
    assert (out / "metric_profile.dat").exists()


def test_cli_effective_smoke(tmp_path):
    cfg = _write(tmp_path, "e.cfg", """
dimension = 1
potential.a0 = 1.0
grid.dt = 0.25
grid.dx = 0.125
grid.vmax = 4.0
effective.v_box = 2.0
effective.v_step = 0.5
effective.n_max = 4
""")
    out = tmp_path / "out"
    assert main(["effective", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for name in ("lbar.csv", "hbar.csv", "effective_diagnostics.csv",
                 "hbar.dat", "lbar.dat"):
        assert (out / name).exists(), name


def test_cli_rate_smoke_and_determinism(tmp_path):
    cfg = _write(tmp_path, "r.cfg", """
dimension = 1
potential.a0 = 2.0
potential.terms = 1.0,1
grid.dt = 0.125
grid.dx = 0.0625
grid.vmax = 4.0
sweep.eps = 0.5,0.25
sweep.t = 1.0
targets.count = 9
effective.v_box = 3.0
effective.v_step = 0.25
effective.n_max = 4
probe.eps = 0.5
seed = 1
""")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["rate", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["rate", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "rate.csv").read_bytes() == (out2 / "rate.csv").read_bytes()
    assert (out1 / "rate.dat").read_bytes() == (out2 / "rate.dat").read_bytes()


def test_cli_config_error_exit_code(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "dimension == 1\n")
    out = tmp_path / "out"
    assert main(["metric", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG


def test_cli_missing_key_exit_code(tmp_path):
    cfg = _write(tmp_path, "nokey.cfg", "potential.a0 = 1.0\n")
    out = tmp_path / "out"
    assert main(["metric", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG


def test_cli_properties_smoke(tmp_path):
    cfg = _write(tmp_path, "p.cfg", """
dimension = 1
potential.a0 = 1.0
grid.dt = 0.25
grid.dx = 0.25
grid.vmax = 4.0
metric.horizon = 4.0
properties.sample_size = 200
oracle.p_sample = 0.0
oracle.t_long = 16.0
oracle.vmax = 4.0
effective.v_box = 2.0
effective.v_step = 0.5
effective.n_max = 4
properties.directions = 0.0; 1.0
seed = 0
""")
    out = tmp_path / "out"
    assert main(["properties", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "properties.csv").read_text().splitlines()
    assert lines[1] == "check,value,threshold,passed"
    assert all(line.endswith(",1") for line in lines[2:])


# d = 1: no surgery; an empty p_sample: no oracle, hence no gap envelope and
# no effective model
@pytest.mark.parametrize("lines, key", [
    (["oracle.p_sample =", "properties.directions = 0.0; 1.0",
      "properties.surgery_samples = 3"], "properties.directions"),
    (["properties.surgery_samples = 3"], "properties.surgery_samples"),
    (["properties.surgery_t = 2.0"], "properties.surgery_t"),
    (["oracle.p_sample =", "oracle.tol = 0.001", "effective.v_box = 9.0"], "oracle.tol"),
    (["oracle.p_sample =", "oracle.t_long = 16.0"], "oracle.t_long"),
    (["oracle.p_sample =", "oracle.vmax = 4.0"], "oracle.vmax"),
    (["oracle.p_sample =", "effective.v_box = 9.0"], "effective.v_box"),
    (["oracle.p_sample =", "effective.v_step = 0.5"], "effective.v_step"),
    (["oracle.p_sample =", "effective.n_max = 4"], "effective.n_max"),
    (["oracle.p_sample =", "effective.p_box = 2.0"], "effective.p_box"),
    (["oracle.p_sample =", "effective.p_step = 0.25"], "effective.p_step"),
    (["oracle.p_sample =", "effective.vmax = 4.0"], "effective.vmax"),
    (["oracle.p_sample =", "effective.max_denominator = 4"], "effective.max_denominator"),
])
def test_cli_properties_rejects_keys_it_would_skip(tmp_path, capsys, lines, key):
    text = "dimension = 1\npotential.a0 = 1.0\ngrid.dt = 0.25\ngrid.dx = 0.25\n"
    cfg = _write(tmp_path, "skip.cfg", text + "\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["properties", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    lineno = 5 + next(i for i, line in enumerate(lines) if line.startswith(key))
    assert f"skip.cfg:{lineno}: {key} needs" in capsys.readouterr().err
    assert not out.exists()


# the momentum grid shapes only the Hbar table that the effective command
# writes; rate and properties would drop it, with or without an oracle sample
@pytest.mark.parametrize("command, lines, key", [
    ("properties", ["effective.p_box = 2.0"], "effective.p_box"),
    ("properties", ["oracle.p_sample = 0.5", "effective.p_step = 0.25"], "effective.p_step"),
    ("rate", ["sweep.eps = 0.5", "effective.p_box = 2.0"], "effective.p_box"),
])
def test_cli_rejects_hbar_grid_outside_effective(tmp_path, capsys, command, lines, key):
    text = "dimension = 1\npotential.a0 = 1.0\ngrid.dt = 0.25\ngrid.dx = 0.25\n"
    cfg = _write(tmp_path, "hbar.cfg", text + "\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    lineno = 5 + next(i for i, line in enumerate(lines) if line.startswith(key))
    assert f"hbar.cfg:{lineno}: {key} needs the effective command" in capsys.readouterr().err
    assert not out.exists()


def test_cli_effective_hbar_grid_from_keys(tmp_path):
    cfg = _write(tmp_path, "e.cfg", """
dimension = 1
potential.a0 = 1.0
grid.dt = 0.25
grid.dx = 0.25
grid.vmax = 4.0
effective.v_box = 1.0
effective.v_step = 0.5
effective.n_max = 2
effective.p_box = 1.0
effective.p_step = 0.25
""")
    out = tmp_path / "out"
    assert main(["effective", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "hbar.csv").read_text().splitlines()
    assert rows[:2] == ["# schema=hjhom.table.v1 units=momentum-domain", "v1,value"]
    np.testing.assert_array_equal([float(r.split(",")[0]) for r in rows[2:]],
                                  np.linspace(-1.0, 1.0, 9))


def test_cli_effective_rejects_momentum_grid_without_nodes(tmp_path, capsys):
    cfg = _write(tmp_path, "e.cfg", "dimension = 1\npotential.a0 = 1.0\n"
                 "effective.p_box = 0.05\neffective.p_step = 0.25\n")
    out = tmp_path / "out"
    assert main(["effective", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "effective.p_box must be at least" in capsys.readouterr().err
    assert not out.exists()


METRIC_CFG = """
dimension = 1
potential.a0 = 1.0
grid.dt = 0.25
grid.dx = 0.25
grid.vmax = 3.0
metric.horizon = 1.0
effective.v_box = 1.0
effective.v_step = 0.5
effective.n_max = 2
"""


@pytest.mark.parametrize("command, threads", [
    ("rate", "0"), ("rate", "-2"), ("metric", "0"),
    ("effective", "2"), ("properties", "2"), ("metric", "4"),
])
def test_cli_rejects_threads_it_would_ignore(tmp_path, capsys, command, threads):
    cfg = _write(tmp_path, "t.cfg", METRIC_CFG)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--threads", threads]) == EXIT_CONFIG
    assert f"--threads {threads}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["metric", "effective"])
def test_cli_accepts_one_thread_everywhere(tmp_path, command):
    cfg = _write(tmp_path, "t.cfg", METRIC_CFG)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--threads", "1"]) == EXIT_OK


# -- the key registry -----------------------------------------------------------

ROOT = pathlib.Path(__file__).resolve().parents[1]


# a typo, and keys outside the format (H = |p|^2 - V has no family or cap)
@pytest.mark.parametrize("line", [
    "grid.dxx = 0.1", "metric.keep = integers", "cone.c1 = 8.0", "cone.c2 = 2.0",
    "metric.max_ratio = 2.0", "targets.radius = 2.0", "properties.refine = 1",
    "properties.geodesic_x = 1.0, 2.0", "family = quadratic_minus_potential",
    "momentum_cap = 50",
])
def test_cli_unknown_key_exit_code(tmp_path, capsys, line):
    cfg = _write(tmp_path, "typo.cfg", METRIC_CFG + line + "\n")
    out = tmp_path / "out"
    assert main(["metric", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    lineno = len(METRIC_CFG.splitlines()) + 1
    key = line.split(" =")[0]
    assert f"typo.cfg:{lineno}: unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def _workload_configs():
    spec = importlib.util.spec_from_file_location("_workloads", ROOT / "perfbench/workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return {name: w.config_text(0) for name, w in mod.WORKLOADS.items()}


def test_shipped_and_workload_configs_parse():
    texts = {p.name: p.read_text() for p in sorted((ROOT / "configs").glob("*.cfg"))}
    assert len(texts) == 4
    texts.update(_workload_configs())
    assert len(texts) == 8
    for name, text in texts.items():
        cfg = parse_config_text(text, name)
        spec_from_config(cfg)


def test_key_registry_matches_readme_and_getters():
    # the README key table, KNOWN_KEYS and the keys src/ reads are one set
    readme = (ROOT / "README.md").read_text()
    blocks = readme.split("## Configuration format", 1)[1].split("\n\n")
    table = next(b for b in blocks if b.startswith("| key |"))
    documented = set()
    for row in table.splitlines()[2:]:
        documented.update(re.findall(r"`([a-z0-9_.]+)`", row.split("|")[1]))
    read = set()
    for path in (ROOT / "src/hjhom").glob("*.py"):
        read.update(re.findall(r"\bget_\w+\(\s*\"([a-z0-9_.]+)\"", path.read_text()))
    assert documented == KNOWN_KEYS
    assert read == KNOWN_KEYS
