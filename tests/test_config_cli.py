import importlib.util
import pathlib
import re
import sys

import numpy as np
import pytest

from hjhom import (
    ConfigError,
    DomainError,
    ResolutionError,
    build_effective_model,
    build_lagrangian,
    compute_metric_table,
    parse_config_text,
    spec_from_config,
)
from hjhom.cli import EXIT_CONFIG, EXIT_OK, EXIT_OTHER, EXIT_PROPERTY, EXIT_RESOLUTION, main
from hjhom.config import KEYS, KNOWN_KEYS
from hjhom.surgery import path_surgery

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
    assert cfg.get("potential.terms") == [(1.0, (1,))]
    assert cfg.get_floats("sweep.eps") == [0.25, 0.125]
    assert cfg.get("u0.family", "fallback") == "fallback"


def test_parse_reports_line_numbers():
    bad = "dimension = 1\npotential.a0 : 2.0\n"
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        parse_config_text(bad, "bad.cfg")


def test_parse_rejects_duplicates():
    bad = "dimension = 1\ndimension = 2\n"
    with pytest.raises(ConfigError, match=":2"):
        parse_config_text(bad, "dup.cfg")


def test_bad_number_carries_line():
    with pytest.raises(ConfigError, match=r"x\.cfg:1"):
        parse_config_text("dimension = one\n", "x.cfg")


def test_bad_term_carries_line():
    with pytest.raises(ConfigError, match=r"y\.cfg:2"):
        parse_config_text("dimension = 1\npotential.terms = 1.0,half\n", "y.cfg")


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


@pytest.mark.parametrize("horizon, label", [
    ("2.5", "2.5"), ("3.5", "3.5"), ("0.25", "0.25"), ("4.0", "4")])
def test_cli_metric_profile_at_the_horizon(tmp_path, horizon, label):
    # the profile used to be the layer at int(round(horizon)): 2.5 wrote
    # m(2,0,z), 0.25 a one-point m(0,0,z), and 3.5 exited 2 with "layer k=16
    # not stored" and no key
    text = "".join(f"{k} = {v}\n" for k, v in METRIC_KEYS.items())
    cfg = _write(tmp_path, "m.cfg", text + f"metric.horizon = {horizon}\n")
    out = tmp_path / "out"
    assert main(["metric", "--config", cfg, "--out", str(out)]) == EXIT_OK
    head, *rows = (out / "metric_profile.dat").read_text().splitlines()
    assert head == f"# z1 m({label},0,z) profile"
    table = compute_metric_table(build_lagrangian(spec_from_config(parse_config_text(text))[0]),
                                 horizon=float(horizon), dt=0.25, dx=0.25, vmax=3.0)
    z, m = np.array([r.split() for r in rows], dtype=float).T
    assert len(z) == 2 * 3.0 * float(horizon) / 0.25 + 1
    np.testing.assert_array_equal(m, table.value_at(float(horizon), z[:, None]))


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


def test_cli_rate_denominator_above_n_max_exit_code(tmp_path, capsys):
    # v = -3.75, first of the quarter velocities of the default v_step grid,
    # needs n = 4 > n_max: a configuration error at the key, not a ray read
    # at a rounded velocity
    cfg = _write(tmp_path, "n.cfg", """
dimension = 1
potential.a0 = 2.0
potential.terms = 1.0,1
grid.dt = 0.25
grid.dx = 0.25
grid.vmax = 4.0
sweep.eps = 0.5,0.25
effective.n_max = 2
""")
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.search(r"n\.cfg:9: v_step = 0\.25 has no denominator b <= "
                     r"n_max = 2", err), err
    assert not (out / "rate.csv").exists()


def test_cli_effective_v_step_without_denominator_exit_code(tmp_path, capsys):
    # v_step = 0.3 = 3/10 needs n = 10 > the default n_max 8: an error at
    # the v_step line, not the ray of 1/3 written as Lbar(0.3)
    cfg = _write(tmp_path, "v.cfg", """
dimension = 1
potential.a0 = 2.0
potential.terms = 1.0,1
grid.dt = 0.25
grid.dx = 0.25
effective.v_box = 0.6
effective.v_step = 0.3
effective.p_step = 0.1
""")
    out = tmp_path / "out"
    assert main(["effective", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "v.cfg:8: v_step = 0.3 has no denominator b <= n_max = 8" in \
        capsys.readouterr().err
    assert not out.exists()


# library-level configuration errors exit 2 as a parse error does
@pytest.mark.parametrize("line, message", [
    ("grid.dt = 0.3", "grid.dt = '0.3' is not 1/n for an integer n >= 1"),
    ("grid.vmax = 0.5", "vmax*dt = 0.0625 < dx = 0.25"),
    ("grid.dt = 0", "grid.dt = '0' is not 1/n for an integer n >= 1"),
])
def test_cli_configuration_error_exit_code(tmp_path, capsys, line, message):
    cfg = _write(tmp_path, "c.cfg", "dimension = 1\npotential.a0 = 1.0\n"
                 "grid.dx = 0.25\n" + line + "\n")
    out = tmp_path / "out"
    assert main(["metric", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    # the set key's path:line, found before any table is built
    assert f"config error: {cfg}:4: {message}" in capsys.readouterr().err


def _no_table(monkeypatch):
    import hjhom.effective as effective
    import hjhom.harness as harness

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(harness, "compute_metric_table", no_table)
    monkeypatch.setattr(effective, "compute_metric_table", no_table)


# effective.vmax sets the speed cap of the model's own lattice: (dt, dx), or
# (dt/2, dx/2) for the rate command's reference model
@pytest.mark.parametrize("command, lines, message", [
    ("effective", [], "vmax*dt = 0.0625 < dx = 0.25"),
    ("rate", ["sweep.eps = 0.5"], "vmax*dt = 0.03125 < dx = 0.125"),
    ("properties", [], "vmax*dt = 0.0625 < dx = 0.25"),
])
def test_cli_effective_vmax_below_the_lattice_reach_exit_code(tmp_path, capsys, monkeypatch,
                                                              command, lines, message):
    cfg = _write(tmp_path, "s.cfg", "dimension = 1\npotential.a0 = 1.0\ngrid.dx = 0.25\n"
                 "effective.vmax = 0.5\n" + "".join(line + "\n" for line in lines))
    _no_table(monkeypatch)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {cfg}:4: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_effective_vmax_short_of_the_velocity_box_exit_code(tmp_path, capsys):
    # vmax dt >= dx holds, but a cap of 2 leaves the rays of |v| = 4 unreached;
    # this used to exit 1 with no key
    cfg = _write(tmp_path, "b.cfg", "dimension = 1\npotential.a0 = 1.0\ngrid.dt = 0.25\n"
                 "grid.dx = 0.25\neffective.v_box = 4.0\neffective.vmax = 2.0\n")
    out = tmp_path / "out"
    assert main(["effective", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {cfg}:6: metric is +inf on the ray of v = [-4.]" in \
        capsys.readouterr().err
    assert not out.exists()


def test_cli_oracle_vmax_below_the_lattice_reach_exit_code(tmp_path, capsys, monkeypatch):
    # with only the zero step the torus oracle would return -V(0) and the
    # suite would report a failed oracle_agreement (exit 4)
    text = _workload_configs()["properties-2d"]
    assert "oracle.vmax = 5.0\n" in text
    cfg = _write(tmp_path, "o.cfg", text.replace("oracle.vmax = 5.0", "oracle.vmax = 0.4"))
    lineno = text.splitlines().index("oracle.vmax = 5.0") + 1
    _no_table(monkeypatch)
    out = tmp_path / "out"
    assert main(["properties", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {cfg}:{lineno}: vmax*dt = 0.1 < dx = 0.125" in \
        capsys.readouterr().err
    assert not out.exists()


SURGERY_CFG = """dimension = 2
potential.a0 = 3.0
potential.terms = 1.0,1,0; 1.0,0,1
grid.dt = 0.25
grid.dx = 0.125
grid.vmax = 0.5
metric.horizon = 2.0
properties.surgery_samples = 1
properties.surgery_t = {}
oracle.p_sample =
"""


def test_cli_properties_surgery_without_an_endpoint_exit_code(tmp_path, capsys):
    # vmax = 0.5 reaches |z| <= 1 at t = 2, and no 2x with 0 < |x| <= 2 lies
    # there: the endpoint sampling used to loop forever
    cfg = _write(tmp_path, "e.cfg", SURGERY_CFG.format("1.0"))
    out = tmp_path / "out"
    assert main(["properties", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {cfg}:9: properties.surgery_t = 1.0: no integer x with " \
        "0 < |x| <= 2.0 has m(2.0, 0, 2x) finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1.5", "3.0", "0.0", "1.0,0.5"])
def test_cli_properties_surgery_t_off_the_stored_layers_exit_code(tmp_path, capsys,
                                                                 monkeypatch, value):
    # 1.5 and 3.0 at horizon 2 used to exit 2 with "layer k=12 not stored"
    # and no key
    cfg = _write(tmp_path, "t.cfg", SURGERY_CFG.format(value))
    _no_table(monkeypatch)
    out = tmp_path / "out"
    assert main(["properties", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {cfg}:9: properties.surgery_t = " in capsys.readouterr().err
    assert not out.exists()


def test_cli_properties_surgery_t_not_an_integer_exit_code(tmp_path, capsys):
    # 7.5 is out of range whether or not surgery samples are set
    cfg = _write(tmp_path, "n.cfg", SURGERY_CFG.format("7.5").replace(
        "properties.surgery_samples = 1\n", ""))
    out = tmp_path / "out"
    assert main(["properties", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {cfg}:8: properties.surgery_t = '7.5' is not a comma list of " \
        "integers >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_properties_surgery_t_without_samples_exit_code(tmp_path, capsys, monkeypatch):
    # surgery_t with no surgery samples used to be skipped with exit 0
    cfg = _write(tmp_path, "n.cfg", SURGERY_CFG.format("1.0").replace(
        "properties.surgery_samples = 1\n", ""))
    _no_table(monkeypatch)
    out = tmp_path / "out"
    assert main(["properties", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {cfg}:8: properties.surgery_t needs properties.surgery_samples " \
        ">= 1" in capsys.readouterr().err
    assert not out.exists()


LEMMA_CFG = """dimension = 2
potential.a0 = 3.0
potential.terms = 1.0,1,0; 1.0,0,1
grid.dt = 0.25
grid.dx = 0.25
grid.vmax = 4.0
metric.horizon = 4.0
properties.sample_size = 100
properties.surgery_samples = 3
properties.surgery_t = 1.0,2.0
oracle.p_sample =
seed = {}
"""


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cli_properties_lemma_gap_gate_reads_every_endpoint(tmp_path, capsys, monkeypatch,
                                                            seed):
    # m(2, 0, x) raised by 1 at the endpoint x = (1, 0) of t = 2 raises
    # its lemma gap 2 m(2, 0, x) - m(4, 0, 2x) by 2: the non-growth gate
    # fails whichever three endpoints the seed draws for surgery
    import hjhom.harness as harness

    def raised(*args, **kwargs):
        table = compute_metric_table(*args, **kwargs)
        layer, reach = table.layer(2.0)
        layer[reach + 4, reach] += 1.0
        return table

    monkeypatch.setattr(harness, "compute_metric_table", raised)
    cfg = _write(tmp_path, "l.cfg", LEMMA_CFG.format(seed))
    out = tmp_path / "out"
    assert main(["properties", "--config", cfg, "--out", str(out)]) == EXIT_PROPERTY
    assert "lemma_gap_max" in capsys.readouterr().err.split("property checks failed: ")[1]
    rows = {r.split(",")[0]: r.split(",")[1:]
            for r in (out / "properties.csv").read_text().splitlines()[2:]}
    assert float(rows["lemma_gap_max"][0]) > 2.0 and rows["lemma_gap_max"][2] == "0"


def test_cli_properties_lemma_gap_gate_at_the_tightest_pair_of_times(tmp_path, capsys,
                                                                    monkeypatch):
    # gaps raised to 2 at t = 1 and t = 3 around 1 at t = 2: the gap at t = 3
    # is within the bound 1.25 * 2 + 0.05 of t = 1, but not within the bound
    # 1.25 * 1 + 0.05 of its predecessor t = 2; that pair is written and fails
    import hjhom.harness as harness

    def raised(*args, **kwargs):
        table = compute_metric_table(*args, **kwargs)
        for t in (1.0, 3.0):
            layer, reach = table.layer(t)
            layer[reach + 4, reach] += 0.5      # x = (1, 0): its gap 1 -> 2
        return table

    monkeypatch.setattr(harness, "compute_metric_table", raised)
    cfg = _write(tmp_path, "l.cfg", LEMMA_CFG.format(0).replace(
        "metric.horizon = 4.0", "metric.horizon = 6.0").replace(
        "properties.surgery_t = 1.0,2.0", "properties.surgery_t = 1.0,2.0,3.0"))
    out = tmp_path / "out"
    assert main(["properties", "--config", cfg, "--out", str(out)]) == EXIT_PROPERTY
    assert "lemma_gap_max" in capsys.readouterr().err.split("property checks failed: ")[1]
    rows = {r.split(",")[0]: r.split(",")[1:]
            for r in (out / "properties.csv").read_text().splitlines()[2:]}
    assert rows["lemma_gap_max"] == ["2.0", "1.3", "0"]


def test_cli_rate_probe_eps_outside_the_sweep_exit_code(tmp_path, capsys, monkeypatch):
    # the probe compares the sweep's own solution at probe.eps with a finer one
    cfg = _write(tmp_path, "r.cfg", "dimension = 1\npotential.a0 = 1.0\n"
                 "sweep.eps = 0.5,0.25\nprobe.eps = 0.125\n")
    _no_table(monkeypatch)
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {cfg}:4: probe.eps = 0.125 is not one of sweep.eps" in \
        capsys.readouterr().err
    assert not out.exists()


# the up-front check that every target is a lattice node y/eps at every eps:
# the sweep used to build the main table and the reference model, then fail
# in the solver with no key
@pytest.mark.parametrize("lines, lineno, message", [
    (["targets.count = 10", "sweep.eps = 0.25,0.125"], 6,
     "target y = [-1.55555556]: y/(eps dx) = [-99.55555556] is not an integer at eps = 0.25"),
    (["sweep.eps = 0.75"], 6, "target y = [-2.]: y/(eps dx) = [-42.66666667] is not an "
     "integer at eps = 0.75"),
])
def test_cli_rate_targets_off_the_lattice_exit_code(tmp_path, capsys, monkeypatch,
                                                    lines, lineno, message):
    cfg = _write(tmp_path, "y.cfg", "dimension = 1\npotential.a0 = 2.0\npotential.terms = "
                 "1.0,1\ngrid.dt = 0.125\ngrid.dx = 0.0625\n" + "\n".join(lines) + "\n")
    _no_table(monkeypatch)
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {cfg}:{lineno}: {message}" in capsys.readouterr().err
    assert not out.exists()


# the initial data keys are reported at their lines
@pytest.mark.parametrize("lines, lineno, message", [
    (["u0.family = affine", "u0.p = 1.0,2.0"], 6, "u0.p needs 1 components"),
    (["u0.family = bumps", "u0.bumps = 1.0,0.5"], 6, "each bump is amplitude,c1..cd,width"),
    (["u0.family = sine"], 5, "u0.family = 'sine' is not one of cone, affine, zero, bumps"),
])
def test_cli_rate_initial_data_errors_carry_their_line(tmp_path, capsys, monkeypatch,
                                                       lines, lineno, message):
    cfg = _write(tmp_path, "u.cfg", "dimension = 1\npotential.a0 = 1.0\n"
                 "sweep.eps = 0.5\ngrid.dx = 0.25\n" + "\n".join(lines) + "\n")
    _no_table(monkeypatch)
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {cfg}:{lineno}: {message}" in capsys.readouterr().err
    assert not out.exists()


# one changed key each, on configs that otherwise pass every check: each
# exits 2 at that key's line before any table is built.  Before the key
# registry these crashed with a traceback, failed after every table, exited 2
# or 4 naming no key, or exited 0 on a grid other than the one asked for
RATE_KEYS = {"dimension": "1", "potential.a0": "2.0", "potential.terms": "1.0,1",
             "grid.dt": "0.125", "grid.dx": "0.0625", "grid.vmax": "4.0",
             "sweep.eps": "0.5,0.25"}
EFFECTIVE_KEYS = {"dimension": "1", "potential.a0": "1.0", "grid.dt": "0.25",
                  "grid.dx": "0.25", "grid.vmax": "4.0", "effective.v_box": "1.0",
                  "effective.v_step": "0.5", "effective.n_max": "2"}
METRIC_KEYS = {"dimension": "1", "potential.a0": "1.0", "grid.dt": "0.25",
               "grid.dx": "0.25", "grid.vmax": "3.0"}
PROPERTIES_KEYS = {"dimension": "2", "potential.a0": "3.0",
                   "potential.terms": "1.0,1,0; 1.0,0,1", "grid.dt": "0.25",
                   "grid.dx": "0.25", "grid.vmax": "4.0", "metric.horizon": "4.0",
                   "properties.sample_size": "100", "properties.surgery_samples": "3",
                   "properties.surgery_t": "1.0,2.0", "oracle.p_sample": "0.0,0.0"}


@pytest.mark.parametrize("command, keys, line", [
    # the registry: a value outside its key's range
    ("rate", RATE_KEYS, "sweep.t = 0"),
    ("rate", RATE_KEYS, "sweep.t = -1"),
    ("rate", RATE_KEYS, "sweep.eps = 2.0,1.0"),
    ("rate", RATE_KEYS, "sweep.eps = 0.5,-0.25"),
    ("rate", RATE_KEYS, "targets.count = 0"),
    ("rate", RATE_KEYS, "targets.count = -3"),
    ("effective", EFFECTIVE_KEYS, "effective.p_step = 0"),
    ("effective", EFFECTIVE_KEYS, "effective.v_step = 0"),
    ("effective", EFFECTIVE_KEYS, "effective.v_step = -0.25"),
    ("properties", PROPERTIES_KEYS, "seed = -1"),
    ("properties", PROPERTIES_KEYS, "properties.surgery_samples = -3"),
    ("properties", PROPERTIES_KEYS, "properties.sample_size = 0"),
    ("properties", PROPERTIES_KEYS, "oracle.tol = -1"),
    # checks that relate two keys
    ("rate", RATE_KEYS, "sweep.t = 1.25"),
    ("rate", RATE_KEYS, "sweep.eps = 0.5"),
    ("metric", METRIC_KEYS, "metric.horizon = 4.1"),
    ("properties", PROPERTIES_KEYS, "metric.horizon = 4.1"),
    ("properties", PROPERTIES_KEYS, "oracle.t_long = 0.5"),
    ("effective", {**EFFECTIVE_KEYS, "effective.p_step": "0.3"}, "effective.p_box = 1.0"),
    ("effective", EFFECTIVE_KEYS, "effective.v_box = 3.1"),
    # vectors checked against the dimension, the lattice and the Lbar grid
    # (default v_step 0.5 in [-2.5, 2.5]): a short p used to exit 1 after the
    # DP, an off-lattice direction exit 2 with no key, and a direction
    # between Lbar nodes was read by interpolation
    ("properties", PROPERTIES_KEYS, "oracle.p_sample = 0.5"),
    ("properties", PROPERTIES_KEYS, "properties.directions = 1.0"),
    ("properties", PROPERTIES_KEYS, "properties.directions = 1.0,0.0; 0.3,0.0"),
    ("properties", PROPERTIES_KEYS, "properties.directions = 0.25,0.0"),
    ("properties", PROPERTIES_KEYS, "properties.directions = 0.0,3.0"),
    # an empty item in a list value: these used to be dropped silently
    ("rate", RATE_KEYS, "sweep.eps = 0.25,,0.125,"),
    ("rate", RATE_KEYS, "sweep.eps = 0.5,0.25,"),
    ("properties", PROPERTIES_KEYS, "oracle.p_sample = 0,0;;0.5,0"),
    ("properties", PROPERTIES_KEYS, "potential.terms = 1.0,1,0; 1.0,0,1;"),
    ("properties", PROPERTIES_KEYS, "properties.directions = 1.0,0.0;"),
    # a repeated value in a list: the sweep used to drop it silently, and the
    # surgery suite to write duplicate rows and no lemma_gap_max row
    ("rate", RATE_KEYS, "sweep.eps = 0.5,0.5,0.25"),
    ("properties", PROPERTIES_KEYS, "properties.surgery_t = 2.0,2.0"),
    # a u0 key of another family, and bumps without a bump: these used to be
    # dropped silently, and bumps swept zero initial data
    ("rate", {**RATE_KEYS, "u0.family": "affine", "u0.p": "0.5"}, "u0.scale = 7.0"),
    ("rate", {**RATE_KEYS, "u0.family": "affine", "u0.p": "0.5"}, "u0.bumps = 1.0,0.0,0.5"),
    ("rate", RATE_KEYS, "u0.p = 0.5"),
    ("rate", {**RATE_KEYS, "u0.family": "zero"}, "u0.scale = 1.0"),
    ("rate", RATE_KEYS, "u0.family = bumps"),
    ("rate", {**RATE_KEYS, "u0.family": "bumps"}, "u0.bumps = "),
    # subadditivity needs two reached integer times whose sum is at most the
    # last: these used to build the table and exit 1
    ("properties", PROPERTIES_KEYS, "metric.horizon = 0.5"),
    ("properties", PROPERTIES_KEYS, "metric.horizon = 1.5"),
])
def test_cli_bad_value_exits_at_its_line_before_any_table(tmp_path, capsys, monkeypatch,
                                                          command, keys, line):
    key, value = line.split(" = ")
    entries = {k: v for k, v in keys.items() if k != key}
    entries[key] = value                     # the changed key is the last line
    cfg = _write(tmp_path, "k.cfg", "".join(f"{k} = {v}\n" for k, v in entries.items()))
    _no_table(monkeypatch)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {cfg}:{len(entries)}: " in err, err
    assert key in err
    assert not out.exists()


# these read their message, so `pytest -rP` prints only the ACCEPTANCE lines
def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "dimension == 1\n")
    out = tmp_path / "out"
    assert main(["metric", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {cfg}:1: dimension = '= 1'" in capsys.readouterr().err


def test_cli_unreadable_config_exit_code(tmp_path, capsys):
    cfg = str(tmp_path / "missing.cfg")
    out = tmp_path / "out"
    assert main(["metric", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: cannot read config {cfg}: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_other_library_error_exit_code(tmp_path, capsys, monkeypatch):
    # an HJHomError that is neither a configuration nor a resolution error
    import hjhom.cli as cli

    def fails(*args, **kwargs):
        raise DomainError("no reached ray samples")

    monkeypatch.setattr(cli, "run_metric", fails)
    cfg = _write(tmp_path, "m.cfg", "dimension = 1\npotential.a0 = 1.0\n")
    assert main(["metric", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OTHER
    assert capsys.readouterr().err == "error: no reached ray samples\n"


def test_cli_rate_resolution_error_exit_code(tmp_path, capsys):
    # at dt = dx = 1/2 the mesh-halving probe's discretization error is
    # above half the smallest homogenization error: no rate is fitted
    cfg = _write(tmp_path, "r.cfg", """dimension = 1
potential.a0 = 2.0
potential.terms = 1.0,1
grid.dt = 0.5
grid.dx = 0.5
grid.vmax = 4.0
sweep.eps = 0.5,0.25
targets.count = 5
effective.v_box = 3.0
effective.v_step = 0.5
effective.n_max = 4
""")
    out = tmp_path / "out"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == EXIT_RESOLUTION
    assert re.match(r"resolution error: discretization error 0\.97\d* exceeds half the "
                    r"smallest homogenization error 1\b", capsys.readouterr().err)
    assert not (out / "rate.csv").exists()


def test_cli_properties_failed_surgery_counts_against_the_success_rate(tmp_path, capsys,
                                                                       monkeypatch):
    # every second surgery raises ResolutionError: its sample is skipped, and
    # the success rate reads the 3 of 6 samples that passed
    import hjhom.harness as harness
    calls = []

    def every_second(gamma, table):
        calls.append(gamma)
        if len(calls) % 2 == 0:
            raise ResolutionError("no cyclic shift closes the path")
        return path_surgery(gamma, table)

    monkeypatch.setattr(harness, "path_surgery", every_second)
    cfg = _write(tmp_path, "s.cfg", LEMMA_CFG.format(0))
    out = tmp_path / "out"
    assert main(["properties", "--config", cfg, "--out", str(out)]) == EXIT_PROPERTY
    assert capsys.readouterr().err == "property checks failed: surgery_success_rate\n"
    rows = {r.split(",")[0]: r.split(",")[1:]
            for r in (out / "properties.csv").read_text().splitlines()[2:]}
    assert len(calls) == 6
    assert rows["surgery_success_rate"] == ["0.5", "0.95", "0"]
    assert len((out / "surgery.csv").read_text().splitlines()) == 3 + 2


def test_cli_missing_key_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "nokey.cfg", "potential.a0 = 1.0\n")
    out = tmp_path / "out"
    assert main(["metric", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "missing required key 'dimension'" in capsys.readouterr().err


PROPERTIES_CFG = """
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
"""


def test_cli_properties_smoke(tmp_path):
    cfg = _write(tmp_path, "p.cfg", PROPERTIES_CFG)
    out = tmp_path / "out"
    assert main(["properties", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "properties.csv").read_text().splitlines()
    assert lines[1] == "check,value,threshold,passed"
    assert all(line.endswith(",1") for line in lines[2:])


def test_cli_properties_at_a_half_integer_horizon(tmp_path):
    # every multiple of grid.dt is a horizon; at 3.5 the subadditivity pairs
    # used to run to the layer int(round(3.5)) = 4, past the table, and the
    # command exited 2 with "layer k=16 not stored"
    text = _workload_configs()["properties-2d"]
    for old, new in [("metric.horizon = 4.0", "metric.horizon = 3.5"),
                     ("properties.surgery_t = 1.0,2.0", "properties.surgery_t = 1.0")]:
        assert old + "\n" in text
        text = text.replace(old, new)
    cfg = _write(tmp_path, "h.cfg", text)
    out = tmp_path / "out"
    assert main(["properties", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = [r.split(",")[0] for r in (out / "properties.csv").read_text().splitlines()[2:]]
    assert rows == ["subadditivity_max_violation", "oracle_agreement", "gap_min",
                    "surgery_success_rate"]


def test_cli_properties_subadditivity_gate_catches_lowered_layers(tmp_path, capsys,
                                                                  monkeypatch):
    # lowering every layer k >= 1 by 1e-6 breaks f(z + w) <= f(z) + f(w) by
    # 1e-6: far below a discretization bound, far above roundoff
    import hjhom.harness as harness

    def lowered(*args, **kwargs):
        table = compute_metric_table(*args, **kwargs)
        for layer in table.layers[1:]:
            layer -= 1e-6
        return table

    monkeypatch.setattr(harness, "compute_metric_table", lowered)
    cfg = _write(tmp_path, "p.cfg", PROPERTIES_CFG)
    out = tmp_path / "out"
    assert main(["properties", "--config", cfg, "--out", str(out)]) == EXIT_PROPERTY
    assert "property checks failed: subadditivity_max_violation\n" in capsys.readouterr().err
    rows = {r.split(",")[0]: r.split(",")[1:]
            for r in (out / "properties.csv").read_text().splitlines()[2:]}
    value, threshold, passed = rows["subadditivity_max_violation"]
    assert float(value) == pytest.approx(1e-6, abs=1e-12)
    assert (threshold, passed) == ("1e-09", "0")


def test_cli_properties_raised_lbar_fails_oracle_and_gap(tmp_path, capsys, monkeypatch):
    # Lbar raised by 0.1 lowers Hbar by 0.1 at every p and f(s, s e) - s Lbar(e)
    # by 0.1 s: the two checks that read the rays must both fail
    import hjhom.harness as harness

    def raised(*args, **kwargs):
        model = build_effective_model(*args, **kwargs)
        model.lagrangian_table.values += 0.1
        return model

    monkeypatch.setattr(harness, "build_effective_model", raised)
    cfg = _write(tmp_path, "p.cfg", PROPERTIES_CFG)
    out = tmp_path / "out"
    assert main(["properties", "--config", cfg, "--out", str(out)]) == EXIT_PROPERTY
    assert "property checks failed: oracle_agreement, gap_min\n" in capsys.readouterr().err
    rows = {r.split(",")[0]: r.split(",")[1:]
            for r in (out / "properties.csv").read_text().splitlines()[2:]}
    assert float(rows["oracle_agreement"][0]) > 0.05 and rows["oracle_agreement"][2] == "0"
    assert float(rows["gap_min"][0]) < -0.06 and rows["gap_min"][2] == "0"


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


def test_cli_effective_default_hbar_grid_rounds_up_to_p_step(tmp_path):
    # v_box / 2 + 1 = 1.3 is no multiple of the default p_step 0.125: the
    # default box is 1.375, where it used to exit 2 at effective.v_box
    cfg = _write(tmp_path, "e.cfg", """
dimension = 1
potential.a0 = 2.0
potential.terms = 1.0,1
grid.dt = 0.25
grid.dx = 0.25
effective.v_box = 0.6
effective.v_step = 0.2
""")
    out = tmp_path / "out"
    assert main(["effective", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "hbar.csv").read_text().splitlines()[2:]
    np.testing.assert_array_equal([float(r.split(",")[0]) for r in rows],
                                  np.linspace(-1.375, 1.375, 23))


def test_cli_effective_rejects_momentum_grid_without_nodes(tmp_path, capsys):
    cfg = _write(tmp_path, "e.cfg", "dimension = 1\npotential.a0 = 1.0\n"
                 "effective.p_box = 0.05\neffective.p_step = 0.25\n")
    out = tmp_path / "out"
    assert main(["effective", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {cfg}:3: effective.p_box / effective.p_step = 0.05 / 0.25 = 0.2 " \
        "is not a whole number >= 1" in capsys.readouterr().err
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


RATE_1D_CFG = (pathlib.Path(__file__).resolve().parents[1] / "configs/rate_1d.cfg").read_text()


@pytest.mark.parametrize("command, threads, text, message", [
    pytest.param(command, threads, METRIC_CFG, f"--threads {threads}", id=f"{command}-{threads}")
    for command, threads in [("rate", "0"), ("rate", "-2"), ("metric", "0"),
                             ("effective", "2"), ("properties", "2"), ("metric", "4")]
] + [
    # a d = 1 table takes one thread: the rate sweep's first build refuses two
    pytest.param("rate", "2", RATE_1D_CFG, "threads = 2", id="rate-2-rate_1d.cfg"),
])
def test_cli_rejects_threads_it_would_ignore(tmp_path, capsys, command, threads, text,
                                             message):
    cfg = _write(tmp_path, "t.cfg", text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--threads", threads]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["metric", "effective"])
def test_cli_accepts_one_thread_everywhere(tmp_path, command):
    cfg = _write(tmp_path, "t.cfg", METRIC_CFG)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--threads", "1"]) == EXIT_OK


# -- the key registry -----------------------------------------------------------

ROOT = pathlib.Path(__file__).resolve().parents[1]


# a typo, and keys outside the format (H = |p|^2 - V has no family or cap;
# a velocity's denominator bound is effective.n_max)
@pytest.mark.parametrize("line", [
    "grid.dxx = 0.1", "metric.keep = integers", "cone.c1 = 8.0", "cone.c2 = 2.0",
    "metric.max_ratio = 2.0", "targets.radius = 2.0", "properties.refine = 1",
    "properties.geodesic_x = 1.0, 2.0", "family = quadratic_minus_potential",
    "momentum_cap = 50", "effective.max_denominator = 4",
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
    # the README key table, KEYS and the keys src/ reads are one set, the
    # table lists each key once, and it states each key's range in the words
    # the registry prints
    readme = (ROOT / "README.md").read_text()
    blocks = readme.split("## Configuration format", 1)[1].split("\n\n")
    table = next(b for b in blocks if b.startswith("| key |"))
    documented = []
    for row in table.splitlines()[2:]:
        keys = re.findall(r"`([a-z0-9_.]+)`", row.split("|")[1])
        assert {KEYS[k].words for k in keys} == {row.split("|")[2].strip()}, row
        documented += keys
    read = set()
    for path in (ROOT / "src/hjhom").glob("*.py"):
        read.update(re.findall(r"\.get\(\s*\"([a-z0-9_.]+)\"", path.read_text()))
    assert KNOWN_KEYS == frozenset(KEYS)
    assert sorted(documented) == sorted(KNOWN_KEYS)
    assert read == KNOWN_KEYS


def test_readme_library_example_runs(capsys):
    # the README's library example calls the public API as it is today
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
