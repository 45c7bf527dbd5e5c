import numpy as np
import pytest

from hjhom import DomainError, fit_rate


def test_exact_power_law_recovered():
    eps = np.array([0.25, 0.125, 0.0625, 0.03125])
    report = fit_rate(eps, 3.0 * eps)
    assert report.beta == pytest.approx(1.0, abs=1e-9)
    assert report.prefactor == pytest.approx(3.0, abs=1e-9)
    assert report.residual <= 1e-12


def test_quadratic_rate():
    eps = np.array([0.5, 0.25, 0.125])
    report = fit_rate(eps, 2.0 * eps**2)
    assert report.beta == pytest.approx(2.0, abs=1e-9)


def test_drop_largest_stability():
    eps = np.array([0.25, 0.125, 0.0625, 0.03125])
    errors = 3.0 * eps.copy()
    errors[0] *= 1.5  # contaminate the largest-eps point
    report = fit_rate(eps, errors)
    assert abs(report.beta_drop_largest - 1.0) < 1e-9
    assert report.beta_drop_largest != report.beta   # the contamination shows


def test_log_model_fit_matches_synthetic():
    eps = np.array([0.25, 0.125, 0.0625, 0.03125, 0.015625])
    t = 1.0
    errors = 0.7 * eps * np.log(2.0 + t / eps)
    report = fit_rate(eps, errors, t=t)
    assert report.log_fit["residual"] <= 0.01
    assert report.log_fit["C"] == pytest.approx(0.7, rel=0.1)


def test_invalid_inputs_rejected():
    with pytest.raises(DomainError):
        fit_rate([0.25], [0.1])
    with pytest.raises(DomainError):
        fit_rate([0.125, 0.25], [0.1, 0.2])  # increasing eps
    with pytest.raises(DomainError):
        fit_rate([0.25, 0.125], [0.1, 0.0])  # nonpositive error


@pytest.mark.parametrize("eps, errors, message", [
    ([0.5, 0.25], [np.nan, 0.1], "finite"),
    ([0.5, 0.25], [0.2, np.inf], "finite"),
    ([np.nan, 0.25], [0.2, 0.1], "finite"),
    ([0.5, -np.inf], [0.2, 0.1], "finite"),
    ([0.5, 0.0], [0.2, 0.1], "positive"),
])
def test_non_finite_or_nonpositive_inputs_rejected(eps, errors, message):
    # a nan error used to fit beta = nan silently, and a nan eps to raise
    # LinAlgError from LAPACK
    with pytest.raises(DomainError, match=message):
        fit_rate(eps, errors)


def test_csv_and_plot_data(tmp_path):
    report = fit_rate([0.25, 0.125], [0.3, 0.15])
    csv = tmp_path / "rate.csv"
    dat = tmp_path / "rate.dat"
    report.to_csv(csv)
    report.to_plot_data(dat)
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# schema=hjhom.rate.v1")
    assert lines[1] == "eps,sup_error"
    assert len(lines) == 4
    assert "probe" not in lines[0]
    # a sweep's probe ends the header line, where perfbench's rate check reads it
    report.probe_eps, report.probe_error = 0.125, 0.0625
    report.to_csv(csv)
    assert csv.read_text().splitlines()[0] == lines[0] + " probe_eps=0.125 probe_error=0.0625"
    dat_lines = dat.read_text().splitlines()
    assert len(dat_lines) == 3
    assert len(dat_lines[1].split()) == 2

