import math

import numpy as np

from cwspheres import checks
from cwspheres.cli import main
from cwspheres.matrixcore import RngStream, haar_unitary


def branch_cut_draw(bad_trials):
    """A stacked Haar sampler whose P draw (the first stack of a block) of
    the listed trials is diag(-1, 1, ...), whose eigenvalue -1 sits on the
    phase branch cut."""
    calls = []

    def haar(n, rngs):
        calls.append(n)
        us = haar_unitary(n, rngs)
        if len(calls) % 2 == 1:
            for k in bad_trials:
                us[k] = np.diag([-1.0] + [1.0] * (n - 1))
        return us
    return haar


def test_eigenlemma_reports_branch_cut_trial_as_undefined(monkeypatch, capsys):
    monkeypatch.setattr(checks, "haar_unitary", branch_cut_draw({1}))
    report = checks.eigenlemma(3, 3, RngStream(5))
    assert [row[2] for row in report.rows] == [True, "undefined", True]
    assert math.isnan(report.rows[1][3])
    assert report.ok

    monkeypatch.setattr(checks, "haar_unitary", branch_cut_draw({1}))
    code = main(["verify", "eigenlemma", "--n", "3", "--trials", "3", "--seed", "5"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 4
    assert lines[2].endswith(",undefined,nan")


def test_eigenlemma_with_no_defined_trial_fails(monkeypatch):
    monkeypatch.setattr(checks, "haar_unitary", branch_cut_draw({0, 1}))
    report = checks.eigenlemma(2, 2, RngStream(5))
    assert [row[2] for row in report.rows] == ["undefined", "undefined"]
    assert not report.ok
