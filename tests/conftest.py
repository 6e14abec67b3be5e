"""Fixtures shared across test modules."""

import time

import pytest

from alphaharmonic import TrialSpec, run_suite


@pytest.fixture(scope="session")
def criterion5_reports():
    """({seed: reports of run_suite("all")}, seconds taken) at 1000 trials
    for seeds 0-9: acceptance criterion 5's runs, made once per session
    because the verify goldens compare the same reports."""
    t0 = time.perf_counter()
    reports = {seed: run_suite("all", TrialSpec(seed=seed, n_trials=1000, slack=1e-9))
               for seed in range(10)}
    return reports, time.perf_counter() - t0
