import pytest
from hypothesis import settings

from qspeedup import dynamics

settings.register_profile("repo", deadline=None, max_examples=50, derandomize=True)
settings.load_profile("repo")


@pytest.fixture
def skew_envelope(monkeypatch):
    """install(factor) scales g and g' of dynamics.envelope alike by
    factor(lam), in the one kernel every path reads the envelope through."""
    def install(factor):
        true_envelope = dynamics.envelope
        monkeypatch.setattr(dynamics, "envelope", lambda t, a, b, lam: tuple(
            factor(lam) * part for part in true_envelope(t, a, b, lam)))
    return install
