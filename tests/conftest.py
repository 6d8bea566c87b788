import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from froblocus import SimplicialComplex

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def derivations(monkeypatch):
    """Counts of the calls that convert between an ideal and its complex."""
    counts = Counter()
    real_from_ideal = SimplicialComplex.from_ideal
    real_to_ideal = SimplicialComplex.to_ideal

    def from_ideal(ideal):
        counts["from_ideal"] += 1
        return real_from_ideal(ideal)

    def to_ideal(self, context):
        counts["to_ideal"] += 1
        return real_to_ideal(self, context)

    monkeypatch.setattr(SimplicialComplex, "from_ideal", staticmethod(from_ideal))
    monkeypatch.setattr(SimplicialComplex, "to_ideal", to_ideal)
    return counts
