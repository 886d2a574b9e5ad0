import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

from canonbase_lab.measure_core import ExtensionPair, LatticeElement, MeasureSpace


def random_pair(rng: random.Random, max_m: int = 8, n: int = 16, orth=None) -> ExtensionPair:
    m = rng.randint(1, max_m)
    weights = tuple(rng.randint(1, 8) / 4 for _ in range(m))
    has = (rng.random() < 0.5) if orth is None else orth
    return ExtensionPair(weights, n, has)


def random_element(rng: random.Random, pair: ExtensionPair, scale: int = 8) -> LatticeElement:
    def cell():
        return rng.randint(-scale * 16, scale * 16) / 16

    rows = [[cell() for _ in range(pair.n)] for _ in range(pair.m)]
    plus = minus = None
    if pair.has_orthogonal:
        plus = [cell() for _ in range(pair.n)]
        minus = [cell() for _ in range(pair.n)]
    return pair.element(rows, plus, minus)


def rearranged_copy(rng: random.Random, pair: ExtensionPair, f: LatticeElement) -> LatticeElement:
    """A measure-preserving rearrangement: shuffle cells within each base
    fiber and shuffle the orthogonal cells; the type over the base is kept."""
    rows = [rng.sample(row, len(row)) for row in pair.fibers(f).tolist()]
    plus = minus = None
    if pair.has_orthogonal:
        orth = pair.orthogonal_part(f).array.tolist()
        orth = rng.sample(orth, len(orth))
        plus, minus = orth[: pair.n], orth[pair.n :]
    return pair.element(rows, plus, minus)


def random_space(rng: random.Random, max_atoms: int = 8) -> MeasureSpace:
    count = rng.randint(1, max_atoms)
    return MeasureSpace(tuple(rng.randint(1, 8) / 4 for _ in range(count)))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0)
