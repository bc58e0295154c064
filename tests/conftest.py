from itertools import combinations

import numpy as np
import pytest

from miselect.oracle import FEATURES, MITables, Scenario, ScenarioSpec, oracle_provider
from miselect.xreal import POS_INF, finite


def random_provider(rng: np.random.Generator, inf_prob: float = 0.15) -> MITables:
    entropies = [finite(rng.uniform(-2.0, 3.0)) for _ in FEATURES]
    class_mis = [finite(rng.uniform(0.0, 1.0)) for _ in FEATURES]
    pairwise = {
        (i, j): POS_INF if rng.random() < inf_prob else finite(rng.uniform(0.0, 1.2))
        for i, j in combinations(FEATURES, 2)
    }
    return MITables(
        entropies, class_mis, lambda i, j: POS_INF if i == j else pairwise[i, j]
    )


@pytest.fixture(scope="session")
def oracle_i_02():
    return oracle_provider(ScenarioSpec(Scenario.UNIFORM, 0.2))


@pytest.fixture(scope="session")
def oracle_i_08():
    return oracle_provider(ScenarioSpec(Scenario.UNIFORM, 0.8))


@pytest.fixture(scope="session")
def oracle_ii_02():
    return oracle_provider(ScenarioSpec(Scenario.GAUSSIAN, 0.2))


@pytest.fixture(scope="session")
def oracle_ii_08():
    return oracle_provider(ScenarioSpec(Scenario.GAUSSIAN, 0.8))
