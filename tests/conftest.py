from itertools import combinations
from math import inf

import numpy as np
import pytest

from miselect.estimation import CSV_HEADER
from miselect.oracle import FEATURES, MITables, Scenario, ScenarioSpec, oracle_provider


def random_provider(rng: np.random.Generator, inf_prob: float = 0.15) -> MITables:
    entropies = [rng.uniform(-2.0, 3.0) for _ in FEATURES]
    class_mis = [rng.uniform(0.0, 1.0) for _ in FEATURES]
    matrix = np.full((len(FEATURES), len(FEATURES)), inf)
    for a, b in combinations(range(len(FEATURES)), 2):
        matrix[a, b] = matrix[b, a] = inf if rng.random() < inf_prob else rng.uniform(0.0, 1.2)
    return MITables(entropies, class_mis, matrix)


def write_csv(sample, path) -> None:
    """Write ``sample`` as the CSV that ``Sample.from_csv`` reads."""
    data = np.column_stack([sample.features, sample.labels])
    np.savetxt(path, data, delimiter=",", header=CSV_HEADER, comments="",
               fmt=["%.17g"] * len(FEATURES) + ["%d"])


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
