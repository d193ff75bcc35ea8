from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from datagen import random_instance  # noqa: E402

from welfair.model import Params  # noqa: E402


@pytest.fixture
def tiny_instance():
    return random_instance(n=12, dim=2, num_colors=2, seed=3)


@pytest.fixture
def small_instance():
    return random_instance(n=60, dim=3, num_colors=3, seed=5)


@pytest.fixture
def tiny_params(tiny_instance):
    return Params.with_delta(tiny_instance, 2, 0.5, 0.1, 2)


def random_fractional_x(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random column-stochastic (k, n) matrix with a sparse support."""
    x = rng.random((k, n)) ** 3
    keep = rng.random((k, n)) < 0.6
    keep[rng.integers(0, k, size=n), np.arange(n)] = True
    x = np.where(keep, x, 0.0)
    x /= x.sum(axis=0, keepdims=True)
    return x


def fake_highs(monkeypatch, status=None, edit=None):
    """Put a subclass of HiGHS in `_highs._Highs`'s place and return what it
    records: the options in force at each run, every model passed (the
    `passModel` arguments) and the number of runs. The thread's cached
    solver is cleared for the test and restored after it, so the next solve
    makes a fake and no fake outlives the test. status, if given, is
    reported as the model status after the real run; edit, if given, is
    called with each solution and the model's arguments before the solution
    is read."""
    from welfair import _highs

    record = SimpleNamespace(options=[], models=[], runs=0)

    class Fake(_highs._Highs):
        def passModel(self, *args):
            record.models.append(args)
            return super().passModel(*args)

        def run(self):
            record.runs += 1
            record.options.append(self.getOptions())
            return super().run()

        def getModelStatus(self):
            return super().getModelStatus() if status is None else status

        def getSolution(self):
            solution = super().getSolution()
            if edit is not None:
                edit(solution, record.models[-1])
            return solution

    monkeypatch.setattr(_highs, "_Highs", Fake)
    monkeypatch.setattr(_highs._local, "highs", None, raising=False)
    return record
