import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import settings

from qrate import (DesignParams, PlantModel, bundled_params, bundled_plant,
                   derive_constants, synthesize_design)

# hypothesis's failure report imports libcst, which warns on import that
# mypy_extensions.TypedDict is deprecated.  Under ``-W error`` that warning is
# raised inside pytest's report hook, and the session ends in INTERNALERROR
# without the falsifying example; an ini filter cannot help, as the command
# line's ``-W error`` takes precedence.  Importing libcst here, with only that
# warning ignored, leaves the report a module that is already loaded.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:  # hypothesis then reports without it
        pass


# Five property tests run under the hypothesis profile that
# HYPOTHESIS_PROFILE names (CI's tier-1 step sets "ci"): the CSV formatter's
# against the %-templates, twice (once with adjacent fields merged into one
# pass at the block size), the ZOH stepper's against its per-substep loop,
# which keeps at least its own 300 examples, RK4 intervals stepped alone in
# each stage against the per-segment loop, and a run's state against the
# state of each interval alone, whose steps the run's log repeats.  Every
# other test keeps its own settings.
settings.register_profile("ci", max_examples=5000, deadline=None)
PROPERTY_PROFILE = settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def ref_plant():
    return bundled_plant()


@pytest.fixture(scope="session")
def raw_params():
    return bundled_params()


@pytest.fixture(scope="session")
def cert_params(ref_plant, raw_params):
    return synthesize_design(ref_plant, raw_params)


@pytest.fixture(scope="session")
def cert_derived(ref_plant, cert_params):
    return derive_constants(ref_plant, cert_params)


@pytest.fixture(scope="session")
def toy_plant():
    # Scalar plant with per-period open-loop growth exactly 1.1 and
    # closed-loop one-step transition exactly 0.5.
    a = 10.0 * math.log(1.1)
    a_cl = 10.0 * math.log(0.5)
    return PlantModel(
        A=np.array([[a]]),
        B=np.array([[1.0]]),
        D=np.array([[1.0]]),
        K=np.array([[a_cl - a]]),
        dt=0.1,
        n_levels=5,
    )


@pytest.fixture(scope="session")
def toy_params():
    return DesignParams(
        radius0=0.5,
        search_margin=0.2,
        dist_level=0.1,
        psi=0.2,
        rho=1.0,
        phi=0.01,
        Q=np.array([[1.0]]),
    )


@pytest.fixture(scope="session")
def toy_derived(toy_plant, toy_params):
    return derive_constants(toy_plant, toy_params)


def make_random_plant(rng: np.random.Generator, n: int | None = None) -> PlantModel:
    """Random plant guaranteed to pass both assumptions, with ``n`` states
    (2 or 3, drawn from ``rng``, when ``n`` is None).

    The closed loop is pinned to a diagonally dominant stable target via
    K = B^{-1} (target - A); the open-loop growth over 0.1 s stays far
    below a 5-level grid.
    """
    if n is None:
        n = int(rng.integers(2, 4))
    diag = -rng.uniform(1.0, 2.0, n)
    off = rng.uniform(-0.3, 0.3, (n, n)) / max(n - 1, 1)
    target = np.diag(diag) + off * (1.0 - np.eye(n))
    A = rng.uniform(-1.0, 1.0, (n, n))
    B = 2.0 * np.eye(n) + 0.3 * rng.uniform(-1.0, 1.0, (n, n))
    K = np.linalg.solve(B, target - A)
    D = rng.uniform(-1.0, 1.0, (n, 1))
    return PlantModel(A=A, B=B, D=D, K=K, dt=0.1, n_levels=5)
