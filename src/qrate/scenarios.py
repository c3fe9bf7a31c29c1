"""Bundled demonstration scenario.

A two-state plant with one unstable mode, stabilized through a 5-level
per-axis quantizer at a 0.1 s sampling period.  Two disturbance pulses
kick the state out of the quantization range so the run exercises escape,
search, and recapture.  The stock parameter triple exercises the protocol
as-is; the certified variant replaces (psi, rho, phi) with synthesized
values whose contraction certificate holds.
"""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig
from .design import DesignParams, PlantModel, synthesize_design
from .signals import PulseTrain

__all__ = ["BUNDLED_NAME", "bundled_plant", "bundled_params", "bundled_scenario"]

BUNDLED_NAME = "paper_sec7"


def bundled_plant() -> PlantModel:
    return PlantModel(
        A=np.array([[1.0, 0.0], [0.0, -1.5]]),
        B=np.array([[1.0], [0.5]]),
        D=np.array([[1.0], [0.0]]),
        K=np.array([[-3.5, 0.0]]),
        dt=0.1,
        n_levels=5,
    )


def bundled_params() -> DesignParams:
    return DesignParams(
        radius0=0.5,
        search_margin=0.2,
        dist_level=0.1,
        psi=0.2,
        rho=0.1,
        phi=0.01,
    )


def bundled_scenario(certified: bool = False) -> ScenarioConfig:
    """The demo scenario; ``certified`` swaps in a synthesized triple."""
    plant = bundled_plant()
    params = bundled_params()
    if certified:
        params = synthesize_design(plant, params)
    disturbance = PulseTrain(
        [(10.5, 10.7, [1.5]), (22.5, 22.7, [1.5])], dim=plant.n_d)
    return ScenarioConfig(
        plant=plant,
        design=params,
        x0=np.array([1.0, 1.0]),
        horizon=30.0,
        disturbance=disturbance,
    )
