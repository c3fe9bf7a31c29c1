"""qrate: simulation and certification toolkit for feedback stabilization
of linear systems through a finite-rate sampled and quantized channel."""

from .analysis import (CheckReport, CheckRow, GainConstants, GainFunctions,
                       check_trajectory, eta_functions, gain_constants, iss_gains)
from .codec import (CodecState, Stage, advance, controller_input, decode_center,
                    encode, initial_state, quad_value, symbol_count)
from .config import (ConfigError, ScenarioConfig, load_config, parse_config,
                     save_config, serialize_config)
from .design import (CertificateReport, DerivedConstants, DesignParams, PlantModel,
                     check_assumptions, derive_constants, synthesize_design,
                     validate_design)
from .plant import TrajectoryEvent, TrajectoryLog, run_closed_loop, step_interval
from .scenarios import bundled_params, bundled_plant, bundled_scenario
from .signals import Constant, Disturbance, PulseTrain, SeededUniform, Sinusoid, Zero

__version__ = "0.1.0"

__all__ = [
    "CertificateReport", "CheckReport", "CheckRow", "CodecState", "ConfigError",
    "Constant", "DerivedConstants", "DesignParams", "Disturbance", "GainConstants",
    "GainFunctions", "PlantModel", "PulseTrain", "ScenarioConfig", "SeededUniform",
    "Sinusoid", "Stage", "TrajectoryEvent", "TrajectoryLog", "Zero",
    "advance", "bundled_params", "bundled_plant", "bundled_scenario",
    "check_assumptions", "check_trajectory", "controller_input", "decode_center",
    "derive_constants", "encode", "eta_functions", "gain_constants", "initial_state",
    "iss_gains", "load_config", "parse_config", "quad_value", "run_closed_loop",
    "save_config", "serialize_config", "step_interval", "symbol_count",
    "synthesize_design", "validate_design",
]
