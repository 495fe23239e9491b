"""Experiment harness: problems, configs, runners and the CLI."""

from .config import ConfigError, ExperimentConfig, build_experiment, load_config, parse_config_text
from .problems import ProblemInstance, generate_problem
from .rng import component_rng
from .runner import RunArtifacts, compare, run_experiment, sweep

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ProblemInstance",
    "RunArtifacts",
    "build_experiment",
    "compare",
    "component_rng",
    "generate_problem",
    "load_config",
    "parse_config_text",
    "run_experiment",
    "sweep",
]
