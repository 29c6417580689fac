"""The bundled example fleet with its policy overridden, shared by the
tests; the package and the command line read the model file directly."""

from standbymmap.config import ModelConfig, bundled_model_path, load_model
from standbymmap.ph import PhDistribution


def example_fleet_config(units: int | None = None,
                         vacation_threshold: int | None = None,
                         pm_enabled: bool | None = None,
                         vacation: PhDistribution | None = None) -> ModelConfig:
    """The bundled four-unit fleet (R = 3, PM on) with shocks, two-stage
    damage and the published optimal Erlang vacation, read from
    data/example_model.json; the arguments override its policy."""
    return load_model(bundled_model_path()).with_policy(
        units=units, vacation_threshold=vacation_threshold,
        pm_enabled=pm_enabled, vacation=vacation)
