"""Model configuration: all parameters of the standby fleet, and model files.

A ModelConfig collects the PH distributions of the online unit, the shock
and damage machinery, the repair facility clocks, the fleet/vacation policy
knobs (n, R, preventive maintenance on/off) and the cost block.

Model files are JSON documents with one key per ModelConfig field (the cost
block nested under "costs", matrices row-major, a PH distribution as
{"init", "subgen"} or, for the vacation, {"family", "params"}).  They are
read and written by walking the dataclass fields, so a field added to
ModelConfig or CostBlock is part of the file format at once.  The bundled
file data/example_model.json is the one definition of the example fleet.
"""

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Annotated, get_args

import numpy as np

from .ph import PhDistribution, VALIDATION_ATOL

# Array-valued fields carry their dimension in the annotation; it drives both
# the coercion in __post_init__ and the shape check of model files.
Vector = Annotated[np.ndarray, 1]
Matrix = Annotated[np.ndarray, 2]


class ConfigError(ValueError):
    """Raised for inconsistent model parameters."""


class ModelFileError(ValueError):
    """Raised when a model file fails to parse or validate."""


def _array_ndim(annotation) -> int | None:
    args = get_args(annotation)
    return args[1] if args else None


def _coerce_arrays(obj):
    """Store every Vector field flat and every Matrix field as 2-D floats
    (a missing Vector becomes empty)."""
    for f in fields(obj):
        ndim = _array_ndim(f.type)
        if ndim is None:
            continue
        value = getattr(obj, f.name)
        arr = np.zeros(0) if value is None else np.asarray(value, dtype=float)
        object.__setattr__(obj, f.name,
                           arr.ravel() if ndim == 1 else np.atleast_2d(arr))


@dataclass(frozen=True)
class CostBlock:
    """Scalar and per-phase cost/reward parameters."""

    gross_profit: float = 0.0        # B, per u.t. while operational
    downtime_loss: float = 0.0       # C, per u.t. while down
    repair_present: float = 0.0      # H, per u.t. with repairperson present
    vacation: float = 0.0            # F, per u.t. on vacation
    return_fixed: float = 0.0        # G, per return from vacation
    repairable_fixed: float = 0.0    # fcr, per repairable failure
    inspection_fixed: float = 0.0    # fmi, per major inspection
    new_unit: float = 0.0            # fnu, per unit of a fresh fleet
    operational: Vector = None       # c0, length m
    damage: Vector = None            # cd, length d
    corrective: Vector = None        # cr1, length z1
    preventive: Vector = None        # cr2, length z2

    def __post_init__(self):
        _coerce_arrays(self)


@dataclass(frozen=True)
class ModelConfig:
    """Full parameter set of one fleet model."""

    # Online unit
    internal: PhDistribution          # (alpha, T)
    internal_exit_repairable: Vector    # T_r0
    internal_exit_nonrepairable: Vector  # T_nr0
    minor_internal: int               # phases 1..minor_internal are minor

    # External shocks
    shock: PhDistribution             # (gamma, L)
    total_failure_prob: float         # omega0
    shock_effect: Matrix              # W, m x m substochastic
    shock_repairable: Vector          # W_r0
    shock_nonrepairable: Vector       # W_nr0

    # Cumulative damage chain
    damage_init: Vector               # omega row vector, length d
    damage_matrix: Matrix             # d x d substochastic
    damage_exit: Vector               # exit probabilities, length d
    minor_damage: int                 # phases 1..minor_damage are minor

    # Inspections
    inspection: PhDistribution        # (eta, M)

    # Repair facility
    vacation: PhDistribution          # (upsilon, V)
    corrective: PhDistribution        # (beta1, S1)
    preventive: PhDistribution        # (beta2, S2)

    # Fleet / policy
    units: int                        # n
    vacation_threshold: int           # R
    pm_enabled: bool = True

    costs: CostBlock = None

    def __post_init__(self):
        _coerce_arrays(self)
        costs = CostBlock() if self.costs is None else self.costs
        # an empty per-phase cost vector (the CostBlock default) costs nothing
        object.__setattr__(self, "costs", replace(costs, **{
            name: np.zeros(size)
            for name, (size, _) in self._phase_cost_sizes().items()
            if getattr(costs, name).size == 0}))
        self.validate()

    # Short dimension aliases used throughout the matrix construction.
    @property
    def m(self) -> int:
        return self.internal.order

    @property
    def t(self) -> int:
        return self.shock.order

    @property
    def d(self) -> int:
        return self.damage_init.size

    @property
    def eps(self) -> int:
        return self.inspection.order

    @property
    def v(self) -> int:
        return self.vacation.order

    @property
    def z(self) -> tuple:
        """Service orders by repair type: z[1] corrective, z[2] preventive."""
        return (None, self.corrective.order, self.preventive.order)

    def _phase_cost_sizes(self) -> dict:
        """Per-phase cost vector -> (its length, the length's name)."""
        return {"operational": (self.m, "m"), "damage": (self.d, "d"),
                "corrective": (self.corrective.order, "z1"),
                "preventive": (self.preventive.order, "z2")}

    def validate(self):
        m, d = self.m, self.d
        atol = 1e-9
        if self.units < 1:
            raise ConfigError("configuration error: need at least one unit")
        if not 1 <= self.vacation_threshold <= self.units:
            raise ConfigError("configuration error: R must satisfy 1 <= R <= n")
        if not 1 <= self.minor_internal < m:
            raise ConfigError("configuration error: minor_internal must be in [1, m)")
        if not 1 <= self.minor_damage < d:
            raise ConfigError("configuration error: minor_damage must be in [1, d)")
        if not 0 <= self.total_failure_prob <= 1:
            raise ConfigError("configuration error: omega0 must be a probability")
        split = (self.internal.subgen.sum(axis=1)
                 + self.internal_exit_repairable + self.internal_exit_nonrepairable)
        if np.max(np.abs(split)) > atol:
            raise ConfigError("configuration error: internal exit split "
                              "T 1 + T_r0 + T_nr0 must vanish")
        wsum = (self.shock_effect.sum(axis=1)
                + self.shock_repairable + self.shock_nonrepairable)
        if np.max(np.abs(wsum - 1)) > atol:
            raise ConfigError("configuration error: shock outcome rows must sum to 1")
        dsum = self.damage_matrix.sum(axis=1) + self.damage_exit
        if np.max(np.abs(dsum - 1)) > atol:
            raise ConfigError("configuration error: damage rows plus exit must sum to 1")
        if abs(self.damage_init.sum() - 1) > atol or np.any(self.damage_init < -VALIDATION_ATOL):
            raise ConfigError("configuration error: damage_init must be a distribution")
        for name, (size, symbol) in self._phase_cost_sizes().items():
            if getattr(self.costs, name).size != size:
                raise ConfigError(f"configuration error: {name} cost length "
                                  f"!= {symbol}")

    def with_policy(self, units=None, vacation_threshold=None, pm_enabled=None,
                    vacation=None) -> "ModelConfig":
        """Copy with the given policy fields replaced (None keeps a field)."""
        changes = dict(units=units, vacation_threshold=vacation_threshold,
                       pm_enabled=pm_enabled, vacation=vacation)
        return replace(self, **{k: v for k, v in changes.items() if v is not None})


def exponential_vacation(a: float) -> PhDistribution:
    return PhDistribution(np.array([1.0]), np.array([[-a]]))


def erlang2_vacation(a: float, b: float) -> PhDistribution:
    return PhDistribution(np.array([1.0, 0.0]), np.array([[-a, a], [0.0, -b]]))


def vacation_from_params(family: str, params) -> PhDistribution:
    params = np.atleast_1d(np.asarray(params, dtype=float))
    if np.any(params <= 0):
        raise ConfigError("configuration error: vacation rates must be positive")
    if family in ("exp", "exponential"):
        if params.size != 1:
            raise ConfigError("configuration error: exponential vacation takes one rate")
        return exponential_vacation(params[0])
    if family in ("erlang2", "erlang"):
        if params.size != 2:
            raise ConfigError("configuration error: erlang2 vacation takes two rates")
        return erlang2_vacation(params[0], params[1])
    raise ConfigError(f"configuration error: unknown vacation family {family!r}")


# ---------------------------------------------------------------------------
# model files

def _get(doc: dict, key: str, where: str):
    if key not in doc:
        raise ModelFileError(f"{where}: missing field {key!r}")
    return doc[key]


def _matrix(doc, key, where, ndim):
    try:
        arr = np.asarray(_get(doc, key, where), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"{where}.{key}: not numeric ({exc})") from None
    if arr.ndim != ndim:
        raise ModelFileError(f"{where}.{key}: expected {ndim}-dimensional "
                             f"array, got shape {arr.shape}")
    return arr


def _ph(doc, key, where):
    sub = _get(doc, key, where)
    path = f"{where}.{key}"
    if not isinstance(sub, dict):
        raise ModelFileError(f"{path}: expected an object")
    if "family" in sub:
        try:
            return vacation_from_params(sub["family"],
                                        _get(sub, "params", path))
        except ConfigError as exc:
            raise ModelFileError(f"{path}: {exc}") from None
    try:
        return PhDistribution(_matrix(sub, "init", path, 1),
                              _matrix(sub, "subgen", path, 2))
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from None


def _from_doc(cls, doc, where: str):
    """Instance of the dataclass cls from its document, field by field."""
    kw = {}
    for f in fields(cls):
        ndim = _array_ndim(f.type)
        if f.type is PhDistribution:
            kw[f.name] = _ph(doc, f.name, where)
        elif f.type is CostBlock:
            kw[f.name] = _from_doc(CostBlock, _get(doc, f.name, where),
                                   f"{where}.{f.name}")
        elif ndim is not None:
            kw[f.name] = _matrix(doc, f.name, where, ndim)
        else:
            try:
                kw[f.name] = f.type(_get(doc, f.name, where))
            except (TypeError, ValueError) as exc:
                raise ModelFileError(f"{where}.{f.name}: {exc}") from None
    try:
        return cls(**kw)
    except (ConfigError, ValueError) as exc:
        raise ModelFileError(f"{where}: {exc}") from None


def config_from_dict(doc: dict, where: str = "model") -> ModelConfig:
    return _from_doc(ModelConfig, doc, where)


def config_to_dict(config) -> dict:
    """Model-file document of a ModelConfig (or of its CostBlock)."""
    doc = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, PhDistribution):
            value = {"init": value.init.tolist(), "subgen": value.subgen.tolist()}
        elif isinstance(value, CostBlock):
            value = config_to_dict(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        doc[f.name] = value
    return doc


def bundled_model_path() -> Path:
    return Path(__file__).parent / "data" / "example_model.json"


def load_model(path) -> ModelConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ModelFileError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    return config_from_dict(doc, where=str(path))


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
