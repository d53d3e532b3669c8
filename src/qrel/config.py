"""Scenario configuration: JSON schema, defaults, validation.

A scenario is validated once, into the objects that act on it: the
:class:`Grid`, the units, the initial state (a :class:`GaussianParams` or
the path of a wave-sample ``.npy`` file), a flow with step and duration,
an alpha list for group sweeps, the suite selection and the delta_x2
convention.  Validation errors name the offending field.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import FLOWS
from .errors import ConfigurationError
from .functionals import CONVENTIONS
from .grid import Grid
from .states import GaussianParams, HydroState, WaveField, _check_faces, from_wave, make_gaussian, to_wave

SUITE_NAMES = ("group", "functionals", "brackets", "dynamics", "classical-limit")


@dataclass
class ScenarioConfig:
    grid: Grid = field(default_factory=lambda: Grid(n=512, length=40.0))
    hbar: float = 1.0
    mass: float = 1.0
    state: GaussianParams | str = field(default_factory=GaussianParams)
    flow: str = "tau"
    step: float = 1e-3
    duration: float = 0.5
    alphas: tuple = tuple(np.linspace(-3.0, 3.0, 13))
    suites: tuple = SUITE_NAMES
    convention: str = "consistent"

    def make_state(self) -> HydroState:
        """The initial state: the Gaussian of ``state``, or the polar form of its wave samples."""
        if not isinstance(self.state, GaussianParams):
            return from_wave(self.make_wave())
        try:
            return make_gaussian(self.state, self.grid, hbar=self.hbar, mass=self.mass)
        except ConfigurationError as err:  # the scenario's own packet: its fields come first
            raise ConfigurationError(f"state.sigma2/state.x0: {err}") from err

    def make_wave(self) -> WaveField:
        """The initial wave field: the Gaussian's polar composition, or the wave samples at ``state``.

        Wave samples must match the grid, be normalized and decay at the box faces as a Gaussian must.
        """
        if isinstance(self.state, GaussianParams):
            return to_wave(self.make_state())
        grid = self.grid
        try:
            psi = np.load(self.state)
        except (OSError, ValueError) as err:  # a missing file, or one that holds no .npy array
            raise ConfigurationError(f"state.path: cannot read wave samples: {err}") from err
        try:  # each refusal of the samples names the field first
            _expect(isinstance(psi, np.ndarray) and np.issubdtype(psi.dtype, np.number),
                    "cannot read wave samples: not a numeric .npy array")
            _expect(psi.shape == grid.shape, f"wave samples shape {psi.shape} does not match grid shape {grid.shape}")
            rho = np.abs(psi) ** 2
            norm = grid.quadrature(rho)
            _expect(math.isfinite(norm) and abs(norm - 1.0) <= 1e-6,
                    f"wave samples not normalized (quadrature {norm!r})")
            _check_faces(rho, grid, "wave samples")
        except ConfigurationError as err:
            raise ConfigurationError(f"state.path: {err}") from err
        return WaveField(grid=grid, psi=psi, hbar=self.hbar, mass=self.mass)

    @property
    def steps(self) -> int:
        return int(round(self.duration / self.step)) if self.duration > 0 else 0


def _expect(cond, message):
    if not cond:
        raise ConfigurationError(message)


def _is_number(value) -> bool:
    # bool is an int subclass, but true/false are not numbers in a scenario
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _finite(value, name):
    _expect(_is_number(value), f"{name} must be a finite number, got {value!r}")
    return float(value)


def _positive(value, name):
    _expect(_is_number(value) and value > 0, f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def _known_fields(section: dict, prefix: str, known: tuple):
    # a misspelt key would otherwise run the default in its place
    for key in section:
        _expect(key in known, f"{prefix}{key} is not a known field")


def select_suites(names, source: str) -> tuple:
    """The suites of the nonempty list ``names``; a refusal names ``source``, the field or flag they came from."""
    _expect(isinstance(names, list) and names, f"{source} must be a nonempty list")
    for i, name in enumerate(names):
        _expect(name in SUITE_NAMES, f"{source}: unknown suite {name!r} (known: {', '.join(SUITE_NAMES)})")
        # a repeated suite would run twice and report each of its checks twice under one name
        _expect(name not in names[:i], f"{source}: suite {name!r} is listed more than once")
    return tuple(names)


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build and validate a scenario from parsed JSON."""
    cfg = ScenarioConfig()
    _expect(isinstance(raw, dict), "config root must be a JSON object")
    _known_fields(raw, "", ("grid", "units", "state", "flow", "alphas", "suites", "convention"))

    grid = raw.get("grid", {})
    _expect(isinstance(grid, dict), "grid must be an object")
    _known_fields(grid, "grid.", ("n", "length", "dim"))
    length = _positive(grid.get("length", cfg.grid.length), "grid.length")
    # the grid validates n and dim itself, naming the field
    cfg.grid = Grid(n=grid.get("n", cfg.grid.n), length=length, dim=grid.get("dim", cfg.grid.dim))

    units = raw.get("units", {})
    _expect(isinstance(units, dict), "units must be an object")
    _known_fields(units, "units.", ("hbar", "mass"))
    cfg.hbar = _positive(units.get("hbar", cfg.hbar), "units.hbar")
    cfg.mass = _positive(units.get("mass", cfg.mass), "units.mass")

    state = raw.get("state", {})
    _expect(isinstance(state, dict), "state must be an object")
    kind = state.get("kind", "gaussian")
    _expect(kind in ("gaussian", "wave_file"), f"state.kind must be 'gaussian' or 'wave_file', got {kind!r}")
    if kind == "gaussian":
        _known_fields(state, "state.", ("kind", "sigma2", "b", "c", "p0", "x0"))
        sigma2 = _positive(state.get("sigma2", 1.0), "state.sigma2")
        rest = {key: _finite(state.get(key, 0.0), f"state.{key}") for key in ("b", "c", "p0", "x0")}
        cfg.state = GaussianParams(sigma2=sigma2, **rest)
    else:
        _known_fields(state, "state.", ("kind", "path"))
        path = state.get("path", "")
        _expect(isinstance(path, str) and path, "state.path is required for wave_file states")
        cfg.state = path

    flow = raw.get("flow", {})
    _expect(isinstance(flow, dict), "flow must be an object")
    _known_fields(flow, "flow.", ("kind", "step", "duration"))
    kind = flow.get("kind", cfg.flow)
    _expect(isinstance(kind, str) and kind in FLOWS, f"flow.kind must be 't' or 'tau', got {kind!r}")
    cfg.flow = kind
    cfg.step = _positive(flow.get("step", cfg.step), "flow.step")
    duration = flow.get("duration", cfg.duration)
    _expect(_is_number(duration) and duration >= 0,
            f"flow.duration must be a nonnegative finite number, got {duration!r}")
    cfg.duration = float(duration)

    alphas = raw.get("alphas", list(cfg.alphas))
    _expect(isinstance(alphas, list), "alphas must be a list of numbers")
    # an empty sweep would pass every check over it vacuously
    _expect(alphas, "alphas: list must be nonempty")
    cfg.alphas = tuple(_finite(a, f"alphas[{i}]") for i, a in enumerate(alphas))

    cfg.suites = select_suites(raw.get("suites", list(cfg.suites)), "suites")

    convention = raw.get("convention", cfg.convention)
    _expect(convention in CONVENTIONS, f"convention must be one of {CONVENTIONS}, got {convention!r}")
    cfg.convention = convention
    return cfg


def load_config(path: str = None) -> ScenarioConfig:
    """Load a scenario file, or the built-in defaults when no path is given."""
    if path is None:
        return ScenarioConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigurationError(f"config: cannot read {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config: {path!r} is not valid JSON: {err}") from err
    return config_from_dict(raw)
