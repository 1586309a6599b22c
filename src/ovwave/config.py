"""Experiment configuration: an INI-style file with command-line overrides.

Sections and keys (all optional; defaults reproduce the reference setup of
tolerances 1e-9 / 1e-12):

    [ovf]           v_max | d_s
    [run]           h | branch (1 or 2) | c (explicit speed) | segment
                    (auto | constant | affine | sampled) | slope | offset |
                    samples (CSV path for segment = sampled) | t_end
    [tolerances]    rel | abs
    [output]        dt
    [perturbation]  speed_offset | amplitude

``segment = auto`` integrates from the quasi-stationary history of ``c`` or
of the selected branch speed.  A history key the segment does not read (see
``_READS``) must keep its default, and ``dt`` may give at most ``MAX_SAMPLES``
samples; anything else is a :class:`ConfigError`.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import MAX_SAMPLES, ConfigError, check_finite
from .ovf import OvfSpec, make_vq
from .solver import Segment, _check_tolerances
from .waves import branch_eval

__all__ = ["ExperimentConfig"]

_SCHEMA = {
    "ovf": {"v_max", "d_s"},
    "run": {"h", "branch", "c", "segment", "slope", "offset", "samples", "t_end"},
    "tolerances": {"rel", "abs"},
    "output": {"dt"},
    "perturbation": {"speed_offset", "amplitude"},
}

# the history keys each segment reads, and the values that leave a key unset
_READS = {"auto": {"speed_offset", "offset", "amplitude"}, "constant": {"offset"},
          "affine": {"slope", "offset", "amplitude"}, "sampled": {"samples"}}
_UNSET = {"slope": None, "speed_offset": 0.0, "offset": 0.0, "amplitude": 0.0, "samples": None}


@dataclass(frozen=True)
class ExperimentConfig:
    v_max: float = 100.0
    d_s: float = 0.0
    h: float = 0.2
    branch: int | None = 1
    c: float | None = None
    segment: str = "auto"
    slope: float | None = None
    offset: float = 0.0
    samples: str | None = None
    t_end: float = 40.0
    tol_rel: float = 1e-9
    tol_abs: float = 1e-12
    dt: float = 0.1
    speed_offset: float = 0.0
    amplitude: float = 0.0

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        read = parser.read(str(path))
        if not read:
            raise ConfigError(f"could not read config file {path}")
        kw = {}
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                kw.update(_parse_entry(section, key, raw))
        return cls(**kw)

    def __post_init__(self):
        self.validate()

    def with_overrides(self, **kw) -> "ExperimentConfig":
        """A copy with every field in ``kw`` whose value is not None replaced."""
        return replace(self, **{k: v for k, v in kw.items() if v is not None})

    def validate(self) -> None:
        for f in fields(self):
            if isinstance(getattr(self, f.name), float):
                check_finite(f.name, getattr(self, f.name), error=ConfigError)
        for name in ("v_max", "h", "t_end", "dt"):
            check_finite(name, getattr(self, name), positive=True, error=ConfigError)
        if self.d_s < 0:
            raise ConfigError(f"d_s must be nonnegative, got {self.d_s}")
        if self.branch not in (None, 1, 2):
            raise ConfigError(f"branch must be 1 or 2, got {self.branch}")
        if self.branch is None and self.c is None and self.segment == "auto":
            raise ConfigError("need a branch, an explicit c, or a segment")
        if self.segment not in _READS:
            raise ConfigError(f"unknown segment kind {self.segment!r}")
        if self.segment == "affine" and self.slope is None:
            raise ConfigError("segment = affine requires a slope")
        if self.segment == "sampled" and self.samples is None:
            raise ConfigError("segment = sampled requires a samples path")
        for name, unset in _UNSET.items():
            if getattr(self, name) != unset and name not in _READS[self.segment]:
                raise ConfigError(f"segment = {self.segment} does not read {name}")
        if (self.t_end + 1.0) / self.dt > MAX_SAMPLES:
            raise ConfigError(f"dt={self.dt} gives over {MAX_SAMPLES:.0e} samples on [-1, t_end]")
        _check_tolerances(self.tol_rel, self.tol_abs, ConfigError)

    def build_ovf(self) -> OvfSpec:
        return make_vq(self.v_max, self.d_s)

    def resolve_speed(self, spec: OvfSpec) -> float | None:
        """Wavefront speed from the explicit value or the selected branch."""
        if self.c is not None:
            return float(self.c)
        if self.branch is not None:
            point = branch_eval(spec, self.h, self.branch)
            if point is None:
                raise ConfigError(
                    f"branch {self.branch} is undefined at h={self.h}"
                )
            return point.c
        return None

    def build_segment(self, speed: float | None) -> Segment:
        """Initial history per the config (perturbation already applied)."""
        if self.segment == "constant":
            return Segment.constant(self.offset)
        if self.segment == "affine":
            return self._perturbed(Segment.affine(self.slope, self.offset))
        if self.segment == "sampled":
            try:
                data = np.loadtxt(self.samples, delimiter=",", ndmin=2)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"could not read samples file {self.samples}: {exc}") from exc
            if data.shape[1] not in (2, 3):
                raise ConfigError("sampled segment file needs 2 or 3 columns")
            return Segment.from_samples(*data.T)
        return self._perturbed(Segment.quasi_stationary(speed + self.speed_offset, self.offset))

    def _perturbed(self, base: Segment) -> Segment:
        amp = self.amplitude
        if amp == 0.0:
            return base

        def position(s):
            return base(s)[..., 0] + amp * np.sin(math.pi * np.asarray(s))

        def velocity(s):
            return base(s)[..., 1] + amp * math.pi * np.cos(math.pi * np.asarray(s))

        return Segment(position, velocity, {**base.description, "amplitude": amp})

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _parse_entry(section: str, key: str, raw: str) -> dict:
    raw = raw.strip().strip('"')
    try:
        if key == "branch":
            return {"branch": int(raw)}
        if key in ("segment", "samples"):
            return {key: raw}
        if section == "tolerances":
            return {"tol_rel" if key == "rel" else "tol_abs": float(raw)}
        return {key: float(raw)}
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
