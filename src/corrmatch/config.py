"""Flat key = value run configuration.

Every tunable numeric constant of the pipeline is a named key with its
default; files may override any subset.  Lines starting with # are comments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigurationError
from .geometry import GridSpec
from .learning import LearnerConfig


@dataclass(frozen=True)
class RunConfig:
    image_width: int = 48
    image_height: int = 128
    patch_width: int = 18
    patch_height: int = 24
    probe_stride_x: int = 6
    probe_stride_y: int = 8
    gallery_stride_x: int = 3
    gallery_stride_y: int = 4
    t_c: float = 0.05
    t_d: int = 32
    epsilon: float = 0.2
    n_cmc: int = 5
    selection_count: int = 20
    top_fraction: float = 0.5
    max_iterations: int = 300
    tolerance: float = 1e-4
    kappa: float = -50.0
    adjacency_ranges: tuple[int, ...] = (1, 2, 3, 4)
    color_bins: int = 8
    gradient_bins: int = 8
    sigma_scale: float = 0.15
    seed: int = 0
    repeats: int = 10
    rank_points: tuple[int, ...] = (1, 5, 10, 15, 20, 30, 50)
    use_first_image: bool = True

    def __post_init__(self) -> None:
        self.learner_config()  # range checks on the learner keys fail here
        if not (math.isfinite(self.sigma_scale) and self.sigma_scale > 0):
            raise ConfigurationError(f"sigma_scale must be positive and finite, "
                                     f"got {self.sigma_scale!r}")
        if self.repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {self.repeats}")
        if not self.rank_points or min(self.rank_points) < 1:
            raise ConfigurationError(f"rank_points must be non-empty and >= 1, "
                                     f"got {self.rank_points}")

    def probe_grid(self) -> GridSpec:
        return GridSpec(self.image_width, self.image_height, self.patch_width,
                        self.patch_height, self.probe_stride_x, self.probe_stride_y)

    def gallery_grid(self) -> GridSpec:
        return GridSpec(self.image_width, self.image_height, self.patch_width,
                        self.patch_height, self.gallery_stride_x, self.gallery_stride_y)

    def learner_config(self) -> LearnerConfig:
        return LearnerConfig(epsilon=self.epsilon, n_cmc=self.n_cmc,
                             selection_count=self.selection_count,
                             top_fraction=self.top_fraction,
                             max_iterations=self.max_iterations,
                             tolerance=self.tolerance, t_d=self.t_d, t_c=self.t_c,
                             kappa=self.kappa, adjacency_ranges=self.adjacency_ranges,
                             seed=self.seed)


def _parse_value(name: str, raw: str, kind):
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == tuple[int, ...]:
            return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {name}: {raw!r}") from exc
    raise ConfigurationError(f"unhandled config type for {name}")


def parse_config(text: str) -> RunConfig:
    kinds = {f.name: f.type for f in fields(RunConfig)}
    # dataclass stores annotations as strings under future-annotations
    resolved = {"int": int, "float": float, "bool": bool,
                "tuple[int, ...]": tuple[int, ...]}
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        bare = line.split("#", 1)[0].strip()
        if not bare:
            continue
        if "=" not in bare:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = bare.split("=", 1)
        key = key.strip()
        if key not in kinds:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        overrides[key] = _parse_value(key, raw, resolved[kinds[key]])
    return RunConfig(**overrides)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def format_config(config: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def save_config(path, config: RunConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_config(config))
