"""Flat key = value run configuration.

``RunConfig`` is the one configuration of the pipeline: every tunable
constant is a named key with its default, and every range check runs when
a config is built or parsed.  Library functions take the values they need
(``kappa``, ``t_c``, ...) as explicit arguments.  Files may override any
subset of keys; lines starting with # are comments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigurationError, read_text, write_rows
from .geometry import GridSpec


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
    # The similarity bandwidth is this fraction of the mean similar-pair
    # distance.  Training pairs come from a wide spatial window, so their mean
    # distance is dominated by content mismatches; using it directly as the
    # exp(-d / sigma) bandwidth would (by Jensen's inequality) pin the average
    # in-window similarity ratio above e^-1 and flatten every learned
    # correspondence row below the match-time probability gate.
    sigma_scale: float = 0.15
    seed: int = 0
    repeats: int = 10
    rank_points: tuple[int, ...] = (1, 5, 10, 15, 20, 30, 50)
    use_first_image: bool = True

    def __post_init__(self) -> None:
        if min(self.image_width, self.image_height) < 2:  # np.gradient needs 2 px a side
            raise ConfigurationError(f"image canvas must be at least 2 px a side, got "
                                     f"{self.image_width}x{self.image_height}")
        self.probe_grid(), self.gallery_grid()  # bad geometry fails here
        if not 0 < self.epsilon <= 1:
            raise ConfigurationError("epsilon must lie in (0, 1]")
        if self.selection_count < 2 or self.selection_count % 2:
            raise ConfigurationError("selection_count must be even and >= 2")
        if min(self.n_cmc, self.max_iterations, self.t_d) < 1 or not self.tolerance >= 0:
            raise ConfigurationError("n_cmc, max_iterations, t_d must be positive "
                                     "and tolerance non-negative")
        if not 0.0 < self.top_fraction <= 1.0:
            raise ConfigurationError(f"top_fraction must lie in (0, 1], got {self.top_fraction!r}")
        if not 0.0 <= self.t_c < 1.0:
            raise ConfigurationError(f"t_c must lie in [0, 1), got {self.t_c!r}")
        if not math.isfinite(self.kappa):
            raise ConfigurationError(f"kappa must be finite, got {self.kappa!r}")
        if not (math.isfinite(self.sigma_scale) and self.sigma_scale > 0):
            raise ConfigurationError(f"sigma_scale must be positive and finite, "
                                     f"got {self.sigma_scale!r}")
        if self.repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {self.repeats}")
        if not self.rank_points or min(self.rank_points) < 1:
            raise ConfigurationError(f"rank_points must be non-empty and >= 1, "
                                     f"got {self.rank_points}")
        if not self.adjacency_ranges or min(self.adjacency_ranges) < 1:
            raise ConfigurationError(f"adjacency_ranges must be non-empty and >= 1, "
                                     f"got {self.adjacency_ranges}")
        if min(self.color_bins, self.gradient_bins) < 1:
            raise ConfigurationError(f"color_bins and gradient_bins must be >= 1, got "
                                     f"{self.color_bins} and {self.gradient_bins}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    def probe_grid(self) -> GridSpec:
        return GridSpec(self.image_width, self.image_height, self.patch_width,
                        self.patch_height, self.probe_stride_x, self.probe_stride_y)

    def gallery_grid(self) -> GridSpec:
        return GridSpec(self.image_width, self.image_height, self.patch_width,
                        self.patch_height, self.gallery_stride_x, self.gallery_stride_y)


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# Each key type's (parse, format) pair, by its annotation (a string under
# future annotations): parse reads a stripped value, format writes it back.
_CODECS = {
    "int": (int, str),
    "float": (float, repr),
    "bool": (lambda raw: _BOOLS[raw.lower()], lambda value: "true" if value else "false"),
    "tuple[int, ...]": (lambda raw: tuple(int(part) for part in raw.split(",") if part.strip()),
                        lambda value: ",".join(str(v) for v in value)),
}


def parse_config(text: str) -> RunConfig:
    kinds = {f.name: f.type for f in fields(RunConfig)}
    overrides, set_on = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        bare = line.split("#", 1)[0].strip()
        if not bare:
            continue
        if "=" not in bare:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = bare.split("=", 1)
        key, raw = key.strip(), raw.strip()
        if key not in kinds:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigurationError(f"line {lineno}: key {key!r} already set on line "
                                     f"{set_on[key]}")
        set_on[key] = lineno
        try:
            overrides[key] = _CODECS[kinds[key]][0](raw)
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key}: {raw!r}") from exc
    return RunConfig(**overrides)


def load_config(path) -> RunConfig:
    """``parse_config`` on the file's text (``errors.read_text``); a problem
    names the file."""
    text = read_text(path, "config")
    try:
        return parse_config(text)
    except ConfigurationError as exc:
        where = " " if str(exc).startswith("line ") else ": "
        raise ConfigurationError(f"config {path}{where}{exc}") from None


def format_config(config: RunConfig) -> str:
    return "".join(f"{f.name} = {_CODECS[f.type][1](getattr(config, f.name))}\n"
                   for f in fields(RunConfig))


def save_config(path, config: RunConfig) -> None:
    write_rows(path, [(line,) for line in format_config(config).splitlines()])
