"""Run configuration: detector sizes, clip schedule, post-processing thresholds."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from ..netcore import SIZE_FIELDS, check_channel_split
from ..postprocess import DEFAULT_BLINK_THRESHOLD, DEFAULT_LINK_IOU


@dataclass(frozen=True)
class Config:
    num_queries: int = 50
    num_iterations: int = 4
    channels: int = 64
    num_heads: int = 8
    roi_grid: int = 7
    clip_length: int = 36
    clip_stride: int = 18
    keep_top: int = 10
    blink_threshold: float = DEFAULT_BLINK_THRESHOLD
    link_iou_threshold: float = DEFAULT_LINK_IOU

    def validate(self) -> None:
        for name in (*SIZE_FIELDS, "clip_length", "clip_stride", "keep_top"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"config.{name} must be a positive integer, got {value!r}")
        try:
            check_channel_split(self.channels, self.num_heads)
        except ValueError as exc:
            raise ValueError(f"config.{exc}") from None
        if self.clip_stride >= self.clip_length:
            raise ValueError(
                f"config.clip_stride {self.clip_stride} must be < clip_length {self.clip_length} "
                "so adjacent clips overlap"
            )
        for name in ("blink_threshold", "link_iou_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value < 1.0:
                raise ValueError(f"config.{name} must be in (0, 1), got {value!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Config":
        """Read and validate a config file; any error is a ValueError naming the path."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except (RecursionError, ValueError) as exc:  # covers JSON, too deep a nesting, and UTF-8 errors
            raise ValueError(f"{path}: {exc}") from None
