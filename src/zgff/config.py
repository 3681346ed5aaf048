"""Flat key = value experiment configs with [section] headers, and run
manifests. The config format is deliberately line-diffable; its sha256 hash
is stamped into every output file so each emitted number traces back to the
exact configuration (and snapshot seed) that produced it."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError, InvalidConstraintError

# the keys that take one of a fixed set of values
_CHOICES = {
    ("pipeline", "name"): ("surface", "scales", "fs", "rw", "tension",
                           "levellines", "endtoend"),
    ("rw", "law"): ("basic", "laplace"),
}

# the only sections and keys a config may set; each value's type is the key's
_DEFAULTS = {
    "model": {"p": 2.0, "beta": 2.0, "boundary": "all:0", "floor": "none",
              "ceiling": "none"},
    "lattice": {"L": 64},
    "run": {"sweeps": 2000, "burnin": 200, "thinning": 10, "seed": 1,
            "levels": 1},
    "pipeline": {"name": "surface"},
    "rw": {"q": 0.25, "tilt_n": 3000.0, "law": "basic", "samples": 4000},
    "fs": {"sigma": 1.0, "dt": 1e-3, "steps": 200000, "paths": 50, "x0": 1.0},
    "out": {"dir": "out"},
}


@dataclass
class ExperimentConfig:
    sections: dict = field(default_factory=dict)

    @classmethod
    def default(cls, **overrides):
        sections = {s: dict(kv) for s, kv in _DEFAULTS.items()}
        cfg = cls(sections=sections)
        for dotted, value in overrides.items():
            section, _, key = dotted.partition(".")
            cfg.set(section, key, value)
        return cfg

    @classmethod
    def parse(cls, text):
        cfg = cls.default()
        current = None
        for i, line in enumerate(text.splitlines(), 1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if s.startswith("[") and s.endswith("]"):
                current = s[1:-1].strip()
                if current not in _DEFAULTS:
                    raise ConfigError(f"line {i}: unknown section [{current}]")
                continue
            if "=" not in s:
                raise ConfigError(f"line {i}: expected key = value, got {s!r}")
            if current is None:
                raise ConfigError(f"line {i}: key before any [section]")
            k, _, v = s.partition("=")
            cfg.set(current, k.strip(), v.strip())
        return cfg

    @classmethod
    def load(cls, path):
        """parse() of the file at path; one that cannot be read as UTF-8 text
        (missing, a directory, binary) is a ConfigError naming it."""
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.parse(fh.read())
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config {str(path)!r} "
                              f"({type(e).__name__})") from None

    def get(self, section, key):
        try:
            return self.sections[section][key]
        except KeyError:
            raise ConfigError(f"missing config key [{section}] {key}") from None

    def set(self, section, key, value):
        """Set a key to value as the type of its default, refusing an unknown
        key, a value that does not parse, a non-finite float, or one outside
        the key's choices."""
        if key not in _DEFAULTS.get(section, ()):
            raise ConfigError(f"unknown config key [{section}] {key}")
        try:
            value = type(_DEFAULTS[section][key])(value)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: cannot parse {value!r}") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be finite, got {value}")
        choices = _CHOICES.get((section, key))
        if choices is not None and value not in choices:
            raise ConfigError(f"unknown [{section}] {key} {value!r}; "
                              f"choose from {choices}")
        self.sections[section][key] = value

    def validate(self):
        """Refuse a config no run can use: sweeps <= burnin, a count below
        its least value, or a [model] section model_params_from rejects.
        run_pipeline calls this once, after every override is set."""
        if self.get("run", "sweeps") <= self.get("run", "burnin"):
            raise ConfigError("need sweeps > burnin")
        for section, key, least in (("lattice", "L", 1), ("run", "thinning", 1),
                                    ("run", "seed", 0), ("run", "levels", 1),
                                    ("fs", "paths", 1)):
            if self.get(section, key) < least:
                raise ConfigError(f"[{section}] {key} must be >= {least}")
        model_params_from(self)
        return self

    def canonical_text(self):
        """Every section but [out] as sorted key = value lines. The output
        directory is provenance-neutral: replays into another directory
        must reproduce the same stamped hash."""
        lines = []
        for section in sorted(self.sections.keys() - {"out"}):
            lines.append(f"[{section}]")
            for k, v in sorted(self.sections[section].items()):
                lines.append(f"{k} = {v}")
            lines.append("")
        return "\n".join(lines)

    def hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def model_params_from(cfg: ExperimentConfig):
    """The [model] section as ModelParams: boundary all:K, floor and ceiling
    an integer or none. ConfigError names a malformed value, and
    InvalidConstraintError a floor above the ceiling."""
    from .surface import ModelParams

    def integer(key, text):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"[model] {key}: cannot parse "
                              f"{cfg.get('model', key)!r}") from None

    bspec = cfg.get("model", "boundary")
    if not bspec.startswith("all:"):
        raise ConfigError(f"unsupported boundary spec {bspec!r}; use all:K")
    floor, ceiling = (None if cfg.get("model", k) == "none"
                      else integer(k, cfg.get("model", k))
                      for k in ("floor", "ceiling"))
    if floor is not None and ceiling is not None and floor > ceiling:
        raise InvalidConstraintError(f"[model] floor {floor} above ceiling {ceiling}")
    return ModelParams(p=cfg.get("model", "p"), beta=cfg.get("model", "beta"),
                       boundary_spec=("all", integer("boundary", bspec[4:])),
                       floor_spec=floor, ceiling_spec=ceiling)


@dataclass
class RunManifest:
    config_hash: str
    pipeline: str
    module_version: str
    wall_clock_s: float
    artifacts: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def comparable(self):
        """Everything except the wall clock; replays must reproduce this."""
        return {"config_hash": self.config_hash, "pipeline": self.pipeline,
                "module_version": self.module_version,
                "artifacts": sorted(self.artifacts), "summary": self.summary}

    def save(self, path):
        payload = dict(self.comparable())
        payload["wall_clock_s"] = round(self.wall_clock_s, 3)
        write_json(path, payload)

    def check_artifacts(self, base_dir):
        missing = [a for a in self.artifacts
                   if not os.path.exists(os.path.join(base_dir, a))]
        if missing:
            raise ConfigError(f"manifest lists missing artifacts: {missing}")
        return True


def write_json(path, obj):
    """Every JSON artifact's format: indented, keys sorted, newline-ended."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
