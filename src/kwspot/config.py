"""Sectioned key-value configuration for the pipeline CLI.

One static file holds paths plus the per-module parameter blocks; any field
can be overridden from the command line.  Defaults follow the documented
operating point (beam 10, bias alpha=1 beta=4, fuzzy threshold 0.5).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .decoder import BeamConfig, BiasConfig
from .errors import read_text
from .kws import KwsConfig
from .metrics import EvalConfig
from .pgram import DEFAULT_FRAME_PERIOD_S, SynthConfig


@dataclass
class Paths:
    char_units: str = ""
    syll_units: str = ""
    lexicon: str = ""
    char_lm: str = ""
    syll_lm: str = ""
    keywords: str = ""
    cost_table: str = ""


@dataclass
class PipelineConfig:
    paths: Paths = field(default_factory=Paths)
    beam: BeamConfig = field(default_factory=BeamConfig)
    bias: BiasConfig = field(default_factory=BiasConfig)
    kws: KwsConfig = field(default_factory=KwsConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    frame_period_s: float = DEFAULT_FRAME_PERIOD_S
    seed: int = 0
    jobs: int = 1


_SECTIONS = {"paths": Paths, "beam": BeamConfig, "bias": BiasConfig,
             "kws": KwsConfig, "eval": EvalConfig, "synth": SynthConfig}
# fields a file may not set: built in code (confusion tables) or derived for
# each run (the synth seed from the run seed, speech time from the pgrams)
_NOT_SETTABLE = {"confusion", "seed", "total_speech_s"}


def _coerce(raw: str, target_type, where: str):
    """raw as target_type; a NaN float is a ValueError naming ``where``."""
    if target_type is bool:
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        except KeyError:
            raise ValueError(f"not a boolean: {raw!r}") from None
    if target_type is int:
        return int(raw)
    if target_type is float:
        value = float(raw)
        if math.isnan(value):
            raise ValueError(f"{where}: not a number: {raw!r}")
        return value
    return raw


def load_config(path) -> PipelineConfig:
    """Read an INI config; any section, key or value it cannot use is a
    ValueError, never skipped."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(read_text(path, ValueError), source=str(path))
        sections = {name: parser.items(name) for name in parser.sections()}
    except configparser.Error as exc:
        raise ValueError(f"{path}: {exc}") from None
    unknown = sorted(set(sections) - set(_SECTIONS) - {"run"})
    if unknown:
        raise ValueError(f"unknown section(s) {unknown} in {path}")
    cfg = PipelineConfig()
    for section, cls in _SECTIONS.items():
        if section not in sections:
            continue
        kwargs = {}
        by_name = {f.name: f for f in fields(cls) if f.name not in _NOT_SETTABLE}
        for key, raw in sections[section]:
            if key not in by_name:
                raise ValueError(f"unknown key {key!r} in [{section}]")
            default = by_name[key].default
            target = float if default is None else type(default)
            kwargs[key] = _coerce(raw, target, f"[{section}] {key}")
        setattr(cfg, section, cls(**kwargs))
    for key, raw in sections.get("run", []):
        if key not in ("seed", "jobs", "frame_period_s"):
            raise ValueError(f"unknown key {key!r} in [run]")
        setattr(cfg, key, _coerce(raw, type(getattr(cfg, key)),
                                  f"[run] {key}"))
    if not (math.isfinite(cfg.frame_period_s) and cfg.frame_period_s > 0):
        raise ValueError(f"[run] frame_period_s must be finite and > 0, got "
                         f"{cfg.frame_period_s}")
    return cfg
