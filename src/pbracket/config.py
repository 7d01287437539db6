"""Engine configuration: the calibrated convention tuple plus the default
signature size, persisted as plain JSON.

Resolution order: explicit path argument, then the PBRACKET_CONFIG
environment variable, then built-in defaults.  A path that is given but does
not exist is an error; silence would hide a misconfigured environment.
"""

from __future__ import annotations

import os
from typing import Optional

from .group_algebra import ConventionTuple, GroupSignature, require_int
from .terms import Record

__all__ = ["ENV_VAR", "MAX_DOF", "EngineConfig", "load_config", "save_config", "resolve_config"]

ENV_VAR = "PBRACKET_CONFIG"

# Degrees of freedom per sector a configuration may ask for.  run_verify takes
# about 2 s at 64 (in process, Python 3.11, 2-core Xeon), more than linearly past.
MAX_DOF = 64


class EngineConfig(Record):
    _fields = ("convention", "dof")

    def __init__(self, convention: ConventionTuple, dof: int = 1):
        if not isinstance(convention, ConventionTuple):
            raise ValueError(f"convention must be a ConventionTuple, got {convention!r}")
        if not 1 <= require_int(dof, "dof") <= MAX_DOF:
            raise ValueError(f"dof must be an integer from 1 to {MAX_DOF}, got {dof}")
        self._freeze(convention, dof)

    @classmethod
    def default(cls) -> "EngineConfig":
        return cls(ConventionTuple.standard(), 1)

    def signature(self) -> GroupSignature:
        return GroupSignature(self.dof, self.convention)

    def to_json(self) -> dict:
        return {"convention": self.convention.to_json(), "dof": self.dof}

    @classmethod
    def from_json(cls, data: dict) -> "EngineConfig":
        """Inverse of to_json; a field of the wrong shape is a ValueError
        that names it."""
        if not isinstance(data, dict):
            raise ValueError(f"configuration must be a JSON object, got {type(data).__name__}")
        return cls(ConventionTuple.from_json(data["convention"]),
                   require_int(data.get("dof", 1), "dof"))


def load_config(path: str) -> EngineConfig:
    import json
    with open(path, "r", encoding="utf-8") as fh:
        return EngineConfig.from_json(json.load(fh))


def save_config(config: EngineConfig, path: str) -> None:
    import json
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def resolve_config(path: Optional[str] = None) -> EngineConfig:
    if path is not None:
        return load_config(path)
    env_path = os.environ.get(ENV_VAR)
    if env_path:
        return load_config(env_path)
    return EngineConfig.default()
