"""Run-wide configuration and error types."""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_BRUTE_FORCE_BUDGET = 10**6   # max triples an exhaustive scan may visit
DEFAULT_PSI_SCAN_CAP = 10**7         # max residues a psi residue scan may examine
OUTPUT_FORMATS = ("plain", "json", "csv")

ENV_PREFIX = "THK_"


class BudgetExceededError(RuntimeError):
    """A configured work budget (brute-force triples or psi scan cap) was hit.

    Raised instead of silently truncating; the caller decides whether to retry
    with a larger budget.
    """


@dataclass
class RunConfig:
    brute_force_budget: int = DEFAULT_BRUTE_FORCE_BUDGET
    psi_scan_cap: int = DEFAULT_PSI_SCAN_CAP
    output_format: str = "plain"

    def __post_init__(self) -> None:
        if self.brute_force_budget <= 0:
            raise ValueError("brute_force_budget must be positive")
        if self.psi_scan_cap <= 0:
            raise ValueError("psi_scan_cap must be positive")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"output_format must be one of {OUTPUT_FORMATS}")


def config_from_env(**overrides) -> RunConfig:
    """Build a RunConfig from THK_* environment variables plus explicit overrides.

    Recognized variables: THK_BUDGET, THK_PSI_CAP, THK_FORMAT.  Explicit
    keyword overrides win over the environment.
    """
    values = {}
    mapping = {
        "BUDGET": ("brute_force_budget", int),
        "PSI_CAP": ("psi_scan_cap", int),
        "FORMAT": ("output_format", str),
    }
    for suffix, (field, cast) in mapping.items():
        raw = os.environ.get(ENV_PREFIX + suffix)
        if raw is not None:
            try:
                values[field] = cast(raw)
            except ValueError as exc:
                raise ValueError(f"bad {ENV_PREFIX}{suffix}={raw!r}") from exc
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    return RunConfig(**values)
