"""Run-wide configuration and error types."""

from __future__ import annotations

import os
from collections import namedtuple

DEFAULT_BRUTE_FORCE_BUDGET = 10**6   # max triples an exhaustive scan may visit
DEFAULT_PSI_SCAN_CAP = 10**7         # max residues a psi residue scan may examine
OUTPUT_FORMATS = ("plain", "json", "csv")

ENV_PREFIX = "THK_"


class BudgetExceededError(RuntimeError):
    """A work budget or a fixed limit of the program was hit.

    The configurable budgets are the brute-force triples and the psi scan
    cap.  The fixed limits are the sieve ceiling (zmod.SIEVE_CEILING), the
    factoring budget of zmod.factor, primality above the Miller-Rabin proof
    bound (about 3.3 * 10^24) in zmod.is_prime, and, in the CLI, an integer
    with more digits than the interpreter will print.  Raised instead of
    silently truncating; the caller decides whether to retry with a larger
    budget.
    """


class RunConfig(namedtuple("RunConfig", "brute_force_budget psi_scan_cap output_format")):
    __slots__ = ()

    def __new__(
        cls,
        brute_force_budget: int = DEFAULT_BRUTE_FORCE_BUDGET,
        psi_scan_cap: int = DEFAULT_PSI_SCAN_CAP,
        output_format: str = "plain",
    ) -> "RunConfig":
        if brute_force_budget <= 0:
            raise ValueError("brute_force_budget must be positive")
        if psi_scan_cap <= 0:
            raise ValueError("psi_scan_cap must be positive")
        if output_format not in OUTPUT_FORMATS:
            raise ValueError(f"output_format must be one of {OUTPUT_FORMATS}")
        return super().__new__(cls, brute_force_budget, psi_scan_cap, output_format)


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
