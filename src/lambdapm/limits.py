"""The output cap shared by the layers whose results can grow
factorially: function spaces and resource contraction."""

from __future__ import annotations

import os

DEFAULT_CAP = 100_000


def cap() -> int:
    """LAMBDA_PM_CAP, or DEFAULT_CAP when it is not set."""
    raw = os.environ.get("LAMBDA_PM_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"LAMBDA_PM_CAP must be an integer, got {raw!r}") from None


class CapExceeded(RuntimeError):
    pass
