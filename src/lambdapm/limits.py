"""The output cap shared by the layers whose results can grow
factorially: function spaces and resource contraction."""

from __future__ import annotations

import os
from itertools import islice

DEFAULT_CAP = 100_000


def within_cap(items, message: str) -> list:
    """The items as a list, taking at most cap + 1 of them, where the cap is
    LAMBDA_PM_CAP, or DEFAULT_CAP when it is not set.  Past the cap, raises
    CapExceeded with `message`, its `{cap}` filled in."""
    raw = os.environ.get("LAMBDA_PM_CAP")
    try:
        cap = DEFAULT_CAP if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"LAMBDA_PM_CAP must be an integer, got {raw!r}") from None
    out = list(islice(items, cap + 1))
    if len(out) > cap:
        raise CapExceeded(message.format(cap=cap))
    return out


class CapExceeded(RuntimeError):
    pass
