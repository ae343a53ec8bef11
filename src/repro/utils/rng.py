"""Random-number-generator plumbing.

Every stochastic component in the library takes an explicit seed or
:class:`numpy.random.Generator`.  :func:`as_generator` normalizes what
callers pass in, so an experiment seeded once is reproducible end to end.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]

__all__ = ["as_generator", "SeedLike"]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Accepts ``None`` (fresh entropy), an integer seed, a
    :class:`~numpy.random.SeedSequence`, or an existing generator (returned
    unchanged so callers can thread a single generator through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)
