"""Deterministic random streams.

Every source of randomness in the package flows from a single integer seed.
Independent purposes (initialization, noise sampling, splitting) get their own
named substream so that adding draws to one purpose never perturbs another.
"""

import zlib

import numpy as np

from .exceptions import ConfigError


def substream(seed: int, *tags) -> np.random.Generator:
    """Return a Generator for the given seed and purpose tags.

    Tags may be strings or integers. The same (seed, tags) pair always yields
    the same stream, independent of call order elsewhere in the program. A
    seed outside [0, 2**32), one entropy word, is a ConfigError.
    """
    if not 0 <= int(seed) < 2**32:
        raise ConfigError(f"seed must be in [0, 2**32), got {seed}")
    words = [int(seed)]
    for tag in tags:
        if isinstance(tag, str):
            words.append(zlib.crc32(tag.encode("utf-8")))
        else:
            words.append(int(tag) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy=words))
