import numpy as np
import pytest

from ssnmf.exceptions import ConfigError
from ssnmf.rng import substream


def test_same_tags_same_stream():
    a = substream(0, "init").random(10)
    b = substream(0, "init").random(10)
    assert (a == b).all()


def test_different_tags_diverge():
    a = substream(0, "init").random(10)
    b = substream(0, "sample").random(10)
    assert (a != b).any()


def test_different_seeds_diverge():
    a = substream(0, "init").random(10)
    b = substream(1, "init").random(10)
    assert (a != b).any()


def test_mixed_tag_types():
    a = substream(7, "x", 3, 1).random(4)
    b = substream(7, "x", 3, 1).random(4)
    c = substream(7, "x", 3, 2).random(4)
    assert (a == b).all()
    assert (a != c).any()


@pytest.mark.parametrize("seed", [-1, 2**32, 2**32 + 7, -(2**32)])
def test_seed_outside_one_entropy_word_is_a_config_error(seed):
    # masking such a seed to 32 bits would alias it with a valid one
    with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*32\)"):
        substream(seed, "init")


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
def test_valid_seed_stream_is_the_seed_word_then_the_tags(seed):
    want = np.random.default_rng(np.random.SeedSequence([seed, 3])).random(4)
    assert (substream(seed, 3).random(4) == want).all()
