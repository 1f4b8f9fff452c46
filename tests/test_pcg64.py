"""``_pcg64`` draws what ``np.random.default_rng`` draws, and random charts stay pinned."""

import math

import numpy as np
import pytest

from nilgauss import exp_model, heisenberg
from nilgauss._pcg64 import PCG64Stream, round6
from nilgauss.surfaces import RANDOM_COEFF_SCALE, _random_graph_components
from conftest import free_two_step_5d

SEEDS = list(range(5000)) + [2**32 - 1, 2**32, 2**64 + 3, 2**128, 2**200 + 12345]


def draws(rng):
    """The draws of one random chart term for every dimension from 2 to 17, interleaving
    buffered 32-bit halves with 64-bit outputs; a range of one value comes first."""
    out = []
    for dim in range(2, 18):
        out += [int(rng.integers(1, dim)), int(rng.integers(0, 4)), float(rng.uniform(-0.35, 0.35))]
    return out


def test_stream_equals_default_rng():
    mismatched = [seed for seed in SEEDS if draws(PCG64Stream(seed)) != draws(np.random.default_rng(seed))]
    assert mismatched == []


@pytest.mark.parametrize("span", [3 << 30, (1 << 31) + 1, (1 << 32) - 1])
def test_rejected_draws_are_redrawn_as_numpy_does(span):
    """Ranges where Lemire's method rejects a quarter and a half of all 32-bit draws,
    and the widest range it serves."""
    for seed in range(50):
        ours, theirs = PCG64Stream(seed), np.random.default_rng(seed)
        assert [ours.integers(0, span) for _ in range(20)] == [int(theirs.integers(0, span)) for _ in range(20)]


def test_a_range_of_one_value_draws_nothing():
    rng = PCG64Stream(7)
    rng.integers(0, 4)
    before = (rng.state, rng.half)
    assert rng.integers(1, 2) == 1
    assert (rng.state, rng.half) == before


@pytest.mark.parametrize("low, high", [(0, 0), (3, 1), (0, 1 << 32)])
def test_ranges_outside_the_32_bit_method_raise(low, high):
    with pytest.raises(ValueError, match="the range must hold"):
        PCG64Stream(0).integers(low, high)


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_negative_seed_raises_numpys_error(seed):
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        PCG64Stream(seed)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        np.random.default_rng(seed)


def test_rounding_equals_numpy_round():
    """Ties of the sixth decimal and their neighbours (where Python's ``round(x, 6)``
    differs), signed zeros, tiny values and the chart coefficients' own draws."""
    halves = [(k + 0.5) / 1e6 for k in range(-350_000, 350_000, 997)]
    values = [0.0, -0.0, 1e-300, -1e-300, 4.9e-7, -4.9e-7, 5e-7, -5e-7, RANDOM_COEFF_SCALE, -RANDOM_COEFF_SCALE]
    values += halves + [math.nextafter(x, s) for x in halves for s in (-1.0, 1.0)]
    for seed in range(200):
        rng = PCG64Stream(seed)
        values += [rng.uniform(-RANDOM_COEFF_SCALE, RANDOM_COEFF_SCALE) for _ in range(4)]
    assert [repr(round6(x)) for x in values] == [repr(float(np.round(x, 6))) for x in values]


# (seed, index, model, terms) -> the graph's height expression, as NumPy 2.4 draws it
PINNED = [
    (0, 0, exp_model(heisenberg(1)), 3,
     "-0.321319*cos(u2) + 0.219289*u1*u1 + 0.160648*sin(u2)"),
    (5, 2, exp_model(heisenberg(2)), 4,
     "0.19298*cos(u3) + -0.139884*cos(u4) + 0.22486*u4*u4 + -0.022446*u1"),
    (21, 3, exp_model(heisenberg(3)), 4,
     "0.052316*u2*u5 + 0.044949*u1*u4 + -0.289499*sin(u4) + 0.224257*cos(u5)"),
    (10**40, 1, exp_model(free_two_step_5d()), 6,
     "-0.330978*sin(u2) + 0.007901*u1*u4 + -0.041667*u2 + 0.009925*cos(u3) + -0.268107*cos(u2)"
     " + 0.290505*cos(u4)"),
]


@pytest.mark.parametrize("seed, index, model, terms, height", PINNED, ids=["h1", "h2", "h3", "free5"])
def test_random_graph_components_are_pinned(seed, index, model, terms, height):
    params = {"terms": terms, "index": index}
    comps = _random_graph_components(model, params, None, seed)
    assert comps == [f"u{i}" for i in range(1, model.dim)] + [height]
    generator = np.random.default_rng(seed + index)
    assert _random_graph_components(model, dict(params, index=0), None, generator) == comps
