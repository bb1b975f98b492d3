import numpy as np
import pytest

from macfb.channel import Alphabets, MessageSpace, PRESET_NAMES, preset, validate_channel
from macfb.errors import NegativeEntry, NonStochastic, ParamOutOfRange, UnknownPreset


def test_message_space_pairs():
    assert MessageSpace(3, 4).pairs == 12


@pytest.mark.parametrize("make", [lambda v: MessageSpace(v, 2), lambda v: MessageSpace(2, v),
                                  lambda v: Alphabets(v, 2, 3), lambda v: Alphabets(2, 2, v)],
                         ids=["m1", "m2", "x1", "y"])
def test_sizes_take_integers_not_booleans(make):
    # a numpy integer is stored as a plain int, equal and hashed as one
    sized = make(np.int64(2))
    assert sized == make(2) and hash(sized) == hash(make(2))
    assert all(type(v) is int for v in vars(sized).values())
    # True used to build a one-message sender; a float or a string is no size
    for bad in (True, False, np.True_, 0, -1, 2.0, "2", None):
        with pytest.raises(ValueError, match="must be a positive integer"):
            make(bad)


def test_adder_kernel_is_deterministic_sum():
    ch = preset("adder")
    assert ch.kernel.shape == (3, 2, 2)
    for x1 in range(2):
        for x2 in range(2):
            expected = np.zeros(3)
            expected[x1 + x2] = 1.0
            assert np.array_equal(ch.kernel[:, x1, x2], expected)


def test_multiplier_kernel():
    ch = preset("multiplier")
    assert ch.kernel.shape == (2, 2, 2)
    for x1 in range(2):
        for x2 in range(2):
            assert ch.kernel[x1 * x2, x1, x2] == 1.0


def test_noisy_adder_zero_noise_equals_adder():
    assert np.allclose(preset("noisy_adder", (0.0,)).kernel, preset("adder").kernel)


def test_noisy_adder_crossover_mass():
    eps = 0.3
    ch = preset("noisy_adder", (eps,))
    for x1 in range(2):
        for x2 in range(2):
            col = ch.kernel[:, x1, x2]
            assert col[x1 + x2] == pytest.approx(1.0 - eps)
            assert col.sum() == pytest.approx(1.0)


def test_bsc_p2p_shape_and_crossover():
    ch = preset("bsc_p2p", (0.1,))
    assert ch.alphabets == Alphabets(2, 1, 2)
    assert ch.kernel[0, 0, 0] == pytest.approx(0.9)
    assert ch.kernel[1, 0, 0] == pytest.approx(0.1)


def test_useless_default_and_sized():
    ch = preset("useless")
    assert ch.kernel.shape == (2, 2, 2)
    assert np.all(ch.kernel == 0.5)
    sized = preset("useless", (3, 2, 4))
    assert sized.kernel.shape == (4, 3, 2)
    assert np.all(sized.kernel == 0.25)


def test_all_presets_are_stochastic():
    for name in PRESET_NAMES:
        params = {"noisy_adder": (0.2,), "bsc_p2p": (0.3,)}.get(name, ())
        ch = preset(name, params)
        assert np.allclose(ch.kernel.sum(axis=0), 1.0)
        assert ch.n_outputs == ch.kernel.shape[0]


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("carrier_pigeon")


@pytest.mark.parametrize(
    "name,params",
    [
        ("bsc_p2p", (1.5,)),
        ("bsc_p2p", ()),
        ("noisy_adder", (-0.1,)),
        ("useless", (2, 2)),
        ("useless", (float("inf"), 2, 2)),
        ("useless", (2, float("nan"), 2)),
        ("adder", (0.3,)),
        ("multiplier", (5.0, 1.0)),
    ],
)
def test_param_out_of_range(name, params):
    with pytest.raises(ParamOutOfRange):
        preset(name, params)


def test_validate_rejects_negative_entry():
    q = np.full((2, 1, 1), 0.5)
    q[0, 0, 0] = -0.5
    q[1, 0, 0] = 1.5
    with pytest.raises(NegativeEntry):
        validate_channel(q)


def test_validate_rejects_bad_column_sum():
    q = np.full((2, 2, 1), 0.4)
    with pytest.raises(NonStochastic):
        validate_channel(q)


def test_validate_accepts_tiny_slack():
    q = np.array([[[0.5]], [[0.5 + 2e-10]]])
    ch = validate_channel(q)
    assert ch.alphabets == Alphabets(1, 1, 2)


def test_validate_rejects_nan_entry():
    q = np.full((2, 1, 2), 0.5)
    q[0, 0, 0] = np.nan
    with pytest.raises(NonStochastic):
        validate_channel(q)
