"""Each output check passes a right output and fails a deliberately wrong one."""

import numpy as np
import pytest

import checks


def signal(n=4800, seed=0):
    return np.random.default_rng(seed).uniform(-0.5, 0.5, n).astype(np.float32)


def flip_bit(x, index, bit=0):
    y = x.copy()
    y.view(np.uint32)[index] ^= np.uint32(1 << bit)
    return y


class TestLengthAndFinite:

    def test_pass(self):
        assert checks.length_and_finite(signal(), 4800) is None

    def test_wrong_length(self):
        assert "4799 samples" in checks.length_and_finite(signal()[:-1], 4800)

    def test_nan(self):
        x = signal()
        x[17] = np.nan
        assert "first at 17" in checks.length_and_finite(x, 4800)


class TestEmissionSchedule:

    def test_hop_pushes_pass(self):
        returned = [0, 0, 0] + [128] * 20
        assert checks.emission_schedule([128] * 23, returned) is None

    def test_uneven_pushes_pass(self):
        # 500 in: nothing; 600 in: frame 0; 900 in: frames 1 to 3
        assert checks.emission_schedule([500, 100, 300], [0, 128, 384]) is None

    def test_early_emission_fails(self):
        returned = [0, 0, 128, 0] + [128] * 19
        assert "push 2" in checks.emission_schedule([128] * 23, returned)

    def test_shifted_emission_fails(self):
        returned = [0, 0, 0, 0, 256] + [128] * 18
        assert "push 3" in checks.emission_schedule([128] * 23, returned)


class TestPrefixIdentical:

    def test_identical_passes(self):
        x = signal()
        assert checks.prefix_identical(x, x.copy(), 4000) is None

    def test_one_flipped_bit_fails(self):
        x = signal()
        assert "first at 1234" in checks.prefix_identical(flip_bit(x, 1234), x, 4000)

    def test_difference_past_prefix_ignored(self):
        x = signal()
        assert checks.prefix_identical(flip_bit(x, 4500), x, 4000) is None

    def test_short_reference_fails(self):
        x = signal()
        assert checks.prefix_identical(x, x[:100], 4000) is not None

    def test_digest_sees_one_bit(self):
        x = signal()
        assert checks.digest(x) == checks.digest(x.copy())
        assert checks.digest(flip_bit(x, 4799)) != checks.digest(x)


class TestConstantMask:

    C = 0.625

    def test_exact_scaling_passes(self):
        x = signal()
        assert checks.constant_mask((self.C * x).astype(np.float32), x, self.C) is None

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_ulp_beyond_tolerance_fails(self, sign):
        x = signal()
        tol = checks.constant_mask_tolerance(x, self.C)
        out = (self.C * x).astype(np.float32)
        i = 321
        expected = self.C * float(x[i])
        edge = np.float32(expected + sign * tol)
        # step to the first float32 strictly beyond the tolerance
        while abs(float(edge) - expected) <= tol:
            edge = np.nextafter(edge, np.float32(sign * np.inf))
        out[i] = edge
        assert "sample 321" in checks.constant_mask(out, x, self.C)
        out[i] = np.nextafter(edge, np.float32(-sign * np.inf))
        assert checks.constant_mask(out, x, self.C) is None

    def test_wrong_constant_fails(self):
        x = signal()
        assert checks.constant_mask((0.626 * x).astype(np.float32), x, self.C) is not None
