import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcalc import ConfigError, CovarianceSet, SigmaBand, g_matrix, g_scalar, g_value, load_uncertainty


def brute_force_g_band(lo, hi, a, n=101):
    """Independent oracle: direct sup of sigma^2 * a / 2 over a variance grid."""
    sig2 = np.linspace(lo, hi, n)
    return 0.5 * np.max(sig2 * a)


def brute_force_g_set(members, a):
    return 0.5 * max(np.trace(m @ a) for m in members)


class TestSigmaBand:
    def test_rejects_degenerate_lo(self):
        with pytest.raises(ValueError):
            SigmaBand(0.0, 2.0)
        with pytest.raises(ValueError):
            SigmaBand(-1.0, 2.0)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            SigmaBand(2.0, 1.0)

    def test_zero_width_allowed(self):
        band = SigmaBand(1.5, 1.5)
        assert band.width == 0.0

    def test_embeds_as_two_member_set(self):
        cs = SigmaBand(1.0, 2.0).as_covariance_set()
        assert cs.dim == 1 and len(cs) == 2
        assert cs.members[0][0, 0] == 1.0 and cs.members[1][0, 0] == 2.0


class TestGScalar:
    def test_zero(self):
        assert g_scalar(SigmaBand(1.0, 2.0), 0.0) == 0.0

    def test_positive_argument(self):
        # frozen from the brute-force grid oracle
        band = SigmaBand(1.0, 2.0)
        assert g_scalar(band, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert g_scalar(band, 1.0) == pytest.approx(brute_force_g_band(1.0, 2.0, 1.0), abs=1e-12)

    def test_negative_argument(self):
        band = SigmaBand(1.0, 2.0)
        assert g_scalar(band, -1.0) == pytest.approx(-0.5, abs=1e-15)
        assert g_scalar(band, -1.0) == pytest.approx(brute_force_g_band(1.0, 2.0, -1.0), abs=1e-12)

    def test_vectorised(self):
        band = SigmaBand(1.0, 2.0)
        a = np.array([-2.0, 0.0, 3.0])
        assert np.allclose(g_scalar(band, a), [-1.0, 0.0, 3.0])

    def test_band_extreme_equivalence(self):
        # the objective is linear in sigma^2, so the interval sup sits at an endpoint
        rng = np.random.default_rng(0)
        band = SigmaBand(0.7, 3.1)
        for a in rng.normal(size=50) * 4:
            interval = brute_force_g_band(0.7, 3.1, a, n=2001)
            endpoints = 0.5 * max(0.7 * a, 3.1 * a)
            assert interval == pytest.approx(endpoints, abs=1e-12)
            assert g_scalar(band, a) == pytest.approx(endpoints, rel=1e-14)


def ref_g_scalar(band, a, out=None):
    """Reference: the (hi*a_plus - lo*a_minus)/2 form g_scalar computed
    before its five-ufunc max form."""
    a = np.asarray(a, dtype=float)
    minus = np.negative(a, out=np.empty(a.shape))
    np.maximum(minus, 0.0, out=minus)
    np.multiply(band.sigma2_lo, minus, out=minus)
    val = np.maximum(a, 0.0, out=np.empty(a.shape) if out is None else out)
    np.multiply(band.sigma2_hi, val, out=val)
    np.subtract(val, minus, out=val)
    np.multiply(0.5, val, out=val)
    return float(val) if val.ndim == 0 else val


def assert_same_bits(got, want):
    """Equal bit for bit where want is not NaN; NaN exactly where want is."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    bad = (got.view(np.uint64) != want.view(np.uint64)) & ~nan
    assert not bad.any(), (got[bad][:5], want[bad][:5])


G_BANDS = [SigmaBand(1.0, 2.0), SigmaBand(1.5, 1.5), SigmaBand(0.01, 4.0), SigmaBand(1e-300, 1e300)]
# signed zeros, subnormals, the normal/subnormal boundary, near-overflow, inf, NaN
G_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                      -2.2250738585072014e-308, 1e-300, -1e-300, 1e308, -1e308,
                      1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf,
                      np.nan, -np.nan, 1.0, -1.0])


def random_doubles(n, seed):
    """n random 64-bit patterns (every exponent equally likely) and the specials."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64)
    return np.concatenate([bits.view(np.float64), G_SPECIAL])


class TestGScalarBits:
    """g_scalar's max form is the a_plus/a_minus form bit for bit."""

    @pytest.mark.parametrize("band", G_BANDS)
    def test_random_bit_patterns(self, band):
        a = random_doubles(100_000, 11)
        with np.errstate(all="ignore"):
            assert_same_bits(g_scalar(band, a), ref_g_scalar(band, a))
            # a strided view takes numpy's other inner loops
            assert_same_bits(g_scalar(band, a[::3]), ref_g_scalar(band, a[::3]))

    @pytest.mark.parametrize("band", G_BANDS)
    def test_in_place_and_scalars(self, band):
        a = random_doubles(2_000, 12)
        with np.errstate(all="ignore"):
            want = ref_g_scalar(band, a)
            inplace = a.copy()
            assert g_scalar(band, inplace, out=inplace) is inplace
            assert_same_bits(inplace, want)
            for x, w in zip(a[-len(G_SPECIAL) - 200:], want[-len(G_SPECIAL) - 200:]):
                got = g_scalar(band, x)
                assert type(got) is float
                assert_same_bits(got, w)

    @given(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(G_BANDS))
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, a, band):
        with np.errstate(all="ignore"):
            assert_same_bits(g_scalar(band, a), ref_g_scalar(band, a))
            assert_same_bits(g_scalar(band, np.array([a, -a])), ref_g_scalar(band, np.array([a, -a])))


class TestGMatrix:
    def test_single_member_identity(self):
        cs = CovarianceSet(2, [np.eye(2)])
        assert g_matrix(cs, np.eye(2)) == pytest.approx(1.0)

    def test_agrees_with_scalar_in_1d(self):
        cs = CovarianceSet(1, [[[1.0]], [[2.0]]])
        assert g_matrix(cs, [[1.0]]) == pytest.approx(g_scalar(SigmaBand(1.0, 2.0), 1.0))

    def test_two_member_diagonal(self):
        cs = CovarianceSet(2, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        a = np.diag([4.0, -4.0])
        assert g_matrix(cs, a) == pytest.approx(2.0)
        assert g_matrix(cs, a) == pytest.approx(brute_force_g_set(cs.members, a))

    def test_dimension_mismatch(self):
        cs = CovarianceSet(2, [np.eye(2)])
        with pytest.raises(ConfigError):
            g_matrix(cs, np.eye(3))

    def test_stacked_input(self):
        cs = CovarianceSet(2, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        stack = np.stack([np.diag([4.0, -4.0]), np.eye(2)])
        out = g_matrix(cs, stack)
        assert out.shape == (2,)
        assert np.allclose(out, [2.0, 0.5])

    def test_rejects_asymmetric_member(self):
        with pytest.raises(ValueError):
            CovarianceSet(2, [np.array([[1.0, 0.5], [0.0, 1.0]])])

    def test_rejects_indefinite_member(self):
        with pytest.raises(ValueError):
            CovarianceSet(2, [np.diag([1.0, -0.5])])


def random_symmetric(rng, d):
    m = rng.normal(size=(d, d))
    return 0.5 * (m + m.T)


def random_psd(rng, d):
    m = rng.normal(size=(d, d))
    return m @ m.T


@pytest.fixture(scope="module")
def sets():
    rng = np.random.default_rng(42)
    cs = CovarianceSet(3, [random_psd(rng, 3) for _ in range(4)])
    return SigmaBand(0.5, 2.5), cs


class TestGProperties:
    def test_sublinearity(self, sets):
        band, cs = sets
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, b = rng.normal(size=2) * 5
            assert g_scalar(band, a + b) <= g_scalar(band, a) + g_scalar(band, b) + 1e-10
        for _ in range(1000):
            a = random_symmetric(rng, 3)
            b = random_symmetric(rng, 3)
            assert g_matrix(cs, a + b) <= g_matrix(cs, a) + g_matrix(cs, b) + 1e-10

    def test_monotonicity(self, sets):
        band, cs = sets
        rng = np.random.default_rng(2)
        for _ in range(300):
            a = random_symmetric(rng, 3)
            b = a + random_psd(rng, 3)  # a <= b in the semidefinite order
            assert np.min(np.linalg.eigvalsh(b - a)) >= -1e-12
            assert g_matrix(cs, a) <= g_matrix(cs, b) + 1e-10
        for _ in range(300):
            a = rng.normal() * 3
            b = a + abs(rng.normal())
            assert g_scalar(band, a) <= g_scalar(band, b) + 1e-10

    def test_positive_homogeneity(self, sets):
        band, cs = sets
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = random_symmetric(rng, 3)
            lam = abs(rng.normal()) * 3
            assert g_matrix(cs, lam * a) == pytest.approx(lam * g_matrix(cs, a), rel=1e-12, abs=1e-12)
            s = rng.normal() * 2
            assert g_scalar(band, lam * s) == pytest.approx(lam * g_scalar(band, s), rel=1e-12, abs=1e-12)

    def test_g_value_dispatch(self, sets):
        band, cs = sets
        assert g_value(band, -2.0) == g_scalar(band, -2.0)
        assert g_value(band, [[-2.0]]) == g_scalar(band, -2.0)
        a = random_symmetric(np.random.default_rng(5), 3)
        assert g_value(cs, a) == g_matrix(cs, a)


class TestLoading:
    def test_band_from_dict(self):
        band = load_uncertainty({"band": [1.0, 2.0]})
        assert isinstance(band, SigmaBand)
        assert (band.sigma2_lo, band.sigma2_hi) == (1.0, 2.0)

    def test_members_from_json_text(self):
        obj = json.dumps({"dim": 2, "members": [[1.0, 0.0, 0.0, 1.0]]})
        cs = load_uncertainty(obj)
        assert isinstance(cs, CovarianceSet)
        assert np.array_equal(cs.members[0], np.eye(2))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            load_uncertainty({"bands": [1, 2]})
        with pytest.raises(ValueError):
            load_uncertainty({"band": [1.0]})
