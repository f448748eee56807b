import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import uniform_filter1d
from scipy.stats import norm
from sync_oracle import correlates, estimate_delay_all_lags, lag_correlation

from climbdetect import sync
from climbdetect.errors import InsufficientOverlap, TooFewSamples
from climbdetect.series import H0, H1, AnnotationTrack, SensorSite, SignalSeries
from climbdetect.sync import (TrajectorySeries, estimate_delay,
                              shift_annotations, trajectory_to_acceleration)


def smooth_signal(n, seed, dt=0.01):
    rng = np.random.default_rng(seed)
    raw = rng.normal(0.0, 1.0, n)
    kernel = np.hanning(41)
    return SignalSeries(0.0, dt, np.convolve(raw, kernel / kernel.sum(), mode="same"))


class TestTrajectoryToAcceleration:
    def test_constant_position_gives_zero(self):
        traj = TrajectorySeries(0.0, 0.04, np.full(100, 1.5), np.full(100, 2.0))
        for window in (0.0, 0.3):
            vert = trajectory_to_acceleration(traj, smooth_window=window)
            assert np.allclose(vert.values, 0.0)

    def test_quadratic_is_exact(self):
        dt = 0.04
        t = dt * np.arange(200)
        traj = TrajectorySeries(0.0, dt, 0.3 * t**2, -1.1 * t**2)
        for window in (0.0, 0.3):
            vert = trajectory_to_acceleration(traj, smooth_window=window)
            np.testing.assert_allclose(vert.values, -2.2, atol=1e-6)

    def test_sinusoid_amplitude(self):
        # 25 samples per period
        dt = 0.04
        period = 1.0
        omega = 2 * np.pi / period
        t = dt * np.arange(500)
        amp = 0.7
        traj = TrajectorySeries(0.0, dt, np.zeros_like(t), amp * np.sin(omega * t))
        vert = trajectory_to_acceleration(traj, smooth_window=0.0)
        measured = np.max(np.abs(vert.values[50:-50]))
        assert measured == pytest.approx(omega**2 * amp, rel=0.02)

    @pytest.mark.parametrize("smooth_window, window", [(0.0, 1), (0.04, 1), (0.3, 8), (0.36, 9)])
    def test_only_samples_wholly_inside_are_kept(self, smooth_window, window):
        # no window reaches past the ends: the series starts window // 2 + 1
        # samples late, and a straight line has no acceleration at its ends
        t = 2.0 + 0.04 * np.arange(750)
        vert = trajectory_to_acceleration(TrajectorySeries(2.0, 0.04, 0.1 * t, 0.05 * t),
                                          smooth_window)
        assert len(vert) == 750 - window - 1
        assert vert.t0 == 2.0 + (window // 2 + 1) * 0.04
        assert np.abs(vert.values).max() < 1e-9

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            trajectory_to_acceleration(
                TrajectorySeries(0.0, 0.04, np.zeros(4), np.zeros(4)))
        # an 8-sample window leaves three accelerations of 12 samples, none of 11
        with pytest.raises(TooFewSamples, match="need at least 12 trajectory samples"):
            trajectory_to_acceleration(TrajectorySeries(0.0, 0.04, np.zeros(11), np.zeros(11)))
        assert len(trajectory_to_acceleration(
            TrajectorySeries(0.0, 0.04, np.zeros(12), np.zeros(12)))) == 3

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 200), size=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e4]), offset=st.sampled_from([0.0, 1e4]),
           walk=st.booleans())
    def test_moving_average_is_scipys(self, n, size, seed, scale, offset, walk):
        # windows longer than the series included: they leave no sample
        x = np.random.default_rng(seed).normal(offset, scale, n)
        if walk:
            x = np.cumsum(x)
        inside = uniform_filter1d(x, size, origin=-(size // 2))[:max(n - size + 1, 0)]
        assert np.array_equal(sync._moving_average(x, size), inside)


class TestEstimateDelay:
    def test_identical_signals(self):
        a = smooth_signal(3000, seed=1)
        delay, corr, p_value, _ = estimate_delay(a, a, max_lag=5.0)
        assert delay == 0.0
        assert corr == pytest.approx(1.0, abs=1e-9)
        assert p_value < 1e-12

    def test_constructed_shift(self):
        a = smooth_signal(5000, seed=2)
        shifted = np.concatenate([np.zeros(147), a.values[:-147]])
        b = SignalSeries(0.0, a.dt, shifted)
        delay, corr, _, _ = estimate_delay(a, b, max_lag=3.0)
        assert delay == pytest.approx(1.47, abs=1e-9)
        assert corr > 0.95

    def test_antisymmetry(self):
        a = smooth_signal(4000, seed=3)
        b = SignalSeries(0.0, a.dt, np.roll(a.values, 80))
        d_ab = estimate_delay(a, b, max_lag=2.0)[0]
        d_ba = estimate_delay(b, a, max_lag=2.0)[0]
        assert d_ab == -d_ba

    def test_integer_shift_recovered_exactly(self):
        a = smooth_signal(4000, seed=4)
        for shift in (-120, -7, 0, 33, 150):
            b = SignalSeries(0.0, a.dt, np.roll(a.values, shift))
            delay = estimate_delay(a, b, max_lag=2.0)[0]
            assert delay == pytest.approx(shift * a.dt, abs=1e-12)

    def test_correlation_bounded(self):
        a = smooth_signal(2000, seed=7)
        rng = np.random.default_rng(8)
        b = SignalSeries(0.0, a.dt, rng.normal(0.0, 1.0, 2000))
        corr = estimate_delay(a, b, max_lag=1.0)[1]
        assert -1.0 <= corr <= 1.0

    def test_insufficient_overlap(self):
        a = smooth_signal(600, seed=9)  # 6 s at 100 Hz
        with pytest.raises(InsufficientOverlap):
            estimate_delay(a, a, max_lag=1.0)


DT = 0.1  # the 10 s minimum overlap is 100 samples


def _channel(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "integers":  # sums of products tie exactly
        return rng.integers(-2, 3, n).astype(float)
    if kind == "periodic":  # ties at every multiple of the period
        return np.tile(rng.integers(-2, 3, int(rng.integers(2, 7))), n)[:n].astype(float)
    if kind == "offset":  # at 1e-9 the uncentred np.std's rounding shows
        return 1e4 + rng.choice([1.0, 1e-9]) * rng.integers(-2, 3, n)
    if kind == "burst":  # windows in the quiet part hold a tiny share of the variance
        x = rng.integers(-2, 3, n).astype(float)
        x[n // 3:] *= 1e-5
        return x
    if kind == "zero":
        return np.zeros(n)
    return np.full(n, float(rng.choice([0.1, -3.0, 1e4 + 0.1])))  # constant


@st.composite
def delay_problems(draw):
    """Series a and b and a maximum lag up to the overlap limit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["integers", "integers", "periodic", "offset", "burst",
                             "zero", "constant"])
    n_a = draw(st.integers(100, 150))
    a = SignalSeries(0.0, DT, _channel(draw(kinds), n_a, rng))
    if draw(st.booleans()):  # b is a turned: periodic series then tie at many lags
        b = SignalSeries(0.0, DT, np.roll(a.values, draw(st.integers(-20, 20))))
    else:
        n_b = draw(st.one_of(st.just(n_a), st.integers(100, 150)))
        dt_b = DT * draw(st.sampled_from([1.0, 1.0, 0.5, 0.75, 2.0]))  # else resampled
        n_b = int(round((n_b - 1) * DT / dt_b)) + 1  # resampled to about n_b samples
        t0_b = draw(st.sampled_from([0.0, 0.3, -1.25]))
        b = SignalSeries(t0_b, dt_b, _channel(draw(kinds), n_b, rng))
    n_min = min(n_a, len(sync._resample(b, DT)))
    max_k = draw(st.integers(0, n_min - 100))
    return a, b, max_k * DT


def floor(a: np.ndarray, b: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Whether both windows of each lag pass the floor that a scored lag needs."""
    start, stop = np.maximum(0, lags), np.minimum(len(b), len(a) + lags)
    return (sync._window_moments(a, start - lags, stop - lags)[2]
            & sync._window_moments(b, start, stop)[2])


def scored(a: np.ndarray, b: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Whether both the program and the oracle score each lag as a
    correlation: the oracle's std floor is absolute, the program's relative,
    so a channel of rounding-scale values passes only the program's."""
    return floor(a, b, lags) & np.array([correlates(a, b, int(k)) for k in lags], dtype=bool)


def assert_near_the_oracle(a, b, max_lag):
    """Where the program and the oracle both score the oracle's best lag, the
    oracle scores the chosen lag within 1e-9 of its best, and the peak is the
    oracle's score there within 1e-9."""
    delay, peak, _, _ = estimate_delay(a, b, max_lag)
    values_b = sync._resample(b, a.dt).values
    k_oracle = round((estimate_delay_all_lags(a, b, max_lag)[0] - (b.t0 - a.t0)) / a.dt)
    if scored(a.values, values_b, np.array([k_oracle]))[0]:
        exact = lag_correlation(a.values, values_b, round((delay - (b.t0 - a.t0)) / a.dt))
        assert exact >= lag_correlation(a.values, values_b, k_oracle) - 1e-9
        assert abs(peak - exact) <= 1e-9


class TestEstimateDelayMatchesAllLags:
    @settings(max_examples=400, deadline=None)
    @given(delay_problems())
    def test_equal_to_scoring_every_lag(self, problem):
        assert_near_the_oracle(*problem)

    @settings(max_examples=200, deadline=None)
    @given(delay_problems())
    def test_fast_scores_match_the_oracle_where_scored(self, problem):
        # the 1e-9 tie band holds every tie only while this holds; a lag
        # whose windows fail the floor scores 0.0
        a, b, max_lag = problem
        max_k = int(round(max_lag / DT))
        lags = np.arange(-max_k, max_k + 1)
        values_b = sync._resample(b, DT).values
        scores, _ = sync._fast_scores(a.values, values_b, lags)
        exact = np.array([lag_correlation(a.values, values_b, int(k)) for k in lags])
        assert np.all(np.abs(scores - exact)[scored(a.values, values_b, lags)] <= 1e-9)
        assert np.all(scores[~floor(a.values, values_b, lags)] == 0.0)

    @pytest.mark.parametrize("pattern, n", [([1, -1, 2, 0, -2], 173), ([2, 0, -1], 200)])
    def test_periodic_ties_go_to_the_smallest_lag(self, pattern, n):
        # every period's lag correlates within a few ulps of 1
        a = SignalSeries(0.0, DT, np.tile(np.array(pattern, dtype=float), n)[:n])
        assert estimate_delay(a, a, 5.0)[0] == 0.0
        assert_near_the_oracle(a, a, 5.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_overlap_under_three_samples(self, seed):
        # at 5 s a sample, the 10 s minimum overlap leaves 2 samples at +-4 lags
        rng = np.random.default_rng(seed)
        a, b = (SignalSeries(0.0, 5.0, rng.integers(-2, 3, 6).astype(float)) for _ in "ab")
        assert_near_the_oracle(a, b, 20.0)


class TestEvidence:
    @pytest.mark.parametrize("shift, length", [(-150, 2600), (0, 3000), (61, 2800)])
    def test_n_eff_is_the_direct_sum(self, shift, length):
        # N / (1 + 2 sum_{k=1..N/4} |rho_a(k) rho_b(k)|) at the chosen lag's
        # overlap N, each autocorrelation summed over the centred series
        a = smooth_signal(3000, seed=10)
        noise = 0.3 * smooth_signal(length, seed=11).values
        b = SignalSeries(0.0, a.dt, np.roll(a.values, shift)[:length] + noise)
        delay, _, _, n_eff = estimate_delay(a, b, max_lag=5.0)
        k = round(delay / a.dt)
        assert k == shift
        n = min(len(b), len(a) + k) - max(0, k)

        def rho(x):
            xc = x - x.mean()
            return np.array([xc[:-j] @ xc[j:] for j in range(1, n // 4 + 1)]) / (xc @ xc)

        direct = n / (1 + 2 * np.sum(np.abs(rho(a.values) * rho(b.values))))
        assert n_eff == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("seeds", [(5, 6), (7, 8), (12, 13)])
    def test_p_value_is_the_sidak_corrected_fisher_z(self, seeds):
        # unrelated series: their peak is no evidence, and p is large
        # enough to form directly
        a, b = (smooth_signal(3000, seed=s) for s in seeds)
        delay, peak, p_value, n_eff = estimate_delay(a, b, max_lag=5.0)
        assert p_value > 1e-2
        k = round(delay / a.dt)
        n = min(len(b), len(a) + k) - max(0, k)
        one_sided = norm.sf(np.arctanh(peak) * np.sqrt(n_eff - 3))
        assert p_value == pytest.approx(1 - (1 - one_sided) ** max(1, 1001 * n_eff / n),
                                        rel=1e-9)


class TestShiftAnnotations:
    def track(self):
        return AnnotationTrack(site=SensorSite.PELVIS,
                               intervals=[(0.0, 4.0, H0), (4.0, 9.0, H1),
                                          (9.0, 12.0, H0)])

    def test_zero_delay_is_identity(self):
        assert (shift_annotations(self.track(), 0.0, (0.0, 12.0)).intervals
                == self.track().intervals)

    def test_shift_then_unshift(self):
        shifted = shift_annotations(self.track(), 1.47, (0.0, 20.0))
        back = shift_annotations(shifted, -1.47, (-20.0, 20.0))
        for (s1, e1, l1), (s2, e2, l2) in zip(back.intervals, self.track().intervals):
            assert s1 == pytest.approx(s2)
            assert e1 == pytest.approx(e2)
            assert l1 == l2

    def test_truncation_to_span(self):
        shifted = shift_annotations(self.track(), -5.0, span=(0.0, 12.0))
        assert shifted.intervals[0] == (0.0, 4.0, H1)
        assert shifted.intervals[-1][1] <= 12.0
        # the leading interval that fell entirely before the span is gone
        assert len(shifted.intervals) == 2
