import numpy as np
import pytest

from irsrl import signal as sig


def random_instance(rng, m, n):
    h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    G = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return h, G


class TestCompositeChannel:
    def test_hand_expansion(self):
        c = sig.composite_channel(
            np.array([1.0, 1j]), np.array([0.0, 0.0]), np.array([[1.0], [1.0]])
        )
        assert np.allclose(c, [1.0 - 1j])

    def test_single_element_phase_is_global(self):
        rng = np.random.default_rng(0)
        h, G = random_instance(rng, 1, 3)
        mags = [np.abs(sig.composite_channel(h, np.array([th]), G))
                for th in np.linspace(-np.pi, np.pi, 17)]
        assert np.allclose(mags, mags[0])

    def test_matches_dense_product(self):
        # independent dense-algebra oracle
        rng = np.random.default_rng(1)
        h, G = random_instance(rng, 3, 2)
        theta = rng.uniform(-np.pi, np.pi, 3)
        dense = np.conj(h) @ np.diag(np.exp(1j * theta)) @ G
        assert np.allclose(sig.composite_channel(h, theta, G), dense)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sig.composite_channel(np.ones(3), np.zeros(2), np.ones((3, 2)))


class TestOptimalBeamformer:
    def test_direct_case(self):
        b = sig.optimal_beamformer(np.array([1.0, 0.0], dtype=complex), 4.0)
        assert np.allclose(b, [2.0, 0.0])

    def test_full_power(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            b = sig.optimal_beamformer(c, 7.5)
            assert np.linalg.norm(b) ** 2 == pytest.approx(7.5, rel=1e-9)

    def test_dominates_random_feasible(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b_star = sig.optimal_beamformer(c, 2.0)
        best = np.abs(c @ b_star)
        for _ in range(1000):
            b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            b *= np.sqrt(2.0) / np.linalg.norm(b)
            assert np.abs(c @ b) <= best * (1 + 1e-12)

    def test_zero_channel_rejected(self):
        with pytest.raises(ValueError):
            sig.optimal_beamformer(np.zeros(3, dtype=complex), 1.0)


class TestSnr:
    def test_single_element_invariance(self):
        h = np.array([1.0 + 0j])
        G = np.array([[1.0 + 0j]])
        for th in np.linspace(-np.pi, np.pi, 9):
            assert sig.snr(h, np.array([th]), G, 1.0, 1.0) == pytest.approx(1.0)

    def test_coherent_vs_destructive(self):
        h = np.array([1.0 + 0j, 1.0 + 0j])
        G = np.array([[1.0 + 0j], [1.0 + 0j]])
        assert sig.snr(h, np.array([0.0, 0.0]), G, 1.0, 1.0) == pytest.approx(4.0)
        assert sig.snr(h, np.array([0.0, np.pi]), G, 1.0, 1.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_end_to_end_consistency(self):
        # equals |c b*|^2 / sigma^2 through the received-signal chain
        rng = np.random.default_rng(4)
        h, G = random_instance(rng, 5, 3)
        theta = rng.uniform(-np.pi, np.pi, 5)
        c = sig.composite_channel(h, theta, G)
        b = sig.optimal_beamformer(c, 3.0)
        assert sig.snr(h, theta, G, 3.0, 0.5) == pytest.approx(
            np.abs(c @ b) ** 2 / 0.5, rel=1e-12
        )

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(5)
        h, G = random_instance(rng, 4, 2)
        theta = rng.uniform(-np.pi, np.pi, 4)
        base = sig.snr(h, theta, G, 1.0, 1.0)
        for alpha in (0.3, 1.7, -2.2):
            assert sig.snr(h * np.exp(1j * alpha), theta, G, 1.0, 1.0) == pytest.approx(
                base, rel=1e-9
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        h, G = random_instance(rng, 5, 2)
        theta = rng.uniform(-np.pi, np.pi, 5)
        perm = rng.permutation(5)
        assert sig.snr(h[perm], theta[perm], G[perm], 1.0, 1.0) == pytest.approx(
            sig.snr(h, theta, G, 1.0, 1.0), rel=1e-12
        )


class TestSnrDb:
    @pytest.mark.parametrize("lin,db", [(1.0, 0.0), (100.0, 20.0), (4.0, 6.0206)])
    def test_values(self, lin, db):
        assert sig.snr_db(lin) == pytest.approx(db, abs=1e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sig.snr_db(0.0)
        with pytest.raises(ValueError):
            sig.snr_db(-3.0)

    @pytest.mark.parametrize("bad", [np.float64(-1.0), -np.inf])
    def test_rejects_nonpositive_scalar_and_array(self, bad):
        with pytest.raises(ValueError):
            sig.snr_db(bad)

    def test_nan_passes_through(self):
        assert np.isnan(sig.snr_db(float("nan")))
        assert np.isnan(sig.snr_db(np.float64("nan")))


class TestPhaseOracle:
    def test_hand_case(self):
        theta, _ = sig.phase_oracle_single_antenna(
            np.array([1.0, 1j]), np.array([1.0, 1.0]), 1.0, 1.0
        )
        assert np.allclose(theta, [0.0, np.pi / 2])

    def test_aligned_channels_need_no_shift(self):
        theta, snr_star = sig.phase_oracle_single_antenna(
            np.array([2.0, 3.0], dtype=complex),
            np.array([1.0, 0.5], dtype=complex), 1.0, 1.0,
        )
        assert np.allclose(theta, 0.0)
        assert snr_star == pytest.approx((2.0 + 1.5) ** 2)

    def test_achieves_magnitude_sum(self):
        rng = np.random.default_rng(7)
        h, G = random_instance(rng, 6, 1)
        theta, snr_star = sig.phase_oracle_single_antenna(h, G[:, 0], 2.0, 0.5)
        achieved = sig.snr(h, theta, G, 2.0, 0.5)
        assert achieved == pytest.approx(snr_star, rel=1e-9)
        assert snr_star == pytest.approx(
            2.0 * np.sum(np.abs(h) * np.abs(G[:, 0])) ** 2 / 0.5, rel=1e-12
        )

    def test_dominates_exhaustive_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            h, G = random_instance(rng, 3, 1)
            _, snr_star = sig.phase_oracle_single_antenna(h, G[:, 0], 1.0, 1.0)
            _, snr_grid = sig.exhaustive_phase_search(h, G, 64, 1.0, 1.0)
            assert snr_star >= snr_grid * (1 - 1e-12)
            # grid gap bounded by the discretization
            assert snr_grid >= snr_star * np.cos(np.pi / 64) ** 4


class TestUpperBound:
    def test_tight_for_single_antenna(self):
        rng = np.random.default_rng(9)
        h, G = random_instance(rng, 4, 1)
        _, snr_star = sig.phase_oracle_single_antenna(h, G[:, 0], 1.0, 1.0)
        assert sig.snr_upper_bound(h, G, 1.0, 1.0) == pytest.approx(snr_star, rel=1e-9)

    def test_orthogonal_rows_show_slack(self):
        h = np.array([1.0 + 0j, 1.0 + 0j])
        G = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        assert sig.snr_upper_bound(h, G, 1.0, 1.0) == pytest.approx(4.0)
        # best achievable ||c||^2 is 2 regardless of theta
        best = max(
            sig.snr(h, np.array([0.0, th]), G, 1.0, 1.0)
            for th in np.linspace(-np.pi, np.pi, 200)
        )
        assert best == pytest.approx(2.0, rel=1e-3)

    def test_dominates_everywhere(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            h, G = random_instance(rng, 3, 2)
            theta = rng.uniform(-np.pi, np.pi, 3)
            assert sig.snr(h, theta, G, 1.0, 1.0) <= sig.snr_upper_bound(
                h, G, 1.0, 1.0
            ) * (1 + 1e-12)


class TestNormFormulaBits:
    """snr and snr_upper_bound against the np.linalg.norm calls they inline."""

    @staticmethod
    def _instances(n_instances=150):
        rng = np.random.default_rng(21)
        for _ in range(n_instances):
            m, n = int(rng.integers(1, 25)), int(rng.integers(1, 7))
            h, G = random_instance(rng, m, n)
            scale = 10.0 ** rng.uniform(-6, 3)
            yield (h * scale, rng.uniform(-np.pi, np.pi, m), G,
                   float(10.0 ** rng.uniform(-2, 7)), float(rng.uniform(0.01, 5.0)))

    def test_snr_matches_linalg_norm(self):
        for h, theta, G, p, s2 in self._instances():
            c = sig.composite_channel(h, theta, G)
            assert sig.snr(h, theta, G, p, s2) == float(p * np.linalg.norm(c) ** 2 / s2)

    def test_upper_bound_matches_linalg_norm(self):
        for h, _, G, p, s2 in self._instances():
            s = np.sum(np.abs(h) * np.linalg.norm(G, axis=1))
            assert sig.snr_upper_bound(h, G, p, s2) == float(p * s**2 / s2)


class TestExhaustiveSearch:
    def test_m1_returns_first_grid_point(self):
        h = np.array([1.0 + 0.5j])
        G = np.array([[1.0 - 0.2j, 0.3 + 0j]])
        theta, _ = sig.exhaustive_phase_search(h, G, 8, 1.0, 1.0)
        assert theta[0] == pytest.approx(-np.pi)

    def test_aligned_real_case(self):
        # global phase makes every theta1 == theta2 grid point optimal; the
        # lexicographic tie-break picks the first, and the relative phase is 0
        h = np.array([1.0 + 0j, 2.0 + 0j])
        G = np.array([[1.0 + 0j], [1.0 + 0j]])
        theta, best = sig.exhaustive_phase_search(h, G, 8, 1.0, 1.0)
        assert theta[0] == pytest.approx(theta[1])
        assert np.allclose(theta, -np.pi)
        assert best == pytest.approx(sig.snr(h, np.zeros(2), G, 1.0, 1.0))

    def test_dominates_random_draws(self):
        rng = np.random.default_rng(11)
        h, G = random_instance(rng, 3, 2)
        _, best = sig.exhaustive_phase_search(h, G, 16, 1.0, 1.0)
        for _ in range(10_000):
            theta = rng.uniform(-np.pi, np.pi, 3)
            # random draws can beat the grid only by the discretization slack
            assert sig.snr(h, theta, G, 1.0, 1.0) <= best / np.cos(np.pi / 16) ** 2

    def test_guard(self):
        with pytest.raises(ValueError):
            sig.exhaustive_phase_search(np.ones(10, complex), np.ones((10, 1), complex),
                                        64, 1.0, 1.0)
        with pytest.raises(ValueError):
            sig.exhaustive_phase_search(np.ones(2, complex), np.ones((2, 1), complex),
                                        1, 1.0, 1.0)


class TestWrap:
    def test_pi_maps_to_pi(self):
        assert sig.wrap_to_pi(np.pi) == pytest.approx(np.pi)

    def test_range(self):
        x = np.linspace(-20, 20, 1001)
        w = sig.wrap_to_pi(x)
        assert np.all(w > -np.pi - 1e-12) and np.all(w <= np.pi + 1e-12)
        assert np.allclose(np.exp(1j * w), np.exp(1j * x))
