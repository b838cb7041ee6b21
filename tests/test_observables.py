import numpy as np
import pytest

from fcqw.circuits import PotentialProfile, build_fcqw_walk, simulate
from fcqw.noise import ShotResult
from fcqw.observables import (
    SiteDistribution,
    ipr,
    peak_amplitude,
    post_process,
    restricted_site_density_counts,
    site_density_counts,
    site_density_exact,
)
from fcqw.statevec import (
    StateVector,
    basis_state,
    index_to_bitstring,
)
from test_statevec import bitstring_to_index, sample_bitstrings


def _shots(bit_counts: dict[str, int]) -> ShotResult:
    """A ShotResult from counts keyed by bitstring (site 0 first), all of one length."""
    counts = {bitstring_to_index(bits): n for bits, n in bit_counts.items()}
    return ShotResult(counts, len(next(iter(bit_counts))))


def _per_character_density(bit_counts: dict[str, int], shots: int, weight) -> np.ndarray:
    """Reference: per-site frequency from a loop over each bitstring's characters."""
    p = np.zeros(len(next(iter(bit_counts))))
    for bits, count in bit_counts.items():
        if weight is not None and bits.count("1") != weight:
            continue
        for i, c in enumerate(bits):
            if c == "1":
                p[i] += count
    return p / shots


class TestExactDensity:
    def test_one_hot(self):
        d = site_density_exact(basis_state(8, 1 << 3))
        assert np.array_equal(d.p, np.eye(8)[3])
        assert not d.normalized

    def test_equal_superposition(self):
        amps = np.zeros(8, dtype=complex)
        amps[bitstring_to_index("100")] = 1 / np.sqrt(2)
        amps[bitstring_to_index("010")] = 1 / np.sqrt(2)
        d = site_density_exact(StateVector(3, amps))
        assert np.max(np.abs(d.p - [0.5, 0.5, 0.0])) < 1e-12

    def test_two_particle_state_sums_to_two(self):
        d = site_density_exact(basis_state(3, bitstring_to_index("110")))
        assert np.array_equal(d.p, [1.0, 1.0, 0.0])
        assert d.p.sum() == 2.0


class TestCountDensity:
    def test_all_shots_on_one_string(self):
        d = site_density_counts(_shots({"10": 7000}), 2)
        assert np.array_equal(d.p, [1.0, 0.0])

    def test_even_split(self):
        d = site_density_counts(_shots({"10": 1, "01": 1}), 2)
        assert np.array_equal(d.p, [0.5, 0.5])

    def test_double_occupation(self):
        d = site_density_counts(_shots({"11": 100}), 2)
        assert np.array_equal(d.p, [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            site_density_counts(_shots({"101": 5}), 2)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            site_density_counts(ShotResult({1: 3, 4: 2}, 2), 2)

    @pytest.mark.parametrize("L", [2, 8, 20])
    def test_bit_operations_match_per_character_loop(self, L):
        rng = np.random.default_rng(L)
        for _ in range(5):
            index = rng.integers(0, 1 << L, size=int(rng.integers(1, 300)))
            bit_counts = {index_to_bitstring(int(i), L): int(rng.integers(1, 1000))
                          for i in index}
            result = _shots(bit_counts)
            for weight in (None, 1, 2):
                expected = _per_character_density(bit_counts, result.shots, weight)
                got = (site_density_counts(result, L) if weight is None
                       else restricted_site_density_counts(result, L, weight))
                assert np.array_equal(got.p, expected)

    def test_restricted_keeps_only_requested_weight(self):
        result = _shots({"100": 60, "110": 30, "000": 10})
        d = restricted_site_density_counts(result, 3, weight=1)
        assert np.max(np.abs(d.p - [0.6, 0.0, 0.0])) < 1e-12

    def test_matches_exact_density_at_many_shots(self):
        rng = np.random.default_rng(15)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = StateVector(3, amps / np.linalg.norm(amps))
        draws = sample_bitstrings(state, 100_000, seed=3)
        counts: dict[str, int] = {}
        for s in draws:
            counts[s] = counts.get(s, 0) + 1
        d_counts = site_density_counts(_shots(counts), 3)
        d_exact = site_density_exact(state)
        assert np.max(np.abs(d_counts.p - d_exact.p)) < 0.01


class TestPostProcess:
    def test_already_normalized(self):
        d = post_process(SiteDistribution(np.array([1.0, 0, 0, 0])))
        assert np.array_equal(d.p, [1, 0, 0, 0])
        assert d.normalized

    def test_halves(self):
        d = post_process(SiteDistribution(np.array([1.0, 1.0, 0.0, 0.0])))
        assert np.array_equal(d.p, [0.5, 0.5, 0.0, 0.0])

    def test_idempotent(self):
        d = SiteDistribution(np.array([0.2, 0.4, 0.1]))
        once = post_process(d)
        twice = post_process(once)
        assert np.array_equal(once.p, twice.p)

    def test_zero_density_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            post_process(SiteDistribution(np.zeros(4)))

    def test_integrating_sectors_beats_discarding(self):
        # counts with number-violating strings: normalizing over all sectors
        # must give a larger peak than discarding them without rescaling
        counts = {"10000000": 500, "10100000": 300, "00000000": 200}
        result = _shots(counts)
        pp = post_process(site_density_counts(result, 8))
        restricted = restricted_site_density_counts(result, 8)
        assert peak_amplitude(pp, 0) > peak_amplitude(restricted, 0)


class TestIpr:
    def test_one_hot_is_one(self):
        assert ipr(post_process(SiteDistribution(np.eye(4)[1]))) == 1.0

    def test_uniform_is_inverse_length(self):
        assert abs(ipr(post_process(SiteDistribution(np.ones(8)))) - 0.125) < 1e-15

    def test_bounds_on_random_distributions(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            L = int(rng.integers(2, 12))
            d = post_process(SiteDistribution(rng.uniform(0.01, 1.0, size=L)))
            value = ipr(d)
            assert 1.0 / L - 1e-12 <= value <= 1.0 + 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            ipr(SiteDistribution(np.array([0.5, 0.4])))

    def test_chiral_walk_ipr_is_one_for_any_potential(self):
        L = 8
        for W in (0.0, 1.0, 2.0, 3.0, 4.0):
            profile = PotentialProfile.box(L, W)
            for t in range(1, 9):
                state = simulate(build_fcqw_walk(L, profile, t), basis_state(L, 1 << 0))
                value = ipr(post_process(site_density_exact(state)))
                assert abs(value - 1.0) < 1e-12


class TestPeakAmplitude:
    def test_ideal_walk_peak_is_unity(self):
        L, t = 8, 5
        state = simulate(
            build_fcqw_walk(L, PotentialProfile.uniform(L, 0.0), t), basis_state(L, 1 << 0)
        )
        d = post_process(site_density_exact(state))
        assert abs(peak_amplitude(d, t % L) - 1.0) < 1e-12

    def test_uniform_distribution(self):
        d = post_process(SiteDistribution(np.ones(8)))
        assert abs(peak_amplitude(d, 3) - 0.125) < 1e-15

    def test_out_of_range_site(self):
        with pytest.raises(IndexError):
            peak_amplitude(SiteDistribution(np.ones(4)), 4)
