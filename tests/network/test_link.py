"""Tests for the stochastic link model."""

import numpy as np
import pytest

from repro.network.link import LinkModel
from repro.network.wifi import WIFI_80211N_2G4, WIFI_80211N_5G, wifi_profile


class TestLinkModel:
    def test_deterministic_when_cv_zero(self, rng):
        link = LinkModel(nominal_bps=10e6, cv=0.0, handshake_s=1.0)
        sample = link.transfer(10_000_000, rng=0)
        assert sample.duration_s == pytest.approx(1.0 + 8.0)
        assert sample.throughput_bps == 10e6

    def test_median_throughput_near_nominal(self, rng):
        link = LinkModel(nominal_bps=20e6, cv=0.25)
        draws = link.sample_throughput(rng, size=5000)
        assert np.median(draws) == pytest.approx(20e6, rel=0.05)

    def test_cv_controls_spread(self, rng):
        tight = LinkModel(nominal_bps=20e6, cv=0.05).sample_throughput(rng, size=2000)
        wide = LinkModel(nominal_bps=20e6, cv=0.5).sample_throughput(np.random.default_rng(0), size=2000)
        assert np.std(np.log(wide)) > np.std(np.log(tight))

    def test_throughput_always_positive(self, rng):
        link = LinkModel(nominal_bps=1e6, cv=1.0)
        draws = link.sample_throughput(rng, size=1000)
        assert np.all(draws > 0)

    def test_transfer_duration_reproduces_section4(self):
        """§IV/§V: the per-cycle payload uploads in ~15 s with a σ of a few
        seconds driven by throughput variance."""
        from repro.network.wifi import PAPER_CYCLE_PAYLOAD_BYTES

        durations = [
            WIFI_80211N_2G4.transfer(PAPER_CYCLE_PAYLOAD_BYTES, rng=s).duration_s for s in range(400)
        ]
        assert float(np.median(durations)) == pytest.approx(15.0, rel=0.15)
        std = float(np.std(durations))
        assert 1.5 < std < 7.0  # paper: 3.5 s routine-duration spread

    def test_expected_duration_above_median(self):
        link = LinkModel(nominal_bps=10e6, cv=0.5, handshake_s=0.0)
        med = link.transfer(10_000_000, rng=0)
        assert link.expected_duration(10_000_000) < 8.0 / 1.0  # sanity: finite
        # Log-normal mean > median throughput -> expected duration < median-based.
        assert link.expected_duration(10_000_000) < 0.0 + 10_000_000 * 8 / 10e6

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkModel(nominal_bps=0.0)
        with pytest.raises(ValueError):
            LinkModel(nominal_bps=1e6, cv=3.0)
        with pytest.raises(ValueError):
            LinkModel(nominal_bps=1e6).transfer(-1)


class TestWifiProfiles:
    def test_lookup(self):
        assert wifi_profile("2.4GHz") is WIFI_80211N_2G4
        assert wifi_profile("5GHz") is WIFI_80211N_5G

    def test_5ghz_faster(self):
        assert WIFI_80211N_5G.nominal_bps > WIFI_80211N_2G4.nominal_bps

    def test_unknown_band(self):
        with pytest.raises(ValueError):
            wifi_profile("60GHz")


class TestResolveRng:
    def test_rng_param_accepts_generator_and_seed(self):
        from repro.network.link import resolve_rng

        gen = np.random.default_rng(3)
        assert resolve_rng(rng=gen) is gen
        a = resolve_rng(rng=7).normal()
        b = resolve_rng(rng=7).normal()
        assert a == b

    def test_transfer_threads_live_generator(self):
        link = LinkModel(nominal_bps=10e6, cv=0.25)
        gen = np.random.default_rng(0)
        first = link.transfer(1_000_000, rng=gen)
        second = link.transfer(1_000_000, rng=gen)  # stream advances
        assert first.throughput_bps != second.throughput_bps
