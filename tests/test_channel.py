import json

import numpy as np
import pytest

from polarsc import (CampaignStop, Kernel, awgn_llr, bpsk_modulate,
                     construct_frozen_bec, monotonicity_flags, run_campaign,
                     sigma_from_ebn0_db, wilson_halfwidth)
from polarsc.channel import BerPoint, BerReport


def test_bpsk_mapping():
    np.testing.assert_array_equal(bpsk_modulate(np.zeros(4, dtype=np.uint8)),
                                  np.ones(4))
    np.testing.assert_array_equal(bpsk_modulate(np.ones(4, dtype=np.uint8)),
                                  -np.ones(4))
    np.testing.assert_array_equal(bpsk_modulate(np.array([0, 1, 1, 0])),
                                  [1.0, -1.0, -1.0, 1.0])


def test_awgn_llr_values():
    assert awgn_llr(1.0, 1.0) == pytest.approx(2.0)
    assert awgn_llr(0.0, 0.7) == pytest.approx(0.0)
    assert awgn_llr(-0.5, 2.0) == pytest.approx(-0.25)
    with pytest.raises(ValueError):
        awgn_llr(1.0, 0.0)


def test_sigma_ebn0_conversion():
    # rate 1/2 at 0 dB gives unit noise variance
    assert sigma_from_ebn0_db(0.0, 0.5) == pytest.approx(1.0)
    for rate in (0.25, 0.5, 1.0):
        for db in (-1.0, 0.0, 2.5):
            sigma = sigma_from_ebn0_db(db, rate)
            # Eb/N0 = 1 / (2 * rate * sigma**2)
            assert 2 * rate * sigma**2 * 10 ** (db / 10) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sigma_from_ebn0_db(1.0, 0.0)


def test_wilson_halfwidth_golden():
    # 10 errors in 100 trials, computed independently at high precision
    assert wilson_halfwidth(10, 100) == pytest.approx(0.05956826222211918, abs=1e-12)
    assert wilson_halfwidth(0, 0) == 0.0
    assert wilson_halfwidth(0, 50) > 0.0
    assert wilson_halfwidth(50, 50) == wilson_halfwidth(0, 50)
    assert wilson_halfwidth(5, -1) == 0.0


@pytest.mark.parametrize("errors, total", [(5, 3), (-1, 3), (1, 0.5)])
def test_wilson_halfwidth_rejects_errors_outside_zero_to_total(errors, total):
    # these used to return NaN with a RuntimeWarning
    with pytest.raises(ValueError, match="0 <= errors <= total"):
        wilson_halfwidth(errors, total)


@pytest.mark.parametrize("field", ["max_frames", "min_frame_errors"])
@pytest.mark.parametrize("value", [0, -3])
def test_campaign_stop_rejects_counts_below_one(field, value):
    # max_frames = 0 used to report ber 0.0 and fer 0.0 from no frames
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
        CampaignStop(**{field: value})


@pytest.mark.parametrize("field", ["max_frames", "min_frame_errors"])
@pytest.mark.parametrize("value", [1.5, 2.0, True, "3", None])
def test_campaign_stop_rejects_counts_that_are_not_integers(field, value):
    # max_frames = 1.5 used to fail deep in the frame draw, and True ran one frame
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        CampaignStop(**{field: value})
    assert CampaignStop(**{field: np.int64(7)})


def test_campaign_same_seed_is_bit_identical():
    spec = construct_frozen_bec(64, 32, 0.5)
    stop = CampaignStop(max_frames=512, min_frame_errors=10**9)
    a = run_campaign(spec, Kernel.LLR_MINSUM, [1.0, 2.0], stop, seed=5)
    b = run_campaign(spec, Kernel.LLR_MINSUM, [1.0, 2.0], stop, seed=5)
    assert a.to_rows() == b.to_rows()
    c = run_campaign(spec, Kernel.LLR_MINSUM, [1.0, 2.0], stop, seed=6)
    assert a.to_rows() != c.to_rows()


def test_campaign_noiseless_limit_rate_one():
    spec = construct_frozen_bec(32, 32, 0.5)
    stop = CampaignStop(max_frames=200, min_frame_errors=10**9)
    report = run_campaign(spec, Kernel.LLR_EXACT, [20.0], stop, seed=1)
    point = report.points[0]
    assert point.frames == 200
    assert point.frame_errors == 0 and point.bit_errors == 0
    assert point.fer == 0.0 and point.ber(spec.k) == 0.0


def test_campaign_high_snr_sees_no_errors():
    spec = construct_frozen_bec(64, 32, 0.5)
    stop = CampaignStop(max_frames=10**4, min_frame_errors=10**9)
    report = run_campaign(spec, Kernel.LLR_EXACT, [12.0], stop, seed=2)
    assert report.points[0].frames == 10**4
    assert report.points[0].frame_errors == 0


def test_campaign_stops_on_frame_errors():
    spec = construct_frozen_bec(32, 16, 0.5)
    stop = CampaignStop(max_frames=10**5, min_frame_errors=20)
    report = run_campaign(spec, Kernel.LLR_MINSUM, [-2.0], stop, seed=3)
    point = report.points[0]
    assert point.frame_errors >= 20
    assert point.frames < 10**5


def test_paired_seeds_share_noise_across_kernels():
    # with a common seed the exact and min-sum campaigns face identical
    # channels, so their error counts may only differ through the kernels
    spec = construct_frozen_bec(128, 64, 0.5)
    stop = CampaignStop(max_frames=600, min_frame_errors=10**9)
    exact = run_campaign(spec, Kernel.LLR_EXACT, [1.5], stop, seed=9)
    minsum = run_campaign(spec, Kernel.LLR_MINSUM, [1.5], stop, seed=9)
    fe_exact = exact.points[0].frame_errors
    fe_minsum = minsum.points[0].frame_errors
    assert fe_exact > 0 and fe_minsum > 0
    assert abs(fe_exact - fe_minsum) < max(10, 0.5 * fe_exact)


def test_report_serialization_round_trip():
    spec = construct_frozen_bec(16, 8, 0.5)
    report = BerReport(spec=spec, kernel=Kernel.LLR_EXACT, seed=0)
    report.points.append(BerPoint(ebn0_db=1.0, noise_sigma=0.9, frames=100,
                                  bit_errors=40, frame_errors=10))
    rows = report.to_rows()
    assert rows[0]["ber"] == pytest.approx(40 / (100 * 8))
    assert rows[0]["fer"] == pytest.approx(0.1)
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == ("ebn0_db,frames,bit_errors,frame_errors,"
                                        "ber,fer,fer_ci95_halfwidth")
    assert len(csv_text.splitlines()) == 2
    doc = json.loads(report.to_json(meta={"config_sha256": "abc"}))
    assert doc["code"] == {"m": 4, "n": 16, "k": 8}
    assert doc["_meta"]["config_sha256"] == "abc"


def test_monotonicity_flags():
    spec = construct_frozen_bec(16, 8, 0.5)
    report = BerReport(spec=spec, kernel=Kernel.LLR_EXACT, seed=0)
    report.points.append(BerPoint(ebn0_db=1.0, noise_sigma=1.0, frames=10000,
                                  bit_errors=500, frame_errors=100))
    report.points.append(BerPoint(ebn0_db=2.0, noise_sigma=0.9, frames=10000,
                                  bit_errors=12000, frame_errors=2000))
    flagged = monotonicity_flags(report)
    assert any(f.startswith("FER") for f in flagged)
    assert any(f.startswith("BER") for f in flagged)
    report.points[1] = BerPoint(ebn0_db=2.0, noise_sigma=0.9, frames=10000,
                                bit_errors=150, frame_errors=40)
    assert monotonicity_flags(report) == []


def test_campaign_counts_golden_n64():
    # recorded from the graph-row decoder the reference decoder replaced
    spec = construct_frozen_bec(64, 32, 0.5)
    stop = CampaignStop(max_frames=512, min_frame_errors=513)
    want = {Kernel.LR_EXACT: [(512, 1612, 162), (512, 279, 30)],
            Kernel.LLR_EXACT: [(512, 1612, 162), (512, 279, 30)],
            Kernel.LLR_MINSUM: [(512, 1577, 158), (512, 260, 27)]}
    for kernel, counts in want.items():
        report = run_campaign(spec, kernel, [1.0, 2.5], stop, seed=3)
        assert [(p.frames, p.bit_errors, p.frame_errors)
                for p in report.points] == counts, kernel
