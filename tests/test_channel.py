import json
import warnings

import numpy as np
import pytest

from polarsc import (CampaignStop, CodeSpec, Kernel, awgn_llr, bit_reverse_permutation,
                     bpsk_modulate, construct_frozen_bec, construct_frozen_mc, encode,
                     genie_error_counts, monotonicity_flags, run_campaign,
                     sigma_from_ebn0_db, wilson_halfwidth)
from polarsc import channel, reference
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


@pytest.mark.parametrize("ebn0_db, sigma", [(4000.0, 0.0), (-4000.0, float("inf"))])
def test_an_ebn0_whose_sigma_is_not_positive_and_finite_is_rejected(ebn0_db, sigma):
    # 4000 dB used to raise OverflowError, and -4000 dB to divide by zero
    with pytest.raises(ValueError, match=f"^ebn0_db = {ebn0_db} gives noise sigma {sigma}, "):
        sigma_from_ebn0_db(ebn0_db, 0.5)


@pytest.mark.parametrize("ebn0_db, sigma", [(3080.0, "1e-154"), (3082.0, "7.943282347242919e-155")])
def test_an_ebn0_whose_log_ratios_overflow_is_rejected(ebn0_db, sigma):
    # sigma is positive and finite here, but 2y / sigma**2 used to overflow
    # with a RuntimeWarning, and the campaign then failed in from_llr with
    # "channel log-ratios must be finite", naming no argument
    with pytest.raises(ValueError, match=f"^ebn0_db = {ebn0_db} gives noise sigma {sigma}, "
                                         r"whose channel log-ratios 2y / sigma\*\*2 overflow$"):
        sigma_from_ebn0_db(ebn0_db, 0.5)
    # 3079 dB, the largest whole-dB point, still decodes, with no warning
    spec = construct_frozen_bec(16, 8, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_campaign(spec, Kernel.LLR_MINSUM, [3079.0],
                              CampaignStop(max_frames=16, min_frame_errors=1))
    assert (report.points[0].frames, report.points[0].frame_errors) == (16, 0)


@pytest.mark.parametrize("m", [1, 4, 10])
@pytest.mark.parametrize("count", [1, 3, 256])
def test_frames_are_born_in_level_m(m, count):
    # the campaign and genie frames are built in the decoder's layout: the
    # message rows are the messages transposed, and the log-ratios are, bit
    # for bit, those of encode, bpsk_modulate and awgn_llr on the same
    # Philox draw, gathered into bit-reversed order
    spec = CodeSpec(m=m, frozen=()) if m < 4 else construct_frozen_bec(1 << m, 1 << (m - 1), 0.5)
    sigma, entropy = 0.85, (11, 2, 256)
    u_rows, level = channel._noisy_frames(spec, sigma, count, *entropy)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=entropy)))
    u = np.zeros((count, spec.n), dtype=np.uint8)
    u[:, spec.info_indices] = rng.integers(0, 2, size=(count, spec.k), dtype=np.uint8)
    llr = awgn_llr(bpsk_modulate(encode(u, spec)) + sigma * rng.standard_normal((count, spec.n)),
                   sigma)
    assert u_rows.shape == level.shape == (spec.n, count)
    assert np.array_equal(u_rows, u.T)
    want = llr.T[bit_reverse_permutation(m)]
    assert np.array_equal(level.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "1.0", None])
def test_channel_rejects_a_non_finite_noise_level(bad, monkeypatch):
    # awgn_llr used to return NaN log-ratios for a NaN sigma, and an infinite
    # Eb/N0 reached the campaign as "sigma must be > 0, got 0.0"
    with pytest.raises(ValueError, match=f"^sigma must be a finite number, got {bad!r}$"):
        awgn_llr([1.0], bad)
    with pytest.raises(ValueError, match=f"^ebn0_db must be a finite number, got {bad!r}$"):
        sigma_from_ebn0_db(bad, 0.5)

    def no_jobs(jobs):
        raise AssertionError("decoded a block")

    monkeypatch.setattr(reference, "_run_jobs", no_jobs)
    with pytest.raises(ValueError, match=f"^ebn0_db must be a finite number, got {bad!r}$"):
        run_campaign(construct_frozen_bec(16, 8, 0.5), Kernel.LLR_MINSUM, [1.0, bad])


def test_a_sigma_whose_log_ratios_overflow_is_rejected():
    # 1e-155 is positive and finite, but 2y / sigma**2 overflows: awgn_llr
    # returned [inf] with a RuntimeWarning, and genie_error_counts failed in
    # from_llr on "channel log-ratios must be finite", naming no argument
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^sigma = 1e-155 is too small: the channel "
                                             r"log-ratios 2y / sigma\*\*2 overflow$"):
            awgn_llr([1.0], 1e-155)
        for construct in (genie_error_counts, lambda *a: construct_frozen_mc(a[0], 8, *a[1:])):
            with pytest.raises(ValueError, match=r"^noise_sigma = 1e-155 is too small: "):
                construct(16, 1e-155, 4, 0)
        # just above the bound, a unit symbol's log-ratio is still finite
        assert np.isfinite(awgn_llr([1.0, -1.0], 1.1e-154)).all()
        assert genie_error_counts(16, 1.1e-154, 4, 0).sum() == 0


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


@pytest.mark.parametrize("seed, message", [
    (1.7, r"seed must be an integer, got 1\.7"),
    (True, "seed must be an integer, got True"),
    ("3", "seed must be an integer, got '3'"),
    (-1, "seed must be >= 0, got -1"),
])
def test_seed_must_be_a_non_negative_integer(seed, message, monkeypatch):
    # 1.7 and True used to run seed 1, "3" seed 3, and -1 failed inside
    # numpy naming no argument; the check comes before any block is decoded
    def no_jobs(jobs):
        raise AssertionError("decoded a block")

    monkeypatch.setattr(reference, "_run_jobs", no_jobs)
    spec = construct_frozen_bec(16, 8, 0.5)
    for construct in (lambda: run_campaign(spec, Kernel.LLR_MINSUM, [1.0], seed=seed),
                      lambda: genie_error_counts(8, 1.0, 50, seed),
                      lambda: construct_frozen_mc(8, 4, 1.0, 50, seed)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            construct()


def test_report_records_the_seed_as_an_int():
    spec = construct_frozen_bec(16, 8, 0.5)
    stop = CampaignStop(max_frames=10)
    report = run_campaign(spec, Kernel.LLR_MINSUM, [1.0], stop, seed=np.int64(3))
    assert type(report.seed) is int
    assert report.points == run_campaign(spec, Kernel.LLR_MINSUM, [1.0], stop, seed=3).points


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
