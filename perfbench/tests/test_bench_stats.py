import statistics

import pytest

import stats


def test_median_and_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert stats.median(values) == 3.5
    assert q1 < q2 < q3


def test_single_sample_is_its_own_quartiles():
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_fail_frac_counts_failures_against_attempts():
    assert stats.fail_frac(10, 0) == 0.0
    assert stats.fail_frac(8, 2) == 0.25
    with pytest.raises(ValueError):
        stats.fail_frac(0, 0)
    with pytest.raises(ValueError):
        stats.fail_frac(3, 4)


def test_normalized_rescales_by_probe_ratio():
    # the host ran the probe 1.5x slower than the reference: 3 s becomes 2 s
    assert stats.normalized(3.0, 0.0012, 0.0008) == pytest.approx(2.0)
