import signal
import time

import hostspeed


def test_sampler_probes_during_busy_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert 2 <= len(sampler.samples) <= 5
    assert all(0 < s < 0.1 for s in sampler.samples)


def test_probe_block_is_a_mean_of_probes():
    assert 0 < hostspeed.probe_block() < 0.1
