"""In-thread machine-speed sampler, for times that do not move with the
host's speed state.

On a shared host a vCPU's speed changes many times a second (another
tenant's work on the same core), and the share of slow time drifts over
minutes, so raw wall times of the same code drift with it. While a
`Sampler` is open, a timer signal runs a fixed probe every INTERVAL_S on
the main thread, on whatever vCPU the measured code is on at that moment,
and records how long the probe took. `factor()` is the time-averaged
speed relative to REF_PROBE_S, so `wall * factor()` is the measured
code's time in reference seconds: seconds at the speed at which one probe
takes REF_PROBE_S.

The probe costs about 0.5% of the measured time, the same on every run.

    python3 perfbench/speed.py    # one setup_s sample: prints the factor
                                  # over importing corpusforge.cli and
                                  # building the `forge` parser
"""

import hashlib
import signal
import time

INTERVAL_S = 0.01
# The probe's time in the fast speed state of the 2-vCPU Xeon VM this
# benchmark was defined on; it only fixes the unit of reference seconds.
REF_PROBE_S = 36e-6


def probe():
    """A few dozen small hashes and int conversions, like the embed loop."""
    h = 0
    for i in range(48):
        digest = hashlib.blake2b(i.to_bytes(2, "little"), digest_size=8)
        h ^= int.from_bytes(digest.digest(), "little")
    return h


class Sampler:
    def __init__(self):
        self.samples = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def factor(self):
        """Mean speed over the samples, relative to the reference speed."""
        return sum(REF_PROBE_S / s for s in self.samples) / len(self.samples)


if __name__ == "__main__":
    with Sampler() as sampler:
        import corpusforge.cli
        corpusforge.cli.build_parser()
    print(sampler.factor())
