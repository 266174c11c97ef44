"""Host-speed reference for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
10-30% over tens of seconds, with the load its neighbours put on caches,
memory bandwidth and clocks.  Such a phase slows uwbsim and any other code
alike.  So run.py times a fixed reference kernel right before and right after
each operation and rescales the operation's wall time by REF_S over the mean
of the two kernel times: a *reference second* is a wall second at the host
speed where the kernel takes REF_S.

The kernel imports nothing from uwbsim, so no change to uwbsim can move it.
It mixes, in about equal time, the kinds of work uwbsim's operations do:
interpreted Python loops, many small numpy calls, and a random draw and FFTs
on 8-MB arrays, beyond a core's share of the caches, so that it feels the
host's memory bandwidth as waveform-noise and coded-waterfall do.  Over 15-s
windows of the same operations, its time tracked theirs with a log-log slope
of 0.87-1.01; a kernel on 1-MB arrays gave 0.72-0.74.

The kernel runs in a child process, one call at a time while the benchmark
waits, so that its arrays never count in the benchmark's peak RSS.  run.py
pins itself, and so the child, to one CPU: a kernel on the other vCPU of a
2-vCPU host tracked the operations' speed worse (IQR/median of five
waveform-noise runs 0.067 against 0.041 pinned).

    python3 perfbench/hostspeed.py    # one kernel time per input line
"""

import contextlib
import subprocess
import sys
import time

import numpy as np

# the kernel's median time on a 2-vCPU Haswell-class VM with numpy 2.4 and
# one BLAS thread, so reference seconds read close to wall seconds there;
# changing it, or the kernel, rescales every gated timing
REF_S = 0.16
PY_ITERS = 300_000
SMALL_ITERS = 25_000
FFT_POINTS = 1 << 20


class Kernel:
    def __init__(self):
        self._rng = np.random.default_rng(0)
        self._x = np.empty(FFT_POINTS)
        self._spec = np.empty(FFT_POINTS // 2 + 1, dtype=complex)

    def __call__(self):
        s, d = 0, {}
        for i in range(PY_ITERS):
            s += i * i
            d[i & 1023] = s
        a = np.ones(64)
        for _ in range(SMALL_ITERS):
            a = a * 0.999 + 0.001
        self._rng.standard_normal(out=self._x)
        np.fft.rfft(self._x, out=self._spec)
        np.multiply(self._spec, 0.5, out=self._spec)
        np.fft.irfft(self._spec, FFT_POINTS, out=self._x)


class Reference:
    """The kernel's child process; `time()` runs one call and returns its
    wall seconds, also kept in `seconds`.  Use as a context manager, which
    ends the child."""

    def __init__(self):
        # inherits run.py's environment, BLAS/OpenMP threads pinned to 1
        self._proc = subprocess.Popen([sys.executable, __file__],
                                      stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self.seconds = []
        try:
            self.time()  # warm-up: first-call costs of numpy's FFT
        except BaseException:
            self.close()
            raise
        self.seconds = []

    def time(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("reference kernel process ended")
        dt = float(line)
        self.seconds.append(dt)
        return dt

    def close(self):
        with contextlib.suppress(BrokenPipeError):
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main():
    kernel = Kernel()
    for _ in sys.stdin:
        t0 = time.perf_counter()
        kernel()
        print(repr(time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    main()
