"""Required-SNR interpolation on BER curves, shared by the harness and
acceptance tests."""

from dataclasses import dataclass

import numpy as np


@dataclass
class RequiredSnr:
    """SNR (dB) where a BER curve crosses a target, with CI-bound variants."""
    mid: float
    optimistic: float   # from the lower CI bounds (curve could be this good)
    pessimistic: float  # from the upper CI bounds


def _cross(snrs, bers, target):
    for (s1, b1), (s2, b2) in zip(zip(snrs, bers), zip(snrs[1:], bers[1:])):
        if b1 >= target >= b2 and b1 > 0 and b2 > 0 and b1 != b2:
            f = (np.log10(target) - np.log10(b1)) / (np.log10(b2) - np.log10(b1))
            return float(s1 + f * (s2 - s1))
    return float("nan")


def interpolate_required_snr(points, target_ber: float) -> RequiredSnr:
    """Interpolate the SNR needed to reach target_ber on a log-BER curve of
    harness.BerPoint values.

    Zero-error points are floored at 0.5/bits (the usual continuity rule),
    and the CI-bound curves give the optimistic/pessimistic crossings.
    """
    pts = sorted(points, key=lambda p: p.snr_db)
    snrs = [p.snr_db for p in pts]
    floor = [max(p.ber, 0.5 / p.bits_simulated) for p in pts]
    lo = [max(p.ber - p.ci95_halfwidth, 0.1 / p.bits_simulated) for p in pts]
    hi = [max(p.ber + p.ci95_halfwidth, 0.5 / p.bits_simulated) for p in pts]
    return RequiredSnr(mid=_cross(snrs, floor, target_ber),
                       optimistic=_cross(snrs, lo, target_ber),
                       pessimistic=_cross(snrs, hi, target_ber))
