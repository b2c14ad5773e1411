"""Code-density DNL and INL of a linear-ramp record (IEEE 1241), the tests'
oracle for the converter's static linearity; the library has none."""

import numpy as np


def inl_dnl(codes, bits: int, min_hits: int = 30) -> tuple[np.ndarray, np.ndarray]:
    """DNL and INL of each interior code [LSB].  The two end codes absorb
    clipping and are left out; INL is the running sum of DNL with its
    endpoints fitted to zero.  An interior code hit fewer than min_hits
    times fails the record."""
    hist = np.bincount(codes, minlength=2 ** bits).astype(float)
    interior = hist[1:-1]
    short = np.flatnonzero(interior < min_hits) + 1
    assert short.size == 0, f"codes hit fewer than {min_hits} times: {short[:12].tolist()}"
    dnl = interior / interior.mean() - 1.0
    inl = np.cumsum(dnl)
    x = np.linspace(0.0, 1.0, inl.size)
    return dnl, inl - (inl[0] + (inl[-1] - inl[0]) * x)
