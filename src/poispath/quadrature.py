"""The composite Simpson rule every integral of the package goes through.

Every caller has an odd node count (2n + 1 sphere nodes, the t and eps
grids), and for odd counts scipy's simpson is its uneven-spacing
rule. This one repeats those float operations in numpy, in the same order
and over the same shapes, so each integral keeps scipy's bits without the
cost of importing scipy. The factors that depend on x only are
computed once per grid.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ValidationError


@functools.lru_cache(maxsize=32)
def _factors(x_bytes):
    """hsum/6, 2 - 1/(h0/h1), hsum*(hsum/hprod) and 2 - h0/h1 of the
    grid whose float64 bytes are x_bytes, each as scipy computes it."""
    h = np.diff(np.frombuffer(x_bytes))
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = np.true_divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    factors = (hsum / 6.0,
               2.0 - np.true_divide(1.0, h0divh1, out=np.zeros_like(h0divh1),
                                    where=h0divh1 != 0),
               hsum * np.true_divide(hsum, hprod, out=np.zeros_like(hsum),
                                     where=hprod != 0),
               2.0 - h0divh1)
    for f in factors:
        f.flags.writeable = False
    return factors


def simpson(y, x, axis=-1):
    """Simpson integral of y sampled at the nodes x (1-D, any spacing) along
    axis; the node count must be odd and at least 3."""
    y = np.asarray(y)
    x = np.asarray(x, dtype=float)
    n = y.shape[axis]
    if x.shape != (n,):
        raise ValidationError(f"Simpson nodes must have shape ({n},), got {x.shape}")
    if n < 3 or n % 2 == 0:
        raise ValidationError(f"Simpson rule needs an odd node count of at least 3, got {n}")
    shape = [1] * y.ndim
    shape[axis] = -1
    c0, c1, c2, c3 = (f.reshape(shape) for f in _factors(x.tobytes()))
    lead = (slice(None),) * (axis % y.ndim)
    y0, y1, y2 = (y[lead + (s,)] for s in (slice(0, n - 2, 2), slice(1, n - 1, 2),
                                           slice(2, n, 2)))
    return np.sum(c0 * (y0 * c1 + y1 * c2 + y2 * c3), axis=axis)
