"""Hypothesis strategies that more than one property test draws from."""

import math

from hypothesis import strategies as st

# Finite decimals as text, sign x mantissa x exponent (+-d.ddd e x),
# from the subnormal 1e-323 to 1e308: zero, the float edges and all
# between, with an everyday exponent -2..2 about half the time.
NUMBERS = st.builds(lambda m, e: f"{m / 1000:.3f}e{e}",
                    st.integers(-9999, 9999),
                    st.sampled_from([*range(-2, 3)] * 126
                                    + [*range(-320, 309)])).filter(
    lambda text: math.isfinite(float(text)))

# Group sizes: the small n at which no summary can be rejected, and n up
# to 1e17, past 2**52 + 1, where the expected normal range rounds away.
SIZES = st.one_of(st.integers(1, 6), st.integers(1, 10**17))
