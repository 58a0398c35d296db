"""Two-sample goodness-of-fit statistics, dependency-free.

The Kolmogorov-Smirnov and Pearson chi-square helpers below compare
what two fault injectors produce -- inter-arrival gap samples and
flip-width counts -- without assuming the law under test.  The oracle's
stochastic twins (:mod:`repro.oracle.differential`) and the injector
equivalence tests use them; critical values come from closed forms and
a small built-in table, so no statistics package is needed.
"""

from __future__ import annotations

import math


def ks_two_sample_statistic(first: "list[float]",
                            second: "list[float]") -> float:
    """Kolmogorov-Smirnov D: sup |ECDF_1(x) - ECDF_2(x)|.

    Distribution-free, so it compares fault inter-arrival gap samples
    from two injectors without assuming the geometric law it is testing.
    Computed by the standard merge walk over both sorted samples.
    """
    if not first or not second:
        raise ValueError("both samples must be non-empty")
    xs = sorted(first)
    ys = sorted(second)
    nx, ny = len(xs), len(ys)
    i = j = 0
    largest = 0.0
    while i < nx and j < ny:
        # Step past every observation tied at the next value in either
        # sample, then compare the ECDFs there (ties must move both
        # walks together or identical samples show a spurious gap).
        value = min(xs[i], ys[j])
        while i < nx and xs[i] == value:
            i += 1
        while j < ny and ys[j] == value:
            j += 1
        largest = max(largest, abs(i / nx - j / ny))
    return largest


def ks_two_sample_critical(first_count: int, second_count: int,
                           alpha: float = 0.01) -> float:
    """Large-sample KS rejection threshold at significance ``alpha``.

    ``c(alpha) * sqrt((n+m)/(n*m))`` with the classical coefficient
    ``c(alpha) = sqrt(-ln(alpha/2)/2)`` -- no scipy needed, accurate for
    the hundreds-of-gaps samples the equivalence tests collect.
    """
    if first_count < 1 or second_count < 1:
        raise ValueError("sample counts must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    coefficient = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return coefficient * math.sqrt(
        (first_count + second_count) / (first_count * second_count))


#: Chi-square critical values by degrees of freedom at the significance
#: levels the equivalence tests use (no scipy dependency).
_CHI2_CRITICAL = {
    0.05: {1: 3.841, 2: 5.991, 3: 7.815, 4: 9.488, 5: 11.070},
    0.01: {1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277, 5: 15.086},
    0.001: {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515},
}


def chi_square_statistic(observed: "list[float]",
                         expected: "list[float]") -> float:
    """Pearson's chi-square over matched observed/expected counts.

    Expected counts must be positive; category pairs are compared
    position by position (the flip-width test passes 1/2/3-bit counts).
    """
    if len(observed) != len(expected) or not observed:
        raise ValueError("need matching non-empty count lists")
    if any(count <= 0 for count in expected):
        raise ValueError("expected counts must be positive")
    return sum((obs - exp) ** 2 / exp
               for obs, exp in zip(observed, expected))


def chi_square_critical(degrees: int, alpha: float = 0.01) -> float:
    """Chi-square rejection threshold from the built-in table."""
    try:
        return _CHI2_CRITICAL[alpha][degrees]
    except KeyError:
        raise ValueError(
            f"no tabulated chi-square critical value for df={degrees} "
            f"at alpha={alpha}; tabulated: df 1-5 at "
            f"{sorted(_CHI2_CRITICAL)}") from None
