"""Reference routes that the streamed fast paths are checked against."""

from __future__ import annotations

import warnings

from radixion import analysis, bulk, numeration


def whole_table(ns, lam, stats=("sod", "rs")):
    """All rows of N_lam in one DigitTable carrying `stats`, in enumeration
    order: the meet-in-the-middle merge of bulk._build_table, with no split
    and no streaming.  It checks no cap and no int64 range."""
    return bulk._build_table(ns, lam, stats)


def per_row_oracle(ns, lam):
    """(rows, primes, s, r) over enumerate_N(ns, lam), scalar per row:
    analysis.is_prime_element, numeration.sum_of_digits and
    numeration.rudin_shapiro, each on the row's own expansion.  The
    reference for the prime pass of bulk: prime_rows and both
    prime_histogram statistics."""
    rows = list(numeration.enumerate_N(ns, lam))
    prime = [analysis.is_prime_element(ns, n).kind in analysis.PRIME_KINDS for n in rows]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # pair counting warns on Q > 2
        r = [numeration.rudin_shapiro(ns, n) for n in rows]
    return rows, prime, [numeration.sum_of_digits(ns, n) for n in rows], r
