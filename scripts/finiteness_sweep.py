#!/usr/bin/env python3
"""Sweep finiteness certificates over (r, f) and report sizes and timings.

Builds the certificate at the default window 2f+2 for every supported
pair (1 <= r <= MAX_RANK, 1 <= f <= MAX_POWER), verifies it by full
re-expansion, and prints one row per case.  The ``rank`` column checks
the freeness basis: the invariant ring is free of rank f**r over the
image of t -> t^f, with the f-restricted weights (lam_i - lam_(i+1) < f,
0 <= lam_r < f) as a basis, so it reads ``ok`` only when a certificate
keeps exactly those f**r generators.
Use --max-r / --max-f to restrict, --window to override the window;
values past the certificate caps are refused with exit code 2.  A case
whose window holds too many targets prints the reason in its row.
"""

import argparse
import time
from itertools import product

from basechange.finiteness import MAX_POWER, MAX_RANK, WindowTooSmall, finiteness_certificate


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-r", type=int, default=MAX_RANK)
    parser.add_argument("--max-f", type=int, default=MAX_POWER)
    parser.add_argument("--window", type=int, default=None)
    args = parser.parse_args()
    if not 1 <= args.max_r <= MAX_RANK:
        parser.error(f"--max-r must be in [1, {MAX_RANK}]")
    if not 1 <= args.max_f <= MAX_POWER:
        parser.error(f"--max-f must be in [1, {MAX_POWER}]")
    if args.window is not None and args.window < 1:
        parser.error("--window must be >= 1")

    print(f"{'r':>2} {'f':>2} {'window':>6} {'gens':>5} {'rank':>5} {'targets':>7} "
          f"{'maxcoef':>7} {'verified':>8} {'seconds':>8}")
    for r in range(1, args.max_r + 1):
        for f in range(1, args.max_f + 1):
            window = args.window if args.window is not None else 2 * f + 2
            start = time.perf_counter()
            try:
                cert = finiteness_certificate(r, f, window)
            except WindowTooSmall as exc:
                print(f"{r:>2} {f:>2} {window:>6}  window too small "
                      f"(suggested {exc.suggested_window})")
                continue
            except ValueError as exc:  # more target classes than MAX_TARGETS
                print(f"{r:>2} {f:>2} {window:>6}  {exc}")
                continue
            verified = cert.verify()
            elapsed = time.perf_counter() - start
            # lam_i is the sum of a_i..a_r for a in [0, f)^r
            restricted = sorted(tuple(sum(a[i:]) for i in range(r))
                                for a in product(range(f), repeat=r))
            rank = "ok" if sorted(cert.generators) == restricted else "no"
            print(f"{r:>2} {f:>2} {window:>6} {len(cert.generators):>5} {rank:>5} "
                  f"{len(cert.reductions):>7} {cert.max_coefficient_exponent():>7} "
                  f"{str(verified):>8} {elapsed:>8.2f}")


if __name__ == "__main__":
    main()
