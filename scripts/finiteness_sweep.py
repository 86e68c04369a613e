#!/usr/bin/env python3
"""Sweep finiteness certificates over (r, f) and report sizes and timings.

Builds the certificate at the builder's default window for every supported
pair (1 <= r <= MAX_RANK, 1 <= f <= MAX_POWER), verifies it by full
re-expansion, and prints one row per case.  The ``rank`` column checks
the freeness basis: the invariant ring is free of rank f**r over the
image of t -> t^f, with the f-restricted weights (lam_i - lam_(i+1) < f,
0 <= lam_r < f) as a basis, so it reads ``ok`` only when a certificate
keeps f**r distinct generators, each weakly decreasing and meeting those
inequalities: the check states the definition, not the formula
finiteness_certificate lists the weights by.
Use --max-r / --max-f to restrict, --window to override the window;
values past the certificate caps are refused with exit code 2.  A case
the builder refuses (a window below r(f-1), or one holding more targets
than MAX_TARGETS) prints the reason in its row.
"""

import argparse
import time

from basechange.finiteness import MAX_POWER, MAX_RANK, finiteness_certificate


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
            start = time.perf_counter()
            try:
                cert = finiteness_certificate(r, f, args.window)
            except ValueError as exc:  # WindowTooSmall included; the message names the window
                print(f"{r:>2} {f:>2}  {exc}")
                continue
            verified = cert.verify()
            elapsed = time.perf_counter() - start
            gens = set(cert.generators)
            restricted = all(len(g) == r and 0 <= g[-1] < f
                             and all(0 <= a - b < f for a, b in zip(g, g[1:])) for g in gens)
            rank = "ok" if restricted and len(gens) == len(cert.generators) == f**r else "no"
            print(f"{r:>2} {f:>2} {cert.window:>6} {len(cert.generators):>5} {rank:>5} "
                  f"{len(cert):>7} {cert.max_coefficient_exponent():>7} "
                  f"{str(verified):>8} {elapsed:>8.2f}")


if __name__ == "__main__":
    main()
