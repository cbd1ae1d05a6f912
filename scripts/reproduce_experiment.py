#!/usr/bin/env python3
"""Reproduce the key-rate summary table from the bundled detector tallies.

Prints one row per channel loss with the derived QBER, sifted size, phase
error bound, and finite-key rate next to the published values.  It takes
no options; the gain comes from the channel model, as in `pmqkd reproduce`.
"""

import argparse

from pmqkd.ingest import load_bundled_record, reproduce_key_rate

PUBLISHED = {35: 3.00e-6, 40: 8.50e-7, 45: 2.25e-7}


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()  # rejects any option
    header = (f"{'loss':>6} {'E_b':>8} {'n_mu':>9} {'m_s':>5} "
              f"{'ep_bar':>8} {'R':>10} {'published':>10} {'ratio':>6}")
    print(header)
    print("-" * len(header))
    for loss, r_ref in PUBLISHED.items():
        res = reproduce_key_rate(load_bundled_record(loss))
        print(f"{loss:>4} dB {res.e_b * 100:7.3f}% {res.n_mu:9.0f} "
              f"{res.m_s:5.0f} {res.ep_m_bar:8.4f} {res.rate:10.3e} "
              f"{r_ref:10.2e} {res.rate / r_ref:6.3f}")


if __name__ == "__main__":
    main()
