"""Adversarial leakage search over projective measurements.

Maximizes the expected information gain over all measurement bases for
small unbiased families, then scans a (k, m) grid and fits the observed
leakage to c * k^alpha * m for comparison with the 0.4 k^0.7 m rule of
thumb.  Every reported number is a lower bound on the true supremum and is
reproducible from the stored parameters.
"""

from obliq import OptimizerConfig, SeededRng, leakage_scan, max_leakage, mub_family
from obliq.analysis import scan_csv
from obliq.encodings import explicit_single_bit_family


def main():
    config = OptimizerConfig(restarts=8, iterations=400)

    print("Two items, one bit each (the proven-tight case):")
    res = max_leakage(explicit_single_bit_family(), config, SeededRng(1))
    print(f"  best gain {res.best_gain:.6f} bits vs bound {res.bound:.1f}"
          f" (found by restart {res.best_restart})")

    print("\nThree items, one bit each, unbiased triple:")
    res = max_leakage(mub_family(3, 1), config, SeededRng(2))
    print(f"  honest gain is 1.0; search found {res.best_gain:.6f} bits"
          f" vs cap {res.bound:.1f}")

    print("\nScan over k in 2..4, m in 1..2 (reduced optimizer budget):")
    results, fit = leakage_scan([2, 3, 4], [1, 2], OptimizerConfig(restarts=4, iterations=120), SeededRng(3))
    print(scan_csv(results, fit))


if __name__ == "__main__":
    main()
