"""Workload inputs: the CLI commands each workload runs, made from a seed.

This module imports nothing from the program, so ``run.py`` can use it
without loading the package under test.
"""

from __future__ import annotations

import random

WORKLOADS = ("battery", "sites", "selberg")

# The 49 types of the default battery: classical families to rank 12 plus
# the exceptional types.
BATTERY = ([f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 13)]
           + [f"C{n}" for n in range(2, 13)] + [f"D{n}" for n in range(3, 13)]
           + ["E6", "E7", "E8", "F4", "G2"])

# The large-prime site is drawn from the admissible primes p = 1 (mod 12)
# in this range (1993, 2017 and 2029), so its Gauss-sum cost varies by
# under 2% from seed to seed.
LARGE_P_RANGE = (1990, 2030)

JSON = ["--format", "json"]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def admissible_primes(modulus: int, lo: int, hi: int) -> list[int]:
    """Primes p in [lo, hi] with p = 1 (mod modulus)."""
    return [p for p in range(lo, hi + 1) if p % modulus == 1 and _is_prime(p)]


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argument vectors of one round of a workload, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "battery":
        types = list(BATTERY)
        rng.shuffle(types)
        return [[cmd, *extra, "--type", t, *JSON]
                for t in types
                for cmd, *extra in (["roots"], ["verify", "all"], ["pf"], ["gamma"])]
    if workload == "sites":
        large_p = rng.choice(admissible_primes(12, *LARGE_P_RANGE))
        sites = [
            ["--type", "E6", "--prime", "13"],            # N=12: recognition
            ["--type", "E7", "--prime", "19"],            # N=18: recognition
            ["--type", "E6", "--prime", str(large_p)],    # N=12: Gauss sums
            ["--type", "E7", "--prime", "19", "--digits", "20"],
        ]
        rng.shuffle(sites)
        return [["jacobi", *site, *JSON] for site in sites]
    if workload == "selberg":
        # The CLI takes no grid points as input: the default real (n = 1, 2)
        # and complex (n = 1) grids run in the program's own order.
        return [["selberg", *JSON]]
    raise ValueError(f"unknown workload {workload!r}")
