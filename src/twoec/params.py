"""Parameter profiles: thresholds are always derived from (alpha, epsilon).

The ``paper`` profile uses the published constants; ``desk`` shrinks every
threshold so the whole pipeline is exercisable on instances small enough for
the exact oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _ceil(x: Fraction) -> int:
    return math.ceil(x)


# delta of the FEW and of the MANY credit scheme
FEW_DELTA = Fraction(1, 100)
MANY_DELTA = Fraction(1, 28)


@dataclass(frozen=True)
class StructuredParams:
    alpha: Fraction
    epsilon: Fraction
    huge_threshold: int = 32           # component with >= this many vertices is huge

    @property
    def size_floor(self) -> Fraction:
        return Fraction(8, 1) / self.epsilon

    @property
    def three_cut_side(self) -> int:
        return _ceil(Fraction(2) / (self.alpha - 1)) - 1

    def ck_side(self, k: int) -> int:
        return _ceil(Fraction(k) / (self.alpha - 1)) - 1

    @property
    def four_cut_side_2(self) -> int:
        # condition-1 threshold of the k-cut algorithm with k = 4: 2k-2 = 6
        return _ceil(Fraction(2 * 4 - 2) / (self.alpha - 1)) - 1

    @property
    def four_cut_min_opt(self) -> int:
        """Least opt1 with opt1 + 4 <= alpha * opt1, which condition 2 of a
        4-vertex cut needs of its small side's closure: ceil(4 / (alpha -
        1)), 18 on desk and 17 on paper."""
        return _ceil(Fraction(4) / (self.alpha - 1))

    @property
    def four_cut_small_side(self) -> int:
        """Fewest small-side vertices a condition-2 4-cut can have.  The
        closure of a small side V1 has |V1| + 1 vertices, so its optimum
        opt1 is at most 2|V1| (a 2EC graph on n' vertices has a 2EC spanning
        subgraph of at most 2(n' - 1) edges, Nagamochi-Ibaraki).  Condition
        2 needs opt1 >= ``four_cut_min_opt``, hence |V1| >=
        ceil(four_cut_min_opt / 2)."""
        return _ceil(Fraction(self.four_cut_min_opt, 2))

    def is_base_size(self, n: int) -> bool:
        return Fraction(n) <= self.size_floor


def paper_params() -> StructuredParams:
    return StructuredParams(alpha=Fraction(5, 4) - Fraction(1, 100000),
                            epsilon=Fraction(1, 1000000))


def desk_params() -> StructuredParams:
    # huge threshold 9 keeps the classification consistent: cycles up to C8
    # stay cycles, any component on >= 9 vertices (2EC or complex) is huge,
    # and a huge 2EC component always has >= 9 edges (credit 2).
    return StructuredParams(alpha=Fraction(123, 100), epsilon=Fraction(1, 2),
                            huge_threshold=9)


PROFILES = {"paper": paper_params, "desk": desk_params}


def get_profile(name: str) -> StructuredParams:
    try:
        return PROFILES[name]()
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}")
