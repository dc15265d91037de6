"""The verdict ``benchmarks/pair.py`` prints per metric, on fixed runs."""

from __future__ import annotations

from benchmarks.pair import verdict

#: a revision's ten runs of a higher-is-better metric: median 100,
#: quartiles 99 and 101
BASE = [98.0, 99.0, 99.0, 100.0, 100.0, 100.0, 100.0, 101.0, 101.0, 102.0]


def test_gain_needs_nine_wins_in_ten_and_a_median_past_the_spread():
    assert verdict(BASE, [x + 5 for x in BASE], False, 0.25) == "gain"
    # nine of ten pairs won is enough...
    head = [x + 5 for x in BASE[:9]] + [BASE[9] - 1]
    assert verdict(BASE, head, False, 0.25) == "gain"
    # ...eight is not
    head = [x + 5 for x in BASE[:8]] + [BASE[8] - 1, BASE[9] - 1]
    assert verdict(BASE, head, False, 0.25) == "same"
    # every pair won, but by less than the revision's q3 - q1 (2)
    assert verdict(BASE, [x + 1 for x in BASE], False, 0.25) == "same"


def test_ties_count_for_neither_side():
    assert verdict(BASE, list(BASE), False, 0.25) == "same"


def test_lower_is_better_flips_the_direction():
    assert verdict(BASE, [x - 5 for x in BASE], True, 0.25) == "gain"
    assert verdict(BASE, [x + 5 for x in BASE], True, 0.25) == "loss"


def test_loss_by_pairs_or_by_the_bound():
    assert verdict(BASE, [x - 5 for x in BASE], False, 0.25) == "loss"
    # a median 30 % worse is a loss even when the pairs are split
    head = [70.0] * 6 + [105.0] * 4
    assert verdict(BASE, head, False, 0.25) == "loss"


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [50.0, 60.0, 80.0, 90.0, 100.0, 100.0, 110.0, 120.0, 140.0, 150.0]
    assert verdict(wide, list(wide), False, 0.25) == "unresolved"
    # a clear win still reads as a gain
    assert verdict(wide, [x + 60 for x in wide], False, 0.25) == "gain"
