# Solve rate across release time
#
# If a model memorized problems seen during training, its solve rate
# should drop for problems released after the training cutoff. The
# sliding-window series makes that visible: each window covers a span
# of release months and carries a bootstrap confidence interval.

import csv
import datetime as dt
import random

from nestflow.evalharness import (
    WINDOW_SPAN_MONTHS,
    WINDOW_STEP_MONTHS,
    BootstrapDraws,
    sliding_window,
    temporal_series_csv,
)

# Synthetic outcomes: solve probability 0.8 before September 2021 and
# 0.25 after, twenty problems per month.

cutoff = dt.date(2021, 9, 1)
rng = random.Random(7)
dated = []
for year, month in [(2021, m) for m in range(3, 13)] + [(2022, 1), (2022, 2)]:
    p_solved = 0.8 if dt.date(year, month, 1) < cutoff else 0.25
    for _ in range(20):
        day = rng.randint(1, 28)
        dated.append((dt.date(year, month, day), rng.random() < p_solved))

# Each window spans WINDOW_SPAN_MONTHS release months and starts
# WINDOW_STEP_MONTHS after the last; the intervals take 1000 resamples
# drawn from seed 42.

points = sliding_window(dated, BootstrapDraws(1000, 42), 0.95)

print(f"windows of {WINDOW_SPAN_MONTHS} months, one every {WINDOW_STEP_MONTHS}")
print("window            rate    95% CI        n")
for wp in points:
    marker = " <- spans the cutoff" if wp.start < cutoff < wp.end else ""
    print(f"{wp.start} .. {wp.end}  {wp.rate.point:5.1f}  "
          f"[{wp.rate.ci_low:5.1f}, {wp.rate.ci_high:5.1f}]  {wp.rate.n:3d}{marker}")

# The drop is confined to windows overlapping the cutoff; fully-pre and
# fully-post windows just estimate their own regime.

# A report writes the series as temporal_series.csv, every float as its
# repr, so a plotting script or spreadsheet reads back the exact values
# without re-running anything.

text = temporal_series_csv({"Code": points})
rows = list(csv.reader(text.splitlines()))
print()
print("\n".join(text.splitlines()[:3]))
print("floats read back exact:", [tuple(map(float, row[3:6])) for row in rows[1:]]
      == [(wp.rate.point, wp.rate.ci_low, wp.rate.ci_high) for wp in points])
