"""Desk-scale uniformity sweeps: the claim engine end to end.

Each claim pins an expected uniformity over a congruence family of prime
powers; the sweep hands its (claim, q) tasks to the workers one at a
time, as they free up, and the merged report is independent of the
worker count.

Run:  python3 demos/03_uniformity_sweep.py
"""

from nhsbox import SweepConfig, sweep

# u = 1/3 has delta = 3 whenever q = 7 (mod 8), q > 7 (delta = 2 at q = 7).
report = sweep(SweepConfig(claims=("THM5_DELTA3", "APN_Q7"), min_q=3, max_q=1000, jobs=2))
print(report.to_text())

# Exhaustive-u claims: every u outside the excluded set with
# eta(1+u) = eta(1-u) should give delta = 4 once q clears 839.
report = sweep(
    SweepConfig(claims=("THM3_DELTA4",), min_q=839, max_q=1200, jobs=2, u_mode="all")
)
print(report.to_csv(), end="")

# Determinism: rerunning with a different worker count is byte-identical.
again = sweep(
    SweepConfig(claims=("THM3_DELTA4",), min_q=839, max_q=1200, jobs=1, u_mode="all")
)
assert again.to_csv() == report.to_csv()
print("\nworker-count independence holds")
