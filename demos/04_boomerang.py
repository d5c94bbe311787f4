"""Boomerang analysis of F_{2,1}: BCT entries, the row cap, case counts.

For u = 1 only four of the sixteen (C_ij x C_kl) solution classes of the
boomerang system can be populated, and no output difference collects more
than two pairs; the uniformity settles at 2 once q is large enough.

Run:  python3 demos/04_boomerang.py
"""

from nhsbox import (
    FunctionTable,
    NHParams,
    bct_entry,
    boomerang_case_counts_F21,
    boomerang_spectrum,
    build_field,
)
from nhsbox.spectra import bct_entry_bruteforce, boomerang_row

q = 331
field = build_field(q)
table = FunctionTable.from_nh(field, NHParams(2, 1))

row = boomerang_row(table, 1)
print(f"q = {q}: max over b != 0 of beta(1, b) =", int(row[1:].max()))

# The fiber-bucketed BCT row agrees with O(q^2) pair enumeration.
for b in (1, 2, 17, 100):
    fast, slow = bct_entry(table, 1, b), bct_entry_bruteforce(table, 1, b)
    assert fast == slow == row[b]
    print(f"  beta(1, {b:3d}) = {fast}")

# Class counts of every b != 0 in one call: only {00,01}, {00,10}, {01,00},
# {10,00} can light up, and their sum reproduces the BCT row.
counts = boomerang_case_counts_F21(field, field.elements()[1:])
assert (sum(counts.values()) == row[1:]).all()
b = int(next(i for i in range(1, q) if row[i] == 2))
live = {k: int(v[b - 1]) for k, v in counts.items() if v[b - 1]}
print(f"\nfirst b with beta(1,b) = 2: b = {b}, live classes: {live}")
assert live == {k: v for k, v in boomerang_case_counts_F21(field, b).items() if v}
print("number of b != 0 in each live class:", {k: int(v.sum()) for k, v in counts.items() if v.any()})

spec = boomerang_spectrum(table, reduction=NHParams(2, 1))
print("\nboomerang spectrum:", spec.nu, " beta =", spec.uniformity)
print("nu-sum == (q-1)^2:", spec.identities_hold(q))
