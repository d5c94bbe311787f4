"""Differential spectra of F_{2,u}(x) = x^2 (1 + u*eta(x)).

The u = 1 member has a huge differential uniformity (q+1)/4 concentrated
at a single output difference, yet is locally-APN; its whole spectrum
collapses to a closed form driven by one cubic character sum T.

Run:  python3 demos/02_differential_spectrum.py
"""

from nhsbox import (
    FunctionTable,
    NHParams,
    build_field,
    closed_form_spectrum_F21,
    cubic_character_sum,
    differential_spectrum,
)

q = 59
field = build_field(q)
table = FunctionTable.from_nh(field, NHParams(2, 1))

brute = differential_spectrum(table)                      # full (q-1) x q DDT
reduced = differential_spectrum(table, reduction=NHParams(2, 1))  # row a=1 only (q = 3 mod 4)
closed = closed_form_spectrum_F21(field)                  # no DDT at all

print(f"q = {q},  T = sum eta((y+1)(y^2+1)) = {cubic_character_sum(field)}")
print("brute  :", brute.omega)
print("reduced:", reduced.omega)
print("closed :", closed.omega)
assert brute.omega == reduced.omega == closed.omega

print("\ndelta =", brute.uniformity, "= (q+1)/4 =", (q + 1) // 4)
print("locally-APN:", brute.locally_apn)
print("sum identities (both equal q(q-1)):", brute.identities_hold(q))

# Other u behave very differently; delta drops to single digits.
for u in (2, 5, field.inv(3)):
    spec = differential_spectrum(FunctionTable.from_nh(field, NHParams(2, u)))
    print(f"u = {u:2d}: delta = {spec.uniformity}, omega = {spec.omega}")

# The reduction holds at every odd q.  At q = 13 = 1 (mod 4), -1 is a square,
# so row 1 stands for the squares a only and row g (a non-square) for the rest.
f13 = build_field(13)
t13 = FunctionTable.from_nh(f13, NHParams(2, 2))
full13 = differential_spectrum(t13)
reduced13 = differential_spectrum(t13, reduction=NHParams(2, 2))  # rows 1 and g
print("\nq = 13, u = 2: delta =", full13.uniformity, "omega =", full13.omega)
assert full13 == reduced13
