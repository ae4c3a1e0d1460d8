"""Walkthrough: from a nominal risk measure to its worst-case counterpart.

Builds a small finite scenario space, evaluates a handful of risk measures,
then robustifies them over different uncertainty families and inspects the
solver guarantees and worst-case witnesses.

Run with:  python demos/robust_values_walkthrough.py
"""

import numpy as np

import robustrisk as rr

space = rr.ProbSpace([0.4, 0.3, 0.2, 0.1])
X = rr.Position(space, [1.2, 0.3, -0.8, -2.5])  # a position with a bad tail

print("nominal values")
for rho in (rr.neg_expectation(), rr.entropic(1.0),
            rr.expected_shortfall(0.5), rr.worst_case()):
    print(f"  {rho.name:<25} {rho(X): .6f}")

# Robustify over three ball families of the same radius. The sup-norm ball
# has an exact closed form (uniform downward shift); the L1 ball is solved
# exactly by vertex enumeration; the Wasserstein ball reports a certified
# lower bound with an explicit member achieving it.
print("\nworst-case values, radius 0.3")
rho = rr.entropic(1.0)
for fam in (rr.sup_norm_ball(0.3), rr.p_norm_ball(1.0, 0.3),
            rr.wasserstein_ball(1.0, 0.3)):
    rv = rr.robust_value(rho, fam, X)
    print(f"  {fam.name:<25} value={rv.value: .6f}  solver={rv.solver}"
          f"  guarantee={rv.guarantee}")
    assert fam.membership(X, rv.witness)

# The witness is a genuine member of the uncertainty set and attains the
# reported value whenever the solver is exact.
fam = rr.sup_norm_ball(0.3)
rv = rr.robust_value(rho, fam, X)
print("\nsup-ball witness:", np.round(rv.witness.values, 6))
print("rho(witness) - reported:", rho(rv.witness) - rv.value)

# Acceptance view: the robust value is exactly the smallest capital level at
# which every member of the uncertainty set is acceptable.
at = rr.robust_acceptance_check(rho, fam, X, rv.value)["x_in_robust"]
below = rr.robust_acceptance_check(rho, fam, X, rv.value - 1e-6)["x_in_robust"]
print("\nrobust-acceptable at the worst-case value:", at, "; 1e-6 below it:", below)
assert at and not below
