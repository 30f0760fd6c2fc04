"""Variational character of the one-component couples.

Reads each couple's label from the second variation in the foreign
component: the couple whose foreign exponent exceeds 2 is a local minimum,
the one with a sub-2 foreign exponent is a saddle for any coupling, and at
exponent exactly 2 the label flips where the coupling strength crosses the
threshold nu*, the lowest eigenvalue of the foreign operator against the
host-weighted coupling.  Where the host exponent is p - 2 and h is
constant, that eigenproblem is a Poschl-Teller well and nu* has a closed
form, which the probe reports beside the computed value.
"""

from hsvar import (ProblemParams, build_grid, classification_flip,
                   critical_exponent, semitrivial_probe)

grid = build_grid(3, 1e-6, 1e6, 2048)


def show(which, alpha, beta, nu):
    pr = ProblemParams(3, 0.5, 0.12, 0.1, alpha, beta, nu)
    rep = semitrivial_probe(pr, which, grid)
    print(f"  {which:6s} couple, alpha={alpha}, beta={beta}, nu={nu:g}: "
          f"{rep.classification}  (nu* = {rep.extra['nu_star']:.6g})")


print("classification matrix:")
show("first", 1.5, 3.0, 1e-3)    # foreign exponent beta=3  -> local minimum
show("second", 3.0, 1.5, 1e-3)   # foreign exponent alpha=3 -> local minimum
show("second", 1.5, 3.0, 1e-2)   # foreign exponent alpha=1.5 -> saddle
show("first", 3.0, 1.5, 1e-2)    # foreign exponent beta=1.5 -> saddle

print("\nexponent exactly 2: label flips as the coupling strength crosses nu*")
for nu in (1e-3, 0.2, 0.3, 1.0, 30.0):
    show("second", 2.0, 2.2, nu)


def params_at(nu):
    return ProblemParams(3, 0.5, 0.12, 0.1, 2.0, 2.2, nu)


res = classification_flip(params_at, 1e-3, 100.0, "second", grid)
lo, hi = res["bracket"]
print(f"\nthe flip lies between nu = {lo!r} ({res['labels'][lo]}) and the next "
      f"float, {hi!r} ({res['labels'][hi]})")

# host exponent beta = p - 2 and constant h: nu* in closed form
p = critical_exponent(4, 0.5)
rep = semitrivial_probe(ProblemParams(4, 0.5, 0.1, 0.3, 2.0, p - 2.0, 0.1), "second",
                        build_grid(4, 1e-6, 1e6, 4096))
nu_star, closed = rep.extra["nu_star"], rep.extra["nu_star_closed_form"]
print(f"\nN=4, s=0.5, lambda=(0.1, 0.3), alpha=2, beta=p-2={p - 2:g}: nu* = "
      f"{nu_star:.9g} in {rep.iterations} solves, closed form {closed:.9g} "
      f"(gap {nu_star / closed - 1:+.2e})")
