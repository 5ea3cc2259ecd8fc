"""Tabulate every spectral criterion on a family of reference states.

The interesting specimen is the diagonal 2x3 state whose eigenvalue ratio
sits exactly on the threshold: the ratio criterion certifies it cannot be
entangled by any unital dynamics, while every purity-based test stays
silent, and a tailored witness separates it from the classic
guaranteed-separable regions.
"""

from specsep.criteria import run_all
from specsep.states import (
    bipartite_dims,
    make_named_state,
    make_omega_t,
    make_rho_tilde,
    maximally_mixed,
    spectrum,
)
from specsep.witnesses import evaluate, make_separating_witness


def show(label, rho):
    print(label)
    for v in run_all(spectrum(rho)):
        print("  %-20s %s" % (v.name, v.status))


def main():
    show("maximally mixed (2x3):", maximally_mixed(bipartite_dims(2, 3)))
    show("threshold diagonal state (2x3):", make_rho_tilde(2, 3))
    show("werner state (2x2):", make_named_state("werner"))
    show("omega_t at t=1.2 (2x2):", make_omega_t(2, 2, 1.2))

    w = make_separating_witness(2, 3)
    rho = make_rho_tilde(2, 3)
    print("separating witness on the threshold state: Tr(W rho) = %.6g"
          % evaluate(w, rho))
    print("(negative: the state lies outside the hull of the two "
          "guaranteed-separable regions)")


if __name__ == "__main__":
    main()
