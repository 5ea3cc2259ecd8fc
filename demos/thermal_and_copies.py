"""Closed-form bounds: thermal states and tensor copies.

Above a Hamiltonian-dependent temperature every Gibbs state has eigenvalue
ratio at most (l+1)/(l-1) and is therefore separable across every cut whose
smaller side has dimension at most l; for three qubits in local fields the
script lists those cuts.  Conversely, enough tensor copies of
any non-maximally-mixed state always escape the absolutely-PPT set.
"""

import math
from itertools import product

from specsep.criteria import copy_bound, gibbs_threshold, multipartite_guarantee
from specsep.states import gibbs_spectrum, spectral_ratio


def main():
    energies = [-1.0, -0.2, 0.4, 1.0]
    h_norm = max(abs(e) for e in energies)
    t_star = gibbs_threshold(h_norm, l=2)
    print("entanglement-free threshold for ||H|| = %.3g, l = 2: T* = %.6g"
          % (h_norm, t_star))
    for t in (0.5 * t_star, t_star, 2.0 * t_star):
        s = gibbs_spectrum(energies, t)
        print("  T = %8.4f  ratio = %.4f  (<= 3 certifies)" %
              (t, spectral_ratio(s)))

    print()
    fields = (0.3, 0.5, 0.2)
    energies = [sum(h * z for h, z in zip(fields, signs))
                for signs in product((1, -1), repeat=3)]
    t = 1.5 * gibbs_threshold(max(abs(e) for e in energies), l=2)
    s = gibbs_spectrum(energies, t, locals=(2, 2, 2))
    print("three qubits in local fields %s at T = %.4f (1.5 T*): ratio = %.4f"
          % (fields, t, spectral_ratio(s)))
    for left, right in multipartite_guarantee(s, l=2):
        print("  separable across qubits %s | %s" % (left, right))

    print()
    for r in (1.5, 2.0, 3.0, 5.0, 10.0):
        n = copy_bound(r)
        print("ratio %4.4g: %d copies certified to leave the absolutely-PPT set "
              "(R^n = %.4g > R + 2 sqrt(R) = %.4g)"
              % (r, n, r**n, r + 2 * math.sqrt(r)))


if __name__ == "__main__":
    main()
