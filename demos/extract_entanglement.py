"""Walk through entanglement extraction with a stochastic unital instrument.

A state whose eigenvalue ratio exceeds (d+1)/(d-1) can be steered, with
nonzero probability and without ever generating purity, into an entangled
state.  This script builds the measure-and-prepare instrument for a diagonal
two-qubit input: its two branches measure the input's largest- and
smallest-eigenvalue eigenvectors and prepare states diagonal in the target's
eigenbasis.  It applies the instrument and certifies the output with the
partial transpose.
"""

import numpy as np

from specsep.channels import entangle_from, normalized_output
from specsep.oracles import ppt_min_eigenvalue
from specsep.states import density_matrix, spectral_ratio, spectrum


def main():
    vals = [0.4, 0.3, 0.2, 0.1]
    rho = density_matrix(np.diag(vals).astype(complex), (2, 2))
    r = spectral_ratio(spectrum(rho))
    print("input spectrum %s, eigenvalue ratio R = %.4g" % (vals, r))
    print("extraction threshold for two qubits: R > 3  ->  %s" % (r > 3))

    instrument, target = entangle_from(rho)
    q = instrument.unitality_factor
    print("instrument is stochastic unital with Lambda(1) = %.4g * 1" % q)

    normalized, prob = normalized_output(instrument, rho)
    print("success probability: %.6g" % prob)
    print("target spectrum:    %s" % np.round(spectrum(target).values, 6).tolist())
    print("realized spectrum:  %s" % np.round(spectrum(normalized).values, 6).tolist())
    print("min PT eigenvalue of the output: %.6g (negative => entangled)"
          % ppt_min_eigenvalue(normalized))


if __name__ == "__main__":
    main()
