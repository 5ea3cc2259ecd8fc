"""Spectral separability toolkit.

Certifies separability properties of quantum states from spectral data,
constructs the associated entanglement witnesses and probabilistic unital
instruments, and cross-checks everything against brute-force oracles.
"""

__version__ = "0.1.0"
