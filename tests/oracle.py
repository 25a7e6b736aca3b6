"""Photon pairs in second quantization: the tests' reference for every pair rate.

Written from the field operators, with numpy alone and no code shared
with the package under test.

- There are four single-photon modes, (detector A or B) x (polarization
  H or V), numbered 2 X + p.  The legs are plain complex numbers
  ((d1A, d1B), (d2A, d2B)), and a photon from source i in polarization p
  occupies the mode vector u_{i,p} = sum_X d_iX e_{X,p}.
- A pair whose photon from source i is in p and whose photon from source
  j is in q, with amplitude psi[p, q], is the state
  sum_mn C_mn a_m^dagger a_n^dagger |0> with C = sum_pq psi[p, q] u_{i,p} u_{j,q}^T.
  Its amplitude for one photon in mode m and one in mode n != m is S_mn,
  with S = C + C^T, and for both in mode m it is S_mm / sqrt 2.
- A detector's analyzer holds one complex polarization vector e per
  outcome.  A photon is found in it with amplitude e^dagger, so both
  vectors of a pair amplitude are conjugated: e_A^dagger S conj(e_B).
- A mixed pair density rho (index 2 p + q) is the sum of its eigenstates,
  each weighted by its eigenvalue.
"""

import numpy as np

#: psi[p, q] of the Bell states: kind 1 is (HH + VV)/sqrt 2, kind 2 the singlet (HV - VH)/sqrt 2.
BELL = {1: np.eye(2) / np.sqrt(2.0), 2: np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0)}


def pure(psi):
    """The pair density |psi><psi| of the amplitudes psi[p, q], index 2 p + q."""
    psi = np.ravel(psi)
    return np.outer(psi, psi.conj())


def linear_analyzer(t):
    """The outcome vectors (+1, -1) of a polarizer at angle t, as rows."""
    return np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])


def pair_amplitudes(legs, psi, i=0, j=1):
    """S = C + C^T over the four modes, for the pure pair state psi from sources (i, j)."""
    u_i, u_j = (np.kron(np.reshape(legs[s], (2, 1)), np.eye(2)) for s in (i, j))  # columns u_{s,p}
    c = u_i @ psi @ u_j.T
    return c + c.T


def events(legs, rho, analyzer_a, analyzer_b, i=0, j=1):
    """Event rates (AB, AA, BB) of the pair density rho from sources (i, j).

    Each analyzer holds one outcome vector per row.  AB[k, l] is the rate
    of one photon at A in outcome k and one at B in outcome l.  AA[k, l],
    k <= l, is the rate of both photons at A, in outcomes k and l: upper
    triangular, with the factor 1/2 of a doubly occupied outcome on its
    diagonal.  BB is the same at B.
    """
    na = len(analyzer_a)
    e = np.zeros((na + len(analyzer_b), 4), dtype=complex)
    e[:na, :2], e[na:, 2:] = analyzer_a, analyzer_b
    weights, states = np.linalg.eigh(rho)
    rates = 0.0
    for w, psi in zip(weights, states.T):
        amplitudes = e.conj() @ pair_amplitudes(legs, psi.reshape(2, 2), i, j) @ e.conj().T
        rates = rates + w * np.abs(amplitudes) ** 2
    aa, bb = (np.triu(r) - np.diag(np.diag(r)) / 2.0 for r in (rates[:na, :na], rates[na:, na:]))
    return rates[:na, na:], aa, bb


def correlator(ab):
    """Total rate and +-1 outcome correlator of a 2x2 block AB of coincidence rates."""
    total = ab.sum()
    return total, (ab[0, 0] - ab[0, 1] - ab[1, 0] + ab[1, 1]) / total
