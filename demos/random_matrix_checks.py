"""Monte Carlo verification of the subordination identities.

Every analytic identity in the package has a finite-N shadow: replace
free elements by independently Haar-rotated random matrices, replace
the trace by the normalized matrix trace, and the identity should hold
up to sampling noise that shrinks as N grows.  The experiment drivers
are fully seeded, so each line below reproduces byte for byte.

Sizes here are cut down for a quick run; the acceptance suite runs the
full-size versions (N = 512..600, up to 200 trials).
"""

import math

import numpy as np

from freesub import (CovarianceMap, circle_atoms, contraction_margins,
                     experiment_lemma34, experiment_prop32, experiment_prop33,
                     experiment_thm31_block, experiment_thm36, haar_circle)


def show(label, rep):
    resid = ", ".join(f"{k} {v:.4g}" for k, v in rep.residuals.items())
    print(f"{label:<22} {rep.verdict:<8} {resid}")


# -- 1. averaged resolvent diagonalizes in the eigenbasis of X ---------------

lam = np.where(np.arange(200) % 2 == 0, 1.0, -1.0)
show("resolvent diag", experiment_prop32(lam_diag=lam, a0=np.diag(lam[::-1]),
                                         eps=1.0, trials=100, seed=1))

# -- 2. conditional expectation of a resolvent collapses to a scalar ---------

show("scalar collapse", experiment_prop33(A0=np.diag(lam),
                                          C0=np.diag(np.linspace(0.5, 1.5, 200)),
                                          eps=1.0, trials=60, seed=1))

# -- 3. block subordination for two semicircular families --------------------

eta_x = CovarianceMap(kraus=[np.array([[0.9, 0.3], [0.0, 0.6]])])
eta_y = CovarianceMap(kraus=[np.array([[0.5, -0.2], [0.1, 0.7]])])
show("block subordination", experiment_thm31_block(eta_x, eta_y,
                                                   1j * np.eye(2),
                                                   N=128, trials=40, seed=2))

# -- 4. disk subordination at trace level ------------------------------------
#
# A Haar phase law kills the averaged trace outright; an identifiable
# atomic law instead produces a solvable disk point.  The contraction c0
# is the experiment's default: 0.7 times a Haar unitary of the same seed.

show("disk, haar law", experiment_thm36(theta_law=haar_circle(),
                                        N=200, trials=40, seed=3))
law = circle_atoms([(0.0, 0.5), (math.pi, 0.3), (math.pi / 2, 0.2)])
show("disk, atomic law", experiment_thm36(theta_law=law,
                                          N=200, trials=40, seed=3))

# -- 5. strict contraction margins agree -------------------------------------
#
# For x = s * [[0, 1], [0, 0]] both margins are 1 - s: they change sign
# together as ||x|| = s crosses 1.  The sweep checks this on random x.

for s in (0.9, 1.1):
    norm_margin, resolvent_margin = contraction_margins(
        s * np.array([[0.0, 1.0], [0.0, 0.0]]))
    print(f"||x|| = {s}: norm margin {norm_margin:+.3f}, "
          f"resolvent margin {resolvent_margin:+.3f}")
show("contraction margins", experiment_lemma34(samples=2000, seed=4))

# -- 6. determinism ----------------------------------------------------------

again = experiment_thm31_block(eta_x, eta_y, 1j * np.eye(2),
                               N=128, trials=40, seed=2)
base = experiment_thm31_block(eta_x, eta_y, 1j * np.eye(2),
                              N=128, trials=40, seed=2)
print(f"\nrerun with the same seed is bit-identical: "
      f"{again.to_json() == base.to_json()}")
