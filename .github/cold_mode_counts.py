"""Print three markdown table rows for the README quick-start panel (10x10
torus, T = 100, seed 1): the stacked Newton iterations and the ``dpbtrf`` calls
of its cold latent mode at the truth, and the ``dpbtrf`` and ``dtrtri`` calls
of one cold ``xla_log_posterior`` there. All are counts, fixed by the seed, so
the mode layer's and the corrections' trajectories can be followed commit by
commit without timing noise.

    PYTHONPATH=src python .github/cold_mode_counts.py
"""

from collections import Counter

import numpy as np
from scipy.linalg import lapack

import secar
from secar import kernels


class CountedLapack:
    """Stands in for ``scipy.linalg.lapack`` in :mod:`secar.kernels`, the one
    module that calls it, and counts its calls by routine name."""

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        routine = getattr(lapack, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return routine(*args, **kwargs)

        return counted


def counted_calls(fn):
    """``fn()`` with :mod:`secar.kernels`' LAPACK calls counted: (result, counts)."""
    counted = CountedLapack()
    kernels.lapack = counted
    try:
        return fn(), counted.calls
    finally:
        kernels.lapack = lapack


def main():
    car = secar.CarStructure.from_graph(secar.build_torus_lattice(10, 10))
    truth = secar.ModelParams(eta=0.1, zeta=0.245, tau2=0.4, beta=np.array([0.0]))
    design = secar.CovariateDesign.intercept_only(100, car.n_d)
    panel, _ = secar.simulate(car, truth, design, T=100, seed=1)
    alpha = secar.linear_predictor(design, truth.beta)
    mode, mode_calls = counted_calls(lambda: secar.find_mode(panel, truth, alpha, car))
    _, xla_calls = counted_calls(lambda: secar.xla_log_posterior(panel, truth, design, car))
    print(f"| quick-start cold mode at the truth: stacked Newton iterations "
          f"| {int(mode.block_iterations.max())} |")
    print(f"| quick-start cold mode at the truth: dpbtrf calls | {mode_calls['dpbtrf']} |")
    print(f"| quick-start cold xla_log_posterior at the truth: dpbtrf / dtrtri calls "
          f"| {xla_calls['dpbtrf']} / {xla_calls['dtrtri']} |")


if __name__ == "__main__":
    main()
