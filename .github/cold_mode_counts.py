"""Print two markdown table rows for the README quick-start panel (10x10 torus,
T = 100, seed 1): the stacked Newton iterations and the ``dpbtrf`` calls of its
cold latent mode at the truth. Both are counts, fixed by the seed, so the mode
layer's trajectory can be followed commit by commit without timing noise.

    PYTHONPATH=src python .github/cold_mode_counts.py
"""

import numpy as np
from scipy.linalg import lapack

import secar
from secar import kernels


class CountedLapack:
    """Stands in for ``scipy.linalg.lapack`` in :mod:`secar.kernels`, the one
    module that calls it, and counts its ``dpbtrf`` calls."""

    def __init__(self):
        self.dpbtrf_calls = 0

    def __getattr__(self, name):
        return getattr(lapack, name)

    def dpbtrf(self, *args, **kwargs):
        self.dpbtrf_calls += 1
        return lapack.dpbtrf(*args, **kwargs)


def main():
    car = secar.CarStructure.from_graph(secar.build_torus_lattice(10, 10))
    truth = secar.ModelParams(eta=0.1, zeta=0.245, tau2=0.4, beta=np.array([0.0]))
    design = secar.CovariateDesign.intercept_only(100, car.n_d)
    panel, _ = secar.simulate(car, truth, design, T=100, seed=1)
    counted = CountedLapack()
    kernels.lapack = counted
    mode = secar.find_mode(panel, truth, secar.linear_predictor(design, truth.beta), car)
    kernels.lapack = lapack
    print(f"| quick-start cold mode at the truth: stacked Newton iterations "
          f"| {int(mode.block_iterations.max())} |")
    print(f"| quick-start cold mode at the truth: dpbtrf calls | {counted.dpbtrf_calls} |")


if __name__ == "__main__":
    main()
