"""Large grids: above bench.DENSE_KERNEL_LIMIT the Hammerstein newton
iteration holds no N x N array, and it takes the steps and errors of the
dense kernel."""
import tracemalloc

import numpy as np
import pytest

import monoreg.bench
from monoreg import (
    HilbertVector,
    IterConfig,
    LinearMap,
    NoiseSpec,
    Table1Config,
    gen_noise,
    hammerstein_operator,
    iter_newton,
    make_discrete,
    make_hammerstein,
)
from monoreg.bench import DENSE_KERNEL_LIMIT, EUCLIDEAN, TRAPEZOID, schedule_scale
from monoreg.schedules import NEWTON_ITER


def _newton_on_mesh(n_nodes, norm_mode=TRAPEZOID, delta_rel=0.05):
    # iter_newton from zero with the Table-1 schedule and stop, noise
    # seed 0; returns (steps, relative error)
    table = Table1Config()
    prob = make_hammerstein(n_nodes, norm_mode)
    F = hammerstein_operator(prob)
    f_delta, delta = gen_noise(F(prob.exact_solution), NoiseSpec(delta_rel, 0))
    cfg = IterConfig(
        schedule=make_discrete(NEWTON_ITER, b=1.0, d_or_c=1.0,
                               d0=schedule_scale(table.C0, delta)),
        C1=table.C, gamma_or_zeta=table.gamma, n_max=table.n_max,
    )
    report = iter_newton(F, f_delta, delta, cfg, HilbertVector.zeros(prob.weights))
    u_exact = prob.exact_solution
    return report.steps_taken, (report.u_final - u_exact).norm() / u_exact.norm()


def test_newton_at_large_n_holds_no_dense_matrix(monkeypatch):
    # one dense kernel at N = 20000 would take 3.2 GB; check on a small
    # grid first that the kernel is matrix-free above the limit, so that a
    # regression fails before it allocates one
    n_nodes = 20_000
    assert n_nodes > DENSE_KERNEL_LIMIT
    assert make_hammerstein(DENSE_KERNEL_LIMIT + 1, TRAPEZOID).kernel is None

    def no_dense(self):
        raise AssertionError("a shifted solve materialized the matrix")

    monkeypatch.setattr(LinearMap, "to_dense", no_dense)
    tracemalloc.start()
    try:
        steps, _ = _newton_on_mesh(n_nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert steps == 4
    assert peak < 64 * 2**20


def test_newton_above_the_limit_matches_the_dense_path():
    # the dense kernel with GMRES on its matrix gave 4 steps and this error
    steps, rel_error = _newton_on_mesh(2400)
    assert steps == 4
    assert rel_error == pytest.approx(0.07331943751533036, rel=1e-9, abs=0)


@pytest.mark.parametrize("norm_mode, delta_rel", [(TRAPEZOID, 0.05), (EUCLIDEAN, 0.01)])
@pytest.mark.parametrize("n_nodes", [DENSE_KERNEL_LIMIT + 1, 100, 129, 200])
def test_newton_between_the_limit_and_200_matches_a_dense_kernel(
    monkeypatch, n_nodes, norm_mode, delta_rel
):
    # up to 200 nodes the dense kernel is the oracle: the matrix-free run
    # must take its steps and agree with its error
    assert make_hammerstein(n_nodes, norm_mode).kernel is None
    steps, rel_error = _newton_on_mesh(n_nodes, norm_mode, delta_rel)
    monkeypatch.setattr(monoreg.bench, "DENSE_KERNEL_LIMIT", 200)
    assert make_hammerstein(n_nodes, norm_mode).kernel is not None
    dense_steps, dense_error = _newton_on_mesh(n_nodes, norm_mode, delta_rel)
    assert steps == dense_steps
    assert rel_error == pytest.approx(dense_error, rel=1e-10, abs=0)
