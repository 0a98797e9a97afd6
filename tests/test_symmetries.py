"""Metamorphic tests: a solve commutes with relabelling the tensor's indices.

Permuting mode 1 permutes the rows of every frontal slice, and swapping
modes 1 and 2 transposes every slice; neither moves a singular value, so
the completion of the relabelled data is the relabelled completion, under
the adaptive transform and under the DCT.  Permuting mode 3 permutes the
columns of the mode-3 unfolding, and with them the rows of the adaptive
transform, so it commutes only with the adaptive solve.  The results
agree up to rounding, to a relative 1e-9 in the Frobenius norm.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqrank.bench import bernoulli_mask, synth_low_qrank
from tqrank.orth import dct_matrix
from tqrank.solver import SolverConfig, admm_complete
from tqrank.tensor3 import ObservationMask, project_omega

TOL = 1e-9
# (r0, p, seed) of the instance at each shape
INSTANCES = {(12, 10, 14): (3, 0.5, 4), (20, 20, 20): (3, 0.3, 21)}
KINDS = {"adaptive": ("permute-mode-1", "swap-modes-1-2", "permute-mode-3"),
         "dct": ("permute-mode-1", "swap-modes-1-2")}
# the prox returns zero for the first 69-74 iterations of these solves
FIXED_ITERS = 100


def relabelled(t, kind, perm):
    if kind == "permute-mode-1":
        return t[perm]
    if kind == "swap-modes-1-2":
        return t.transpose(1, 0, 2)
    return t[:, :, perm]


def config(shape, q_mode, max_iters):
    q = None if q_mode == "adaptive" else dct_matrix(shape[2])
    if max_iters is None:
        return SolverConfig(q=q)
    # eps too small to stop: every solve runs max_iters iterations
    return SolverConfig(q=q, eps=1e-300, max_iters=max_iters)


def instance(shape):
    r0, p, seed = INSTANCES[shape]
    y_true, _ = synth_low_qrank(*shape, r0, seed)
    mask = bernoulli_mask(*shape, p, seed + 1000)
    return mask, project_omega(y_true, mask)


@functools.lru_cache(maxsize=None)
def solve(shape, q_mode, max_iters, kind=None, perm=None):
    mask, y = instance(shape)
    if kind is not None:
        mask = ObservationMask(relabelled(mask.values, kind, list(perm)))
        y = relabelled(y, kind, list(perm))
    return admm_complete(y, mask, config(shape, q_mode, max_iters))


def relative_gap(shape, q_mode, max_iters, kind, perm):
    x, report = solve(shape, q_mode, max_iters)
    x_relabelled, report_relabelled = solve(shape, q_mode, max_iters, kind, perm)
    want = relabelled(x, kind, list(perm))
    return (np.linalg.norm(x_relabelled - want) / np.linalg.norm(want),
            report.iterations, report_relabelled.iterations)


@st.composite
def relabellings(draw):
    shape = draw(st.sampled_from(sorted(INSTANCES)))
    q_mode = draw(st.sampled_from(sorted(KINDS)))
    kind = draw(st.sampled_from(KINDS[q_mode]))
    n = shape[2] if kind == "permute-mode-3" else shape[0]
    perm = draw(st.permutations(range(n)))
    return shape, q_mode, kind, tuple(perm)


@settings(max_examples=12, deadline=None)
@given(relabellings())
def test_solve_commutes_with_relabelling_at_a_fixed_iteration_count(case):
    shape, q_mode, kind, perm = case
    _, report = solve(shape, q_mode, FIXED_ITERS)
    assert report.objectives[-1] > 0.0  # the prox has bitten, so X is not all zeros
    gap, iterations, relabelled_iterations = relative_gap(shape, q_mode, FIXED_ITERS, kind, perm)
    assert iterations == relabelled_iterations == FIXED_ITERS
    assert gap <= TOL


@pytest.mark.parametrize("shape", sorted(INSTANCES), ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("q_mode,kind", [(q_mode, kind) for q_mode in sorted(KINDS)
                                         for kind in KINDS[q_mode]])
def test_converged_solve_commutes_with_relabelling(shape, q_mode, kind):
    # fixed seeds, so that equal iteration counts are a fact, not a chance at the stopping rule
    n = shape[2] if kind == "permute-mode-3" else shape[0]
    perm = tuple(np.random.default_rng(n).permutation(n).tolist())
    gap, iterations, relabelled_iterations = relative_gap(shape, q_mode, None, kind, perm)
    assert solve(shape, q_mode, None)[1].converged
    assert iterations == relabelled_iterations
    assert gap <= TOL
