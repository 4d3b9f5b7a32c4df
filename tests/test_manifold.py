import math

import numpy as np
import pytest

from hypermesh.checks import (check_ball_closure, check_manifold_identities,
                              check_matvec_formulations, check_noncommutativity,
                              np_mobius_add, random_ball_points)
from hypermesh.errors import ContractError, NumericError, ShapeError
from hypermesh.gradcheck import gradcheck
from hypermesh.manifold import (BallParams, DEFAULT_PARAMS, ball_clamp, expmap0, logmap0,
                                mobius_add, mobius_matvec, project_to_ball)
from hypermesh.tensor import Tensor

TANH_HALF = math.tanh(0.5)


def test_ball_params_validation():
    with pytest.raises(ContractError):
        BallParams(eps_ball=0.5)
    with pytest.raises(ContractError):
        BallParams(eps_ball=1e-5, eps_norm=1e-4)


def test_np_mobius_add_matches_mobius_add_row_by_row():
    # the loop reference of the eval_long benchmark check; the last rows add
    # near-parallel points close to the boundary, whose sum lands past the shell
    rng = np.random.default_rng(15)
    x = random_ball_points(rng, (64, 5))
    y = random_ball_points(rng, (64, 5))
    u = random_ball_points(rng, (16, 5), 1.0, 1.0)
    x[48:] = u * 0.999
    y[48:] = (u + rng.normal(size=u.shape) * 1e-3) * 0.998
    shell = 1.0 - DEFAULT_PARAMS.eps_ball
    raw = np.stack([np_mobius_add(a, b, BallParams(eps_ball=1e-9)) for a, b in zip(x, y)])
    assert (np.linalg.norm(raw, axis=-1) > shell).sum() >= 8
    got = mobius_add(Tensor(x), Tensor(y)).data
    for i in range(len(x)):
        np.testing.assert_allclose(got[i], np_mobius_add(x[i], y[i]), rtol=0, atol=1e-12)


def test_mobius_add_identity():
    x = Tensor([0.3, -0.2, 0.1])
    zero = Tensor(np.zeros(3))
    np.testing.assert_allclose(mobius_add(x, zero).data, x.data, atol=1e-15)
    np.testing.assert_allclose(mobius_add(zero, x).data, x.data, atol=1e-15)


def test_mobius_add_collinear_frozen():
    # 1-D Möbius addition: (0.3 + 0.4) / (1 + 0.12)
    out = mobius_add(Tensor([0.3, 0.0]), Tensor([0.4, 0.0]))
    np.testing.assert_allclose(out.data, [0.625, 0.0], atol=1e-15)


def test_mobius_add_shape_error():
    with pytest.raises(ShapeError):
        mobius_add(Tensor([0.1, 0.2]), Tensor([0.1, 0.2, 0.3]))


def test_left_cancellation_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = random_ball_points(rng, (4,), max_norm=0.9)
        y = random_ball_points(rng, (4,), max_norm=0.3)
        z = mobius_add(Tensor(x), Tensor(y))
        back = mobius_add(Tensor(-x), z)
        np.testing.assert_allclose(back.data, y, atol=1e-9)


def test_mobius_matvec_identity_and_scaling():
    x = Tensor([0.27727, 0.36969])
    np.testing.assert_allclose(
        mobius_matvec(Tensor(np.eye(2)), x).data, x.data, atol=1e-9)
    # tanh(2 atanh(0.5)) = 2*0.5/(1+0.25)
    out = mobius_matvec(Tensor(2.0 * np.eye(2)), Tensor([0.5, 0.0]))
    np.testing.assert_allclose(out.data, [0.8, 0.0], atol=1e-12)


def test_mobius_matvec_zero_input():
    w = Tensor(np.random.default_rng(1).normal(size=(3, 2)))
    out = mobius_matvec(w, Tensor(np.zeros(2)))
    np.testing.assert_array_equal(out.data, np.zeros(3))


def test_expmap0_frozen_value():
    out = expmap0(Tensor([0.6, 0.8]))
    np.testing.assert_allclose(out.data, [0.6 * TANH_HALF, 0.8 * TANH_HALF],
                               atol=1e-9)
    assert np.linalg.norm(out.data) < 1.0


def test_expmap0_origin():
    np.testing.assert_array_equal(expmap0(Tensor(np.zeros(3))).data, np.zeros(3))


def test_logmap0_inverts_expmap0():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.normal(size=5)
        v *= rng.uniform(0, 5) / max(np.linalg.norm(v), 1e-12)
        rt = logmap0(expmap0(Tensor(v)))
        np.testing.assert_allclose(rt.data, v, atol=1e-9)


def test_project_to_ball_cases():
    inside = Tensor([0.3, 0.4])
    np.testing.assert_array_equal(project_to_ball(inside).data, inside.data)
    outside = project_to_ball(Tensor([3.0, 4.0]))
    np.testing.assert_allclose(outside.data, [0.599994, 0.799992], atol=1e-12)
    np.testing.assert_array_equal(project_to_ball(Tensor(np.zeros(2))).data, np.zeros(2))


def test_project_to_ball_leaves_its_operand_writable():
    # no row is rescaled, so the values pass through; the taped output is a
    # read-only view, and the operand (a parameter, say) stays writable
    x = Tensor(np.full((2, 3), 0.1))
    assert gradcheck(lambda a: project_to_ball(a).sum(), [x]).passed
    out = project_to_ball(x)
    assert np.array_equal(out.data, x.data) and not out.data.flags.writeable
    x.data[0, 0] = 0.2
    assert x.data[0, 0] == 0.2


def test_project_to_ball_rejects_nonfinite():
    with pytest.raises(NumericError):
        project_to_ball(Tensor([np.nan, 0.0]))


def test_ball_clamp_raises_on_nonfinite_and_overflowing_rows():
    inside = [0.1, 0.2]
    for bad, match in (([np.nan, 0.0], "NaN/Inf"), ([0.0, np.inf], "NaN/Inf"),
                       ([1e200, 1e199], "overflows")):
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=match):
            ball_clamp(np.array([inside, bad]))
    # rows inside the shell and on it are returned unchanged
    shell = 1.0 - DEFAULT_PARAMS.eps_ball
    z = np.array([inside, [shell, 0.0], [0.0, -shell], [0.0, 0.0]])
    out, _ = ball_clamp(z)
    assert out.tobytes() == z.tobytes()


def _strided(a):
    """The same values with a strided last axis."""
    return np.swapaxes(np.swapaxes(a, -1, -2).copy(), -1, -2)


def _layout_cases():
    """Op, its operands, and the indices of the operands that carry the rows.

    Width 32 is wide enough that a dot over a strided row sums in another
    order than one over a contiguous row. mobius_matvec's rows are those of
    one leading slice: a lone row would take BLAS's matrix-vector kernel.
    """
    rng = np.random.default_rng(16)
    n = 32
    x, y = random_ball_points(rng, (6, n)), random_ball_points(rng, (6, n))
    clamped = random_ball_points(rng, (6, n))
    clamped[2] *= 3.0 / np.linalg.norm(clamped[2])
    return {
        "mobius_add": (mobius_add, [x, y], (0, 1)),
        "mobius_add_bias": (mobius_add, [x, random_ball_points(rng, (1, n))], (0,)),
        "mobius_matvec": (mobius_matvec, [rng.normal(size=(8, n)) * 0.2,
                                          random_ball_points(rng, (3, 4, n))], (1,)),
        "mobius_matvec_blocks": (mobius_matvec, [rng.normal(size=(2, 8, n)) * 0.2,
                                                 random_ball_points(rng, (3, 2, 5, n))], (1,)),
        "expmap0": (expmap0, [rng.normal(size=(6, n)) * 0.3], (0,)),
        "logmap0": (logmap0, [x], (0,)),
        "project_to_ball": (project_to_ball, [clamped], (0,)),
    }


def _bytes_of_op(op, arrays):
    """The output's bytes and every operand gradient's, under a fixed probe."""
    args = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*args)
    (out * Tensor(np.random.default_rng(3).normal(size=out.shape))).sum().backward()
    return [out.data.tobytes()] + [a.grad.tobytes() for a in args]


@pytest.mark.parametrize("case", list(_layout_cases()))
def test_ball_op_bits_do_not_depend_on_layout_or_batch_position(case):
    op, arrays, row_args = _layout_cases()[case]
    if op is project_to_ball:
        assert (np.linalg.norm(arrays[0], axis=-1) > 1.0 - DEFAULT_PARAMS.eps_ball).sum() == 1
    strided = [_strided(a) if i in row_args else a for i, a in enumerate(arrays)]
    assert not any(strided[i].flags.c_contiguous for i in row_args)
    assert _bytes_of_op(op, strided) == _bytes_of_op(op, arrays)
    out = op(*[Tensor(a) for a in arrays]).data
    for r in range(len(arrays[row_args[0]])):
        alone = op(*[Tensor(a[r:r + 1] if i in row_args else a) for i, a in enumerate(arrays)])
        assert alone.data.tobytes() == out[r:r + 1].tobytes(), r


def test_fused_ops_reject_nonfinite_and_atanh_domain():
    with pytest.raises(NumericError):
        expmap0(Tensor([np.nan, 0.0]))
    with pytest.raises(NumericError):
        mobius_add(Tensor([np.nan, 0.0]), Tensor([0.1, 0.0]))
    with pytest.raises(NumericError, match="atanh"):
        logmap0(Tensor([1.0, 0.0]))
    with pytest.raises(NumericError, match="atanh"):
        mobius_matvec(Tensor(np.eye(2)), Tensor([0.8, 0.7]))


# one input set per public ball op; the matvec input is 1-D, expmap0 and
# project_to_ball each have a row past the shell
ONE_NODE_INPUTS = [
    (mobius_add, ([[0.1, 0.2], [0.3, -0.1]], [0.2, 0.1])),
    (mobius_matvec, ([[0.5, 0.1], [0.2, 0.3], [0.1, 0.1]], [0.3, -0.2])),
    (expmap0, ([[20.0, 0.0], [0.3, 0.4]],)),
    (logmap0, ([[0.1, 0.2], [0.0, 0.0]],)),
    (project_to_ball, ([[3.0, 4.0], [0.1, 0.2]],)),
]


@pytest.mark.parametrize("op, arrays", ONE_NODE_INPUTS,
                         ids=[op.__name__ for op, _ in ONE_NODE_INPUTS])
def test_each_ball_op_is_one_tape_node(op, arrays):
    args = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True) for a in arrays]
    out = op(*args)
    assert out._op == op.__name__
    assert len(out._parents) == len(args)
    assert all(p is a for p, a in zip(out._parents, args))


def test_matvec_agrees_with_map_composition():
    check_matvec_formulations(cases=100, seed=9)


def test_ball_closure_property():
    check_ball_closure(cases=50, seed=10)


def test_identities_property_sweep():
    check_manifold_identities(cases=200, seed=11)


def test_noncommutativity_witness_exists():
    check_noncommutativity(cases=200, seed=12)
