import numpy as np
import pytest

from hypermesh import tensor as T
from hypermesh.checks import (adaln_oracle, check_adaln_oracle,
                              check_attention_oracle,
                              check_attention_permutation, hyper_attention_oracle,
                              np_expmap0, np_gelu, random_ball_points)
from hypermesh.errors import ShapeError
from hypermesh.gradcheck import gradcheck
from hypermesh.layers import (HyperAdaLN, HyperAttention, HyperbolicLinear,
                              HyperFFN, Linear, attention, hyper_gelu)
from hypermesh.manifold import DEFAULT_PARAMS, expmap0, logmap0
from hypermesh.tensor import Tensor


def test_linear_affine():
    rng = np.random.default_rng(0)
    layer = Linear(3, 4, rng)
    x = rng.normal(size=(5, 3))
    out = layer(Tensor(x)).data
    np.testing.assert_allclose(out, x @ layer.w.data.T + layer.b.data, atol=1e-15)


def test_linear_and_attention_record_one_node_per_call():
    rng = np.random.default_rng(2)
    layer = Linear(4, 3, rng)
    out = layer(Tensor(rng.normal(size=(2, 5, 4))))
    assert [n._op for n in T.tape_order(out) if n._parents] == ["linear"]
    q, k, v = (Tensor(rng.normal(size=(2, n, 4)), requires_grad=True) for n in (3, 5, 5))
    out = attention(q, k, v, heads=2)
    assert [n._op for n in T.tape_order(out) if n._parents] == ["attention"]
    assert out.shape == (2, 3, 4)


def test_hyperbolic_linear_collinear_frozen():
    # W = I, b = (0.2, 0), x = (0.3, 0): Möbius sum (0.3+0.2)/(1+0.06)
    rng = np.random.default_rng(1)
    layer = HyperbolicLinear(2, 2, rng)
    layer.w.data = np.eye(2)
    layer.b.data = np.array([0.2, 0.0])
    out = layer(Tensor([0.3, 0.0])).data
    np.testing.assert_allclose(out, [0.5 / 1.06, 0.0], atol=1e-12)


def test_hyperbolic_linear_stays_on_ball():
    rng = np.random.default_rng(2)
    layer = HyperbolicLinear(4, 4, rng)
    layer.b.data = random_ball_points(rng, (4,), max_norm=0.5)
    x = Tensor(random_ball_points(rng, (16, 4), min_norm=0.8, max_norm=0.999))
    out = layer(x).data
    norms = np.sqrt((out * out).sum(axis=-1))
    assert norms.max() <= 1.0 - DEFAULT_PARAMS.eps_ball + 1e-12


def test_hyperbolic_linear_ball_param_registration():
    rng = np.random.default_rng(3)
    layer = HyperbolicLinear(3, 3, rng)
    ball = layer.ball_parameters()
    assert len(ball) == 1 and ball[0] is layer.b


def test_hyper_gelu_matches_conjugated_scalar_path():
    rng = np.random.default_rng(4)
    x = random_ball_points(rng, (6, 5), max_norm=0.9)
    got = hyper_gelu(Tensor(x)).data
    want = np.stack([
        np_expmap0(np_gelu(logmap0(Tensor(row)).data)) for row in x])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_adaln_matches_composition_oracle():
    check_adaln_oracle(cases=10, seed=40)


def test_adaln_fresh_layer_near_identity_at_zero_cond():
    # gamma bias starts at 1, beta at 0; with a zero conditioning vector the
    # layer reduces to plain (non-adaptive) normalization in the tangent space
    rng = np.random.default_rng(5)
    layer = HyperAdaLN(6, 4, rng)
    layer.gamma_proj.w.data[:] = 0.0
    layer.beta_proj.w.data[:] = 0.0
    x = random_ball_points(rng, (3, 6), max_norm=0.7)
    out = layer(Tensor(x), Tensor(np.zeros((1, 4)))).data
    want = adaln_oracle(layer, x, np.zeros(4))
    np.testing.assert_allclose(out, want, atol=1e-12)
    t = logmap0(Tensor(out)).data
    np.testing.assert_allclose(t.mean(axis=-1), 0.0, atol=1e-9)


def test_attention_matches_loop_oracle():
    check_attention_oracle(cases=5, seed=41)


def test_attention_permutation_symmetry():
    check_attention_permutation(cases=5, seed=42)


def test_attention_shape_error():
    rng = np.random.default_rng(6)
    att = HyperAttention(8, 2, rng)
    with pytest.raises(ShapeError):
        att(Tensor(np.zeros((3, 7))), Tensor(np.zeros((3, 8))))


def test_attention_shape_error_on_the_key_side():
    att = HyperAttention(8, 2, np.random.default_rng(6))
    with pytest.raises(ShapeError):
        att(Tensor(np.zeros((3, 8))), Tensor(np.zeros((3, 7))))


def test_attention_heads_divisibility():
    with pytest.raises(ShapeError):
        HyperAttention(7, 2, np.random.default_rng(7))


def test_ffn_output_on_ball():
    rng = np.random.default_rng(8)
    ffn = HyperFFN(6, rng)
    x = Tensor(random_ball_points(rng, (5, 6), max_norm=0.95))
    out = ffn(x).data
    norms = np.sqrt((out * out).sum(axis=-1))
    assert norms.max() <= 1.0 - DEFAULT_PARAMS.eps_ball + 1e-12


def test_layer_gradchecks():
    rng = np.random.default_rng(10)
    layer = HyperbolicLinear(3, 4, rng)
    layer.b.data = random_ball_points(rng, (4,), max_norm=0.3)
    x = Tensor(random_ball_points(rng, (3, 3), max_norm=0.6))
    report = gradcheck(lambda xx, *ps: layer(xx).sum(),
                       [x] + layer.parameters(), tol=1e-4)
    assert report.passed, report.max_rel_err
