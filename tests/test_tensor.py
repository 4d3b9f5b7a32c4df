import warnings

import numpy as np
import pytest

from hypermesh import tensor as T
from hypermesh.config import PipelineConfig
from hypermesh.errors import ContractError, ShapeError
from hypermesh.gradcheck import gradcheck
from hypermesh.layers import attention
from hypermesh.manifold import expmap0
from hypermesh.synth import synth_generate
from hypermesh.tensor import Tensor
from hypermesh.train import build_pipeline, scene_loss


def test_add_broadcasting_trailing_alignment():
    a = Tensor(np.ones((2, 3, 4)))
    b = Tensor(np.arange(4.0))
    out = a + b
    assert out.shape == (2, 3, 4)
    np.testing.assert_allclose(out.data[0, 0], 1.0 + np.arange(4.0))


def test_operators_convert_numbers_and_arrays_and_ops_do_not():
    x = Tensor(np.arange(1.0, 4.0))
    np.testing.assert_array_equal((1.0 - x).data, 1.0 - x.data)
    np.testing.assert_array_equal((x * np.full(3, 2.0)).data, x.data * 2.0)
    for bare in (0.5, np.full(3, 0.5)):
        with pytest.raises(AttributeError):
            T.tanh(bare)
        with pytest.raises(AttributeError):
            expmap0(bare)


def test_an_array_on_the_left_defers_to_the_reflected_operator():
    x = Tensor(np.arange(3.0), requires_grad=True)
    y = np.ones(3) - x
    assert isinstance(y, Tensor)
    np.testing.assert_array_equal(y.data, [1.0, 0.0, -1.0])
    y.sum().backward()
    np.testing.assert_array_equal(x.grad, -np.ones(3))
    with pytest.raises(TypeError):
        np.ones((2, 3)) @ Tensor(np.ones((3, 2)))


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        Tensor(np.ones((3, 4))) @ Tensor(np.ones((3, 4)))


def test_attention_softmax_uniform():
    # equal scores weight every key alike: each output row is the mean value row
    v = np.random.default_rng(0).normal(size=(3, 4))
    out = attention(Tensor(np.zeros((2, 4))), Tensor(np.ones((3, 4))), Tensor(v), heads=2)
    np.testing.assert_allclose(out.data, np.tile(v.mean(axis=0), (2, 1)), atol=1e-15)


def test_tanh_derivative_at_zero():
    x = Tensor(np.zeros(1), requires_grad=True)
    T.tanh(x).sum().backward()
    np.testing.assert_allclose(x.grad, [1.0])


def test_normalize_of_a_constant_row_is_zero_with_finite_grads():
    x = Tensor(np.array([[3.0] * 4, [-0.75] * 4]), requires_grad=True)
    out = T.normalize(x, 1e-5)
    assert not out.data.any()
    (out * Tensor(np.random.default_rng(1).normal(size=(2, 4)))).sum().backward()
    assert np.isfinite(x.grad).all()


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        (x * 2.0).backward()


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_size_one_outputs_of_any_rank_read_and_backpropagate(shape):
    x = Tensor(np.array([0.5, -2.0, 3.0]), requires_grad=True)
    out = (x * x).sum().reshape(shape)
    assert out.item() == 13.25 and type(out.item()) is float
    out.backward()
    assert x.grad.tobytes() == np.array([1.0, -4.0, 6.0]).tobytes()


def test_gradcheck_takes_a_keepdims_output():
    x = Tensor(np.array([0.3, -1.2, 2.0]))
    report = gradcheck(lambda a: (a * a).sum(axis=0, keepdims=True), [x])
    assert report.passed and report.max_rel_err < 1e-9


def test_sum_grad_is_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    x.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones((3, 4)))


def test_shared_subexpression_grad_accumulates():
    x = Tensor([2.0], requires_grad=True)
    y = x * x + x * 3.0
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])


def test_matmul_gradcheck_matches_finite_differences():
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(4, 2)))
    report = gradcheck(lambda x, y: (x @ y).sum(), [a, b], tol=1e-6)
    assert report.passed, report.max_rel_err


def test_gelu_exact_gaussian_cdf():
    # gelu(2) = 2 * Phi(2), frozen from the normal CDF
    out = T.gelu(Tensor([2.0]))
    np.testing.assert_allclose(out.data, [1.9544997361036416], atol=1e-12)


def test_erf_port_matches_scipy_within_one_ulp():
    scipy_erf = pytest.importorskip("scipy.special").erf
    edges = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 8.0, 6.0, 1e308,
             np.finfo(np.float64).max, np.inf]
    near = [np.nextafter(e, d) for e in (1.0, 6.0, 8.0) for d in (0.0, np.inf)]
    x = np.concatenate([np.linspace(0.0, 9.0, 180_001), np.logspace(-320, 308, 20_000),
                        np.linspace(0.999, 1.001, 20_001), np.linspace(7.99, 8.01, 20_001),
                        edges, near])
    x = np.concatenate([x, -x])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = T._erf(x)
    want = scipy_erf(x)
    # both are odd with the sign of x, so the bit patterns compare as ulps
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    assert ulps.max() <= 1
    np.testing.assert_array_equal(np.signbit(got), np.signbit(x))
    assert np.array_equal(T._erf(-x).view(np.int64), (-got).view(np.int64))
    assert np.all(np.abs(got) <= 1.0)
    assert T._erf(np.array([np.inf, -np.inf])).tolist() == [1.0, -1.0]
    assert np.isnan(T._erf(np.array([np.nan, -np.nan]))).all()
    strided = np.linspace(-9.0, 9.0, 24).reshape(2, 3, 4).transpose(2, 0, 1)
    for shaped in (np.array(2.0), strided):
        assert np.array_equal(T._erf(shaped), scipy_erf(shaped))


def test_normalize_matches_mean_and_biased_variance():
    x = np.array([[1.0, 2.0, 3.0, 6.0]])
    np.testing.assert_allclose(T.normalize(Tensor(x), 1e-5).data,
                               (x - x.mean()) / np.sqrt(x.var() + 1e-5), rtol=1e-14)


def test_l2norm_smoothing_eps():
    x = Tensor(np.zeros((1, 3)))
    out = T.l2norm(x, eps=1e-6)
    np.testing.assert_allclose(out.data, [[1e-6]])


def test_concat_of_slices_roundtrip():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    back = T.concat([x[:, :2], x[:, 2:3], x[:, 3:]], axis=1)
    np.testing.assert_array_equal(back.data, x.data)
    w = rng.normal(size=(4, 6))
    (back * w).sum().backward()
    np.testing.assert_array_equal(x.grad, w)


def _tape(root: Tensor) -> list[Tensor]:
    nodes, todo, seen = [], [root], {id(root)}
    while todo:
        node = todo.pop()
        nodes.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return nodes


def test_backward_keeps_grads_only_on_leaves():
    x = Tensor([2.0, -1.0], requires_grad=True)
    w = Tensor([[0.5, 1.5], [-2.0, 0.25]], requires_grad=True)
    h = T.tanh(w @ x.reshape(2, 1))
    loss = (h * h).sum() + (x * 3.0).sum()
    loss.backward()
    inner = [n for n in _tape(loss) if n._parents]
    assert len(inner) >= 8
    assert all(n.grad is None for n in inner)
    # d/dz of sum(tanh(z)^2) is 2 tanh(z) (1 - tanh(z)^2), z = W x
    hd = np.tanh(w.data @ x.data)
    gz = 2.0 * hd * (1.0 - hd * hd)
    np.testing.assert_allclose(w.grad, np.outer(gz, x.data), rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(x.grad, w.data.T @ gz + 3.0, rtol=1e-15, atol=1e-15)


def test_getitem_advanced_index_grad_accumulates():
    x = Tensor(np.arange(5.0), requires_grad=True)
    idx = np.array([0, 0, 3])
    x[idx].sum().backward()
    np.testing.assert_allclose(x.grad, [2.0, 0.0, 0.0, 1.0, 0.0])


def test_forward_determinism():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(4, 4))

    def forward():
        h = T.linear(T.gelu(Tensor(data)), Tensor(data), Tensor(data[0]))
        return attention(h, h, Tensor(data), heads=2).data

    assert np.array_equal(forward(), forward())


def test_linear_matches_the_composed_affine_map_bit_for_bit():
    # the one-node map and x @ w.T + b round alike, forward and backward
    rng = np.random.default_rng(8)
    x, w, b = rng.normal(size=(3, 5, 4)), rng.normal(size=(6, 4)), rng.normal(size=6)
    g = rng.normal(size=(3, 5, 6))
    ts = [Tensor(a, requires_grad=True) for a in (x, w, b)]
    out = T.linear(*ts)
    (out * Tensor(g)).sum().backward()
    assert out.data.tobytes() == (x @ w.T + b).tobytes()
    assert ts[0].grad.tobytes() == (g @ w).tobytes()
    assert ts[1].grad.tobytes() == (np.swapaxes(x, -1, -2) @ g).sum(axis=0).T.tobytes()
    assert ts[2].grad.tobytes() == g.sum(axis=0).sum(axis=0).tobytes()


def test_normalize_matches_the_composed_layer_norm_bit_for_bit():
    # the one-node normalization and the chain of mean, centring, mean of
    # squares, sqrt and div (the layer norm's old tape) round alike
    rng = np.random.default_rng(9)
    x, g, eps = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 4)), 1e-5
    x[1, 2] *= 1e-3  # a row whose variance is below eps

    def sqrt(a):
        data = np.sqrt(a.data)
        return T._make(data, "sqrt", (a,), lambda gg: (gg * 0.5 / data,))

    def composed(t):
        mu = t.mean(axis=-1, keepdims=True)
        centered = t - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return (t - mu) / sqrt(var + eps)

    runs = []
    for forward in (lambda t: T.normalize(t, eps), composed):
        xt = Tensor(x, requires_grad=True)
        out = forward(xt)
        (out * Tensor(g)).sum().backward()
        runs.append((out.data.tobytes(), xt.grad.tobytes()))
    assert runs[0] == runs[1]
    n = x.shape[-1]
    c = x - x.sum(axis=-1, keepdims=True) * (1.0 / n)
    sd = np.sqrt((c * c).sum(axis=-1, keepdims=True) * (1.0 / n) + eps)
    assert runs[0][0] == (c / sd).tobytes()


def test_gradcheck_rejects_nonscalar():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ContractError):
        gradcheck(lambda t: t * 2.0, [x])


def test_gradcheck_fails_on_a_nan_error():
    x, y = Tensor(np.ones(3)), Tensor(np.ones(3))
    nan = Tensor(np.full(3, np.nan))
    report = gradcheck(lambda a, b: (a * nan + b).sum(), [x, y])
    assert np.isnan(report.max_rel_err) and not report.passed


def _taped_ops(t_frames: int) -> list[str]:
    cfg = PipelineConfig(t_frames=t_frames, n_joints=3, feat_dim=8, model_dim=8, heads=2,
                         n_coarse=6, n_fine=10, steps=0)
    scene = synth_generate(cfg)
    return [n._op for n in T.tape_order(scene_loss(build_pipeline(cfg, scene), scene, cfg))
            if n._parents]


def test_training_tape_has_one_node_per_affine_map_and_attention_call():
    ops = _taped_ops(4)
    assert len(ops) == 129 and len(_taped_ops(32)) == 129
    assert "transpose" not in ops and "softmax" not in ops and "sqrt" not in ops
    # one per HyperAdaLN: 3 in the one batched OptBlock call
    assert ops.count("normalize") == 3
    # 2 in the OptBlock call, 1 in the prior
    assert ops.count("attention") == 3
    # 10 Linear layers (9 in the OptBlock call), 2 HyperAttention W_O, 4 prior
    # attention maps
    assert ops.count("linear") == 10 + 2 + 4
    # one per GRU sequence: the pose stream and the two feature halves
    assert ops.count("gru") == 3
    # the fixed upsampler and joint regressor
    assert ops.count("matmul") == 2
    # the losses' four vertex gathers: the blocks' output is summed, not sliced
    assert ops.count("slice") == 4


def _closure_arrays(fn, seen=None):
    """Every ndarray a backward closure holds, through nested closures."""
    seen = set() if seen is None else seen
    if id(fn) in seen or not getattr(fn, "__closure__", None):
        return []
    seen.add(id(fn))
    found = []
    for cell in fn.__closure__:
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            found.append(value)
        elif callable(value):
            found.extend(_closure_arrays(value, seen))
    return found


def _tape_after_replacing_parameters(disable_hmo: bool):
    """The tape of one small scene_loss, and the parameter arrays that every
    parameter's .data was replaced from after it."""
    cfg = PipelineConfig(t_frames=4, n_joints=3, feat_dim=8, model_dim=8, heads=2,
                         n_coarse=6, n_fine=10, steps=0)
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    loss = scene_loss(pipe, scene, cfg, disable_hmo=disable_hmo)
    old = [p.data for p in pipe.parameters()]
    for p in pipe.parameters():
        p.data = p.data.copy()
    return T.tape_order(loss), old


def test_tape_keeps_no_replaced_parameter_array_alive():
    # SGD.step replaces every parameter's .data; a tape kept past the step must
    # not hold the old arrays, or the views of them, in any backward closure
    nodes, old = _tape_after_replacing_parameters(disable_hmo=False)
    held = [a for n in nodes if n._backward for a in _closure_arrays(n._backward)]
    assert held
    assert not [a.shape for a in held for o in old if np.shares_memory(a, o)]


def test_ablated_tape_holds_no_view_of_a_parameter():
    # the ablation masks the motion block's output instead of slicing the
    # parameters, so no node's array or backward closure is a view of one
    nodes, old = _tape_after_replacing_parameters(disable_hmo=True)
    held = [n.data for n in nodes] + [a for n in nodes if n._backward
                                      for a in _closure_arrays(n._backward)]
    assert not [a.shape for a in held for o in old if np.shares_memory(a, o)]


def test_an_in_place_write_into_a_taped_activation_raises():
    # a backward closure reads the activations it captured when it runs; a
    # write into one after the forward would give a wrong gradient silently
    cfg = PipelineConfig(t_frames=4, n_joints=3, feat_dim=8, model_dim=8, heads=2,
                         n_coarse=6, n_fine=10, steps=0)
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    loss = scene_loss(pipe, scene, cfg)
    nodes = [n for n in T.tape_order(loss) if n._parents]
    assert len(nodes) == 129
    for node in nodes:
        with pytest.raises(ValueError, match="read-only"):
            node.data[...] = 0.0
    loss.backward()
    # leaves stay writable: the optimizer writes them after backward
    for p in pipe.parameters():
        assert np.isfinite(p.grad).all()
        p.data[...] -= 0.01 * p.grad
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    y = T.tanh(x)
    x.data[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        y.data[0, 0] = 0.0


def test_scene_loss_backward_keeps_grads_only_on_parameters():
    cfg = PipelineConfig(t_frames=4, n_joints=3, feat_dim=8, model_dim=8, heads=2,
                         n_coarse=6, n_fine=10, steps=0)
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    loss = scene_loss(pipe, scene, cfg)
    loss.backward()
    assert all(n.grad is None for n in _tape(loss) if n._parents)
    assert all(p.grad is not None and p.grad.shape == p.shape
               for p in pipe.parameters())
