import numpy as np
import pytest

from hypermesh import tensor as T
from hypermesh.checks import (check_gru_oracle, euclidean_attention_oracle,
                              gru_loop_oracle)
from hypermesh.config import PipelineConfig
from hypermesh.errors import ContractError, ShapeError
from hypermesh.gradcheck import gradcheck
from hypermesh.temporal import (EuclideanAttention, GruCell,
                                PoseMotionExtractor, TemporalPriorExtractor)
from hypermesh.synth import synth_generate
from hypermesh.tensor import Tensor
from hypermesh.train import build_pipeline, scene_loss


def test_gru_matches_loop_oracle():
    check_gru_oracle(cases=5, seed=20)


def test_gru_zero_input_zero_weights_stays_zero():
    rng = np.random.default_rng(0)
    cell = GruCell(3, 4, rng)
    for w in (cell.w_z, cell.u_z, cell.w_r, cell.u_r, cell.w_h, cell.u_h):
        w.data[:] = 0.0
    out = cell(Tensor(np.zeros((5, 3)))).data
    np.testing.assert_array_equal(out, np.zeros((5, 4)))


def test_gru_shape_error():
    cell = GruCell(3, 4, np.random.default_rng(1))
    with pytest.raises(ShapeError):
        cell(Tensor(np.zeros((5, 2))))


def _gru_params(cell):
    return [cell.w_z, cell.u_z, cell.b_z, cell.w_r, cell.u_r, cell.b_r,
            cell.w_h, cell.u_h, cell.b_h]


def _composed_gru(cell, xs):
    """The reference: each gate as (x W + h U) + b in separate add nodes, 20 a step."""
    h, outputs = Tensor(np.zeros((1, cell.hidden_dim))), []
    for t in range(xs.shape[0]):
        x_t = xs[t:t + 1]
        z = T.sigmoid(T.linear(x_t, cell.w_z) + T.linear(h, cell.u_z) + cell.b_z)
        r = T.sigmoid(T.linear(x_t, cell.w_r) + T.linear(h, cell.u_r) + cell.b_r)
        cand = T.tanh(T.linear(x_t, cell.w_h) + T.linear(r * h, cell.u_h) + cell.b_h)
        h = (1.0 - z) * cand + z * h
        outputs.append(h)
    return T.concat(outputs, axis=0)


@pytest.mark.parametrize("t_frames", [4, 16])
def test_gru_records_one_node_per_sequence(t_frames):
    rng = np.random.default_rng(5)
    cell = GruCell(3, 4, rng)
    x = Tensor(rng.normal(size=(t_frames, 3)))
    out = cell(x)
    assert [node._op for node in T.tape_order(out) if node._parents] == ["gru"]
    assert out._parents[0] is x
    assert all(a is b for a, b in zip(out._parents[1:], _gru_params(cell), strict=True))


def test_gru_matches_the_composed_gate_sums_bit_for_bit():
    # the output and every gradient, the input's included when it has one;
    # training feeds the GRUs inputs without requires_grad
    rng = np.random.default_rng(6)
    cell = GruCell(3, 4, rng)
    x, g = rng.normal(size=(16, 3)), rng.normal(size=(16, 4))
    for input_grad in (True, False):
        runs = []
        for forward in (cell, lambda xs: _composed_gru(cell, xs)):
            cell.zero_grad()
            xs = Tensor(x, requires_grad=input_grad)
            out = forward(xs)
            (out * Tensor(g)).sum().backward()
            taped = [xs] if input_grad else []
            runs.append((len([n for n in T.tape_order(out) if n._parents]), out.data.tobytes(),
                         [a.grad.tobytes() for a in taped + cell.parameters()]))
        (fused_nodes, *fused), (composed_nodes, *reference) = runs
        assert fused == reference
        # 20 op nodes a step, plus the row slice of an input with a gradient; then a concat
        assert (fused_nodes, composed_nodes) == (1, (20 + input_grad) * x.shape[0] + 1)


@pytest.mark.parametrize("t_frames", [4, 16])
def test_scene_loss_gradients_equal_those_of_the_composed_gru_bit_for_bit(
        monkeypatch, t_frames):
    cfg = PipelineConfig(t_frames=t_frames)
    scene = synth_generate(cfg)
    runs = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(GruCell, "__call__", _composed_gru)
        pipe = build_pipeline(cfg, scene)
        loss = scene_loss(pipe, scene, cfg)
        loss.backward()
        ops = [n._op for n in T.tape_order(loss) if n._parents]
        runs.append((ops.count("gru"), loss.data.tobytes(),
                     {k: p.grad.tobytes() for k, p in pipe.named_parameters().items()}))
    (fused_grus, *fused), (composed_grus, *reference) = runs
    assert fused == reference
    assert (fused_grus, composed_grus) == (3, 0)


def test_gru_gradcheck():
    rng = np.random.default_rng(2)
    cell = GruCell(3, 2, rng)
    x = Tensor(rng.normal(size=(4, 3)))
    report = gradcheck(lambda xx, *ps: cell(xx).sum(),
                       [x] + cell.parameters(), tol=1e-5)
    assert report.passed, report.max_rel_err


def test_gru_gradcheck_over_a_long_saturated_sequence():
    # 8 steps with every gate driven to pre-activations of magnitude >= 3,
    # where sigmoid and tanh flatten out
    rng = np.random.default_rng(12)
    cell = GruCell(3, 4, rng)
    for p in _gru_params(cell):
        p.data = rng.normal(size=p.shape) * 1.5
    x = Tensor(rng.normal(size=(8, 3)) * 1.5)

    def sig(a):
        return 1.0 / (1.0 + np.exp(-a))

    h_prev = np.vstack([np.zeros((1, 4)), cell(x).data[:-1]])
    pre_z = x.data @ cell.w_z.data.T + h_prev @ cell.u_z.data.T + cell.b_z.data
    pre_r = x.data @ cell.w_r.data.T + h_prev @ cell.u_r.data.T + cell.b_r.data
    pre_c = (x.data @ cell.w_h.data.T + (sig(pre_r) * h_prev) @ cell.u_h.data.T
             + cell.b_h.data)
    assert min(np.abs(pre).max() for pre in (pre_z, pre_r, pre_c)) >= 3.0
    weights = Tensor(rng.normal(size=(8, 4)))
    report = gradcheck(lambda xx, *ps: (cell(xx) * weights).sum(),
                       [x] + cell.parameters(), tol=1e-6)
    assert report.passed, report.max_rel_err


def test_euclidean_attention_matches_loop_oracle():
    rng = np.random.default_rng(3)
    att = EuclideanAttention(8, 2, rng)
    x = rng.normal(size=(5, 8))
    np.testing.assert_allclose(att(Tensor(x)).data,
                               euclidean_attention_oracle(att, x), atol=1e-10)


def test_pose_motion_shapes_and_padding():
    rng = np.random.default_rng(4)
    ext = PoseMotionExtractor(3, rng)
    poses = rng.normal(size=(6, 3, 3)) * 0.3
    out = ext(Tensor(poses))
    assert out.shape == (6, 3, 3)


def test_pose_motion_translation_invariant_in_diff_channel():
    # shifting every frame by the same offset changes only the average
    # channel; with the average-input weights zeroed the output is invariant
    rng = np.random.default_rng(14)
    ext = PoseMotionExtractor(2, rng)
    j = 2
    # the flattened GRU input interleaves [diff(3), avg(3)] per joint;
    # zeroing the avg columns makes the output depend on differences only
    avg_cols = np.concatenate([np.arange(jj * 6 + 3, jj * 6 + 6) for jj in range(j)])
    for w in (ext.gru.w_z, ext.gru.w_r, ext.gru.w_h):
        w.data[:, avg_cols] = 0.0
    poses = rng.normal(size=(4, j, 3)) * 0.3
    shifted = poses + np.array([0.5, -0.2, 0.1])
    np.testing.assert_allclose(ext(Tensor(poses)).data,
                               ext(Tensor(shifted)).data, atol=1e-12)


def test_pose_motion_too_few_frames():
    ext = PoseMotionExtractor(2, np.random.default_rng(5))
    with pytest.raises(ContractError):
        ext(Tensor(np.zeros((1, 2, 3))))


def test_prior_shapes():
    rng = np.random.default_rng(6)
    ext = TemporalPriorExtractor(n_joints=3, feat_dim=8, heads=2, rng=rng)
    poses = Tensor(rng.normal(size=(6, 3, 3)) * 0.3)
    feats = Tensor(rng.normal(size=(6, 8)))
    tm_pr, p_motion = ext(poses, feats)
    assert tm_pr.shape == (6, 8)
    assert p_motion.shape == (6, 3, 3)


def test_prior_rejects_odd_length():
    rng = np.random.default_rng(7)
    ext = TemporalPriorExtractor(n_joints=2, feat_dim=4, heads=2, rng=rng)
    with pytest.raises(ContractError):
        ext(Tensor(np.zeros((5, 2, 3))), Tensor(np.zeros((5, 4))))


@pytest.mark.parametrize("feats_shape", [(4,), (4, 3), (2, 4), (6, 4)])
def test_prior_rejects_feats_not_shaped_t_by_feat_dim(feats_shape):
    # the prior checks the frame count; the halves' GRUs check the width, 1-D feats included
    rng = np.random.default_rng(7)
    ext = TemporalPriorExtractor(n_joints=2, feat_dim=4, heads=2, rng=rng)
    with pytest.raises(ShapeError):
        ext(Tensor(np.zeros((4, 2, 3))), Tensor(np.zeros(feats_shape)))


def test_prior_halves_use_untied_grus():
    rng = np.random.default_rng(8)
    ext = TemporalPriorExtractor(n_joints=2, feat_dim=4, heads=2, rng=rng)
    names = ext.named_parameters()
    assert any(k.startswith("gru_bef.") for k in names)
    assert any(k.startswith("gru_aft.") for k in names)
    assert not np.array_equal(ext.gru_bef.w_z.data, ext.gru_aft.w_z.data)


def test_prior_depends_on_second_half_features():
    rng = np.random.default_rng(9)
    ext = TemporalPriorExtractor(n_joints=2, feat_dim=4, heads=2, rng=rng)
    poses = Tensor(rng.normal(size=(4, 2, 3)) * 0.3)
    feats = rng.normal(size=(4, 4))
    base = ext(poses, Tensor(feats))[0].data
    feats2 = feats.copy()
    feats2[3] += 1.0
    bumped = ext(poses, Tensor(feats2))[0].data
    assert np.abs(base - bumped).max() > 1e-8
