import math

import numpy as np
import pytest

from hypermesh.checks import losses_loop_oracle, random_ball_points
from hypermesh.config import PipelineConfig
from hypermesh.errors import ConfigError, ContractError, ShapeError
from hypermesh.gradcheck import gradcheck
from hypermesh.losses import (EuclideanLosses, JointRegressor,
                              euclidean_losses, hyperbolic_mesh_loss,
                              total_loss)
from hypermesh.pipeline import MeshTopology
from hypermesh.synth import synth_generate
from hypermesh.tensor import Tensor


def _topology():
    nc, nf = 4, 6
    upsampler = np.zeros((nf, nc))
    upsampler[:nc, :nc] = np.eye(nc)
    upsampler[nc:] = 0.25
    edges = np.array([(i, (i + 1) % nc) for i in range(nc)])
    faces = np.array([(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    return MeshTopology(edges=edges, faces=faces, upsampler=upsampler)


def _regressor(nf=6):
    r = np.zeros((2, nf))
    r[0, 0] = r[1, 1] = 1.0
    return JointRegressor(r)


def test_loss_weights_validation():
    with pytest.raises(ConfigError, match="lambda_edge must be nonnegative, got -1.0"):
        PipelineConfig(lambda_edge=-1.0)


def test_regressor_row_stochastic_check():
    with pytest.raises(ContractError):
        JointRegressor(np.full((2, 4), 0.3))
    with pytest.raises(ContractError):
        JointRegressor(np.full((2, 4), np.nan))


def test_hyperbolic_loss_identical_meshes_is_zero():
    rng = np.random.default_rng(0)
    m = Tensor(rng.normal(size=(5, 3)))
    assert hyperbolic_mesh_loss(m, m).item() == 0.0


def test_hyperbolic_loss_single_vertex_frozen():
    # pred at origin, gt at (1,0,0): |tanh(0.5)| summed over coords
    pred = Tensor(np.zeros((1, 3)))
    gt = Tensor(np.array([[1.0, 0.0, 0.0]]))
    np.testing.assert_allclose(hyperbolic_mesh_loss(pred, gt).item(),
                               math.tanh(0.5), atol=1e-12)


def test_hyperbolic_loss_shape_error():
    with pytest.raises(ShapeError):
        hyperbolic_mesh_loss(Tensor(np.zeros((3, 3))), Tensor(np.zeros((4, 3))))


def test_euclidean_losses_match_loop_oracle():
    rng = np.random.default_rng(1)
    topo = _topology()
    reg = _regressor()
    for _ in range(20):
        pf = rng.normal(size=(6, 3))
        gf = rng.normal(size=(6, 3))
        pc = rng.normal(size=(4, 3))
        gc = rng.normal(size=(4, 3))
        got = euclidean_losses(Tensor(pf), Tensor(gf), Tensor(pc), Tensor(gc),
                               reg, topo)
        want = losses_loop_oracle(pf, gf, pc, gc, reg.matrix,
                                  topo.edges, topo.faces)
        np.testing.assert_allclose(got.mesh.item(), want["mesh"], atol=1e-9)
        np.testing.assert_allclose(got.joint.item(), want["joint"], atol=1e-9)
        np.testing.assert_allclose(got.normal.item(), want["normal"], atol=1e-9)
        np.testing.assert_allclose(got.edge.item(), want["edge"], atol=1e-9)


def test_degenerate_faces_skipped_and_tallied():
    topo = _topology()
    reg = _regressor()
    rng = np.random.default_rng(2)
    gf = rng.normal(size=(6, 3))
    gf[2] = gf[0]  # face (0,1,2) has zero area; (1,2,3) and (2,3,4) keep theirs
    out = euclidean_losses(Tensor(rng.normal(size=(6, 3))), Tensor(gf),
                           Tensor(rng.normal(size=(4, 3))),
                           Tensor(rng.normal(size=(4, 3))), reg, topo)
    assert out.degenerate_faces == 1
    assert np.isfinite(out.normal.item())


def test_edge_loss_zero_for_rigid_translation():
    topo = _topology()
    reg = _regressor()
    rng = np.random.default_rng(3)
    gc = rng.normal(size=(4, 3))
    pc = gc + np.array([0.3, -0.2, 0.5])
    gf = rng.normal(size=(6, 3))
    out = euclidean_losses(Tensor(gf), Tensor(gf), Tensor(pc), Tensor(gc),
                           reg, topo)
    np.testing.assert_allclose(out.edge.item(), 0.0, atol=1e-9)


def test_total_loss_weighted_composition():
    losses = EuclideanLosses(mesh=Tensor(1.0), joint=Tensor(1.0),
                             normal=Tensor(1.0), edge=Tensor(1.0),
                             degenerate_faces=0)
    total = total_loss(losses, Tensor(1.0), PipelineConfig())
    # 1 + 1 + 0.1 + 20 + 1 with the default weights
    np.testing.assert_allclose(total.item(), 23.1, atol=0.0)
    flat = total_loss(losses, Tensor(1.0), PipelineConfig(lambda_normal=1.0, lambda_edge=1.0))
    np.testing.assert_allclose(flat.item(), 5.0, atol=0.0)


def test_losses_differentiable():
    rng = np.random.default_rng(4)
    topo = _topology()
    reg = _regressor()
    pf = Tensor(rng.normal(size=(6, 3)))
    pc = Tensor(rng.normal(size=(4, 3)))
    gf = Tensor(rng.normal(size=(6, 3)))
    gc = Tensor(rng.normal(size=(4, 3)))

    def f(pfv, pcv):
        eu = euclidean_losses(pfv, gf, pcv, gc, reg, topo)
        return total_loss(eu, hyperbolic_mesh_loss(pfv, gf), PipelineConfig())

    report = gradcheck(f, [pf, pc], tol=1e-5)
    assert report.passed, report.max_rel_err


def test_synthetic_scene_regressor_exactness():
    # the generator pins coarse anchors on the joints and the regressor
    # picks exactly those fine copies, so R . fine == pose with zero error
    cfg = PipelineConfig(t_frames=4, n_joints=3, feat_dim=8, model_dim=8,
                         heads=2, n_coarse=6, n_fine=10, steps=0)
    scene = synth_generate(cfg)
    for t in range(cfg.t_frames):
        joints = scene.regressor.matrix @ scene.fine_meshes[t]
        assert np.abs(joints - scene.poses[t]).max() == 0.0
