import numpy as np
import pytest

from hypermesh import tensor as T
from hypermesh.config import PipelineConfig
from hypermesh.errors import ContractError, ShapeError, TopologyError
from hypermesh.module import Module
from hypermesh.pipeline import (BLOCKS, MeshTopology, OptBlock, export_obj, fibonacci_sphere,
                                fuse_and_upsample)
from hypermesh.synth import build_toy_topology, synth_generate
from hypermesh.temporal import TemporalPriorExtractor
from hypermesh.tensor import Tensor
from hypermesh.tensor_io import save_checkpoint
from hypermesh.train import build_pipeline, predict, scene_loss

SMALL = dict(t_frames=4, n_joints=3, feat_dim=8, model_dim=8, heads=2,
             n_coarse=6, n_fine=10, steps=0)


def _small_cfg(**kw):
    return PipelineConfig(**{**SMALL, **kw})


def _streams(first, second):
    """Two [T, J, 3] pose streams as the batched block's [T, 2, J, 3] input."""
    return Tensor(np.stack([np.asarray(first), np.asarray(second)], axis=1))


def _lone_blocks(cfg, scene, seed_shift=0):
    """A pipeline of two lone blocks, as before the blocks were batched: the
    same draws from the same generator, under hpo and hmo."""
    ref = Module()
    rng = np.random.default_rng(cfg.seed + 1 + seed_shift)
    ref.prior = TemporalPriorExtractor(cfg.n_joints, cfg.feat_dim, cfg.heads, rng)
    for name in BLOCKS:
        setattr(ref, name, OptBlock(cfg.n_coarse, cfg.n_joints, cfg.feat_dim,
                                    cfg.model_dim, cfg.heads, rng))
    ref.template = Tensor(fibonacci_sphere(cfg.n_coarse), requires_grad=True)
    return ref


def _topology(nc=4, nf=6):
    upsampler = np.zeros((nf, nc))
    upsampler[:nc, :nc] = np.eye(nc)
    upsampler[nc:] = 1.0 / nc
    edges = [(i, (i + 1) % nc) for i in range(nc)]
    faces = [(0, 1, 2), (1, 2, 3)]
    return MeshTopology(edges=np.array(edges), faces=np.array(faces), upsampler=upsampler)


def test_topology_validation():
    for bad in (np.full((6, 4), 0.3), np.full((6, 4), np.nan)):
        with pytest.raises(TopologyError):
            MeshTopology(np.zeros((0, 2)), np.zeros((0, 3)), bad)
    with pytest.raises(TopologyError):
        MeshTopology(np.array([[0, 9]]), np.zeros((0, 3)), _topology().upsampler)
    with pytest.raises(TopologyError):
        MeshTopology(np.zeros((0, 2)), np.array([[0, 1, 17]]), _topology().upsampler)
    # fractional, flat, ragged and non-numeric index arrays are refused, not cast
    up = _topology().upsampler
    for edges, faces in (([[0, 1]], [[0.5, 1.5, 2.5]]), ([0, 1, 1, 2], [[0, 1, 2]]),
                         ([[0, 1]], np.arange(8.0)), ([["0", "1"]], [[0, 1, 2]])):
        with pytest.raises(TopologyError):
            MeshTopology(np.array(edges), np.array(faces), up)


def test_fuse_and_upsample_linear():
    topo = _topology()
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(4, 3))
    m_opt, m_out = fuse_and_upsample(Tensor(np.stack([a, b])), topo)
    np.testing.assert_allclose(m_opt.vertices.data, a + b, atol=1e-15)
    np.testing.assert_allclose(m_out.vertices.data,
                               topo.upsampler @ (a + b), atol=1e-15)


@pytest.mark.parametrize("n_blocks", [1, 2])
def test_fuse_and_upsample_sums_the_block_axis_bit_for_bit(n_blocks):
    # one block's mesh passes through unchanged; two give slice 0 + slice 1
    topo = _topology()
    rng = np.random.default_rng(14)
    for _ in range(50):
        a = rng.normal(size=(5, n_blocks, topo.n_coarse, 3)) * 10.0 ** rng.integers(-3, 4)
        m_opt, m_out = fuse_and_upsample(Tensor(a), topo)
        want = a[:, 0] if n_blocks == 1 else a[:, 0] + a[:, 1]
        assert m_opt.vertices.data.tobytes() == want.tobytes()
        assert m_out.vertices.data.tobytes() == (topo.upsampler @ want).tobytes()


def test_fuse_and_upsample_shape_error():
    topo = _topology()
    for shape in ((2, 3, 3), (4, 3), (2, 4, 2)):  # wrong n_coarse, no block axis, 2 coordinates
        with pytest.raises(ShapeError):
            fuse_and_upsample(Tensor(np.zeros(shape)), topo)


def test_export_obj_format(tmp_path):
    path = tmp_path / "mesh.obj"
    export_obj(path, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                               [0.0, 1.0, 0.0]]), np.array([[0, 1, 2]]))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("v ")
    assert lines[-1] == "f 1 2 3"


def test_pipeline_shapes_and_ball_invariant(ball_norms):
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    m_opt, m_out = pipe.run_sequence(Tensor(scene.poses), Tensor(scene.feats))
    assert m_opt.vertices.shape == (cfg.t_frames, cfg.n_coarse, 3)
    assert m_out.vertices.shape == (cfg.t_frames, cfg.n_fine, 3)
    assert not ball_norms.exceeds(cfg.ball_params())


def test_every_ball_op_keeps_the_ball_margin(ball_norms):
    # parameters scaled x60 push every ball op's output past the shell
    # 1 - eps_ball, so each op must clamp at the engine's margin
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    for name, param in pipe.named_parameters().items():
        if name.startswith("blocks."):
            param.data = param.data * 60.0
    scene_loss(pipe, scene, cfg)
    shell = 1.0 - cfg.ball_params().eps_ball
    for op in ("mobius_add", "mobius_matvec", "expmap0"):
        assert abs(ball_norms.op_max[op] - shell) <= 1e-12, op


def test_disable_hmo_zeroes_motion_branch():
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    poses = Tensor(scene.poses)
    m_opt, m_out = pipe.run_sequence(poses, Tensor(scene.feats), disable_hmo=True)
    # the fused mesh is the pose block's output alone, bit for bit
    tm_pr, _ = pipe.prior(poses, Tensor(scene.feats))
    m_p = pipe.blocks(pipe.template, tm_pr.reshape(cfg.t_frames, 1, 1, cfg.feat_dim),
                      _streams(scene.poses, scene.poses)).data[:, 0]
    assert m_opt.vertices.data.tobytes() == m_p.tobytes()
    assert m_out.vertices.data.tobytes() == (scene.topology.upsampler @ m_p).tobytes()


def test_batched_frames_match_single_frame_calls():
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    poses = Tensor(scene.poses)
    m_opt, _ = pipe.run_sequence(poses, Tensor(scene.feats))
    tm_pr, p_motion = pipe.prior(poses, Tensor(scene.feats))
    cond = tm_pr.reshape(cfg.t_frames, 1, 1, cfg.feat_dim)
    streams = _streams(scene.poses, p_motion.data)
    batched = pipe.blocks(pipe.template, cond, streams).data
    for t in range(cfg.t_frames):
        out = pipe.blocks(pipe.template, cond[t:t + 1], streams[t:t + 1]).data
        assert out.tobytes() == batched[t:t + 1].tobytes()
        assert m_opt.vertices.data[t].tobytes() == (out[0, 0] + out[0, 1]).tobytes()


def test_frame_outputs_depend_only_on_their_frame():
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    tm_pr, _ = pipe.prior(Tensor(scene.poses), Tensor(scene.feats))
    cond = tm_pr.reshape(cfg.t_frames, 1, 1, cfg.feat_dim)
    moved = scene.poses.copy()
    moved[2] += 0.1
    before = pipe.blocks(pipe.template, cond, _streams(scene.poses, scene.poses)).data
    after = pipe.blocks(pipe.template, cond, _streams(moved, scene.poses)).data
    for t in (0, 1, 3):
        assert np.array_equal(before[t], after[t])
    assert not np.array_equal(before[2, 0], after[2, 0])
    # the motion slice does not see the pose stream
    assert np.array_equal(before[:, 1], after[:, 1])


@pytest.mark.parametrize("t_frames", [4, 8])
def test_opt_block_called_once_per_sequence(monkeypatch, t_frames):
    calls = []
    call = OptBlock.__call__

    def counted(self, *args):
        calls.append(self)
        return call(self, *args)

    monkeypatch.setattr(OptBlock, "__call__", counted)
    cfg = _small_cfg(t_frames=t_frames)
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    _, m_out = pipe.run_sequence(Tensor(scene.poses), Tensor(scene.feats))
    assert m_out.vertices.shape == (t_frames, cfg.n_fine, 3)
    assert calls == [pipe.blocks]


@pytest.mark.parametrize("width", [{}, {"model_dim": 128, "heads": 4, "n_coarse": 32,
                                        "n_fine": 128}], ids=["default", "width_128"])
def test_each_block_slice_matches_a_lone_block_bit_for_bit(width):
    # forward output, every parameter gradient and the condition's gradient of
    # slice b equal those of a lone OptBlock holding slice b's weights, byte for byte
    cfg = PipelineConfig(**width)
    pipe = build_pipeline(cfg, synth_generate(cfg))
    state = pipe.state_dict()
    rng = np.random.default_rng(21)
    t_frames = cfg.t_frames
    cond = Tensor(rng.normal(size=(t_frames, 2, 1, cfg.feat_dim)) * 0.2, requires_grad=True)
    streams = rng.normal(size=(t_frames, 2, cfg.n_joints, 3)) * 0.3
    probe = rng.normal(size=(t_frames, 2, cfg.n_coarse, 3))
    out = pipe.blocks(pipe.template, cond, Tensor(streams))
    (out * Tensor(probe)).sum().backward()
    for b, name in enumerate(BLOCKS):
        lone = OptBlock(cfg.n_coarse, cfg.n_joints, cfg.feat_dim, cfg.model_dim, cfg.heads,
                        np.random.default_rng(0))
        for k, param in lone.named_parameters().items():
            param.data = state[f"{name}.{k}"]
        lone_cond = Tensor(cond.data[:, b], requires_grad=True)
        lone_out = lone(pipe.template, lone_cond, Tensor(streams[:, b]))
        assert out.data[:, b].tobytes() == lone_out.data.tobytes()
        (lone_out * Tensor(probe[:, b])).sum().backward()
        assert cond.grad[:, b].tobytes() == lone_cond.grad.tobytes()
        batched = pipe.blocks.named_parameters()
        for k, param in lone.named_parameters().items():
            got = batched[k].grad[b].reshape(param.shape)
            assert got.tobytes() == param.grad.tobytes(), (name, k)


def test_checkpoint_layout_is_that_of_two_lone_blocks():
    # names, shapes, order and initial bytes: two lone blocks drawn in turn
    # from the same generator, under hpo and hmo
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    state = build_pipeline(cfg, scene).state_dict()
    want = {k: v.data for k, v in _lone_blocks(cfg, scene).named_parameters().items()}
    assert list(state) == list(want)
    assert sum(k.startswith(("hpo.", "hmo.")) for k in state) == 72
    for k in want:
        assert state[k].shape == want[k].shape and state[k].tobytes() == want[k].tobytes(), k


def test_lone_blocks_checkpoint_loads_into_the_batched_pipeline(tmp_path):
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    ref = _lone_blocks(cfg, scene, seed_shift=7)
    manifest = save_checkpoint(tmp_path / "ckpt",
                               {k: v.data for k, v in ref.named_parameters().items()})
    got = predict(cfg, manifest, scene)
    poses = Tensor(scene.poses)
    tm_pr, p_motion = ref.prior(poses, Tensor(scene.feats))
    cond = tm_pr.reshape(cfg.t_frames, 1, cfg.feat_dim)
    m_p = ref.hpo(ref.template, cond, poses)
    m_m = ref.hmo(ref.template, cond, p_motion)
    want = T.matmul(Tensor(scene.topology.upsampler), m_p + m_m).data
    assert got.tobytes() == want.tobytes()


def test_ablation_leaves_the_motion_slice_untouched():
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    scene_loss(pipe, scene, cfg, disable_hmo=True).backward()
    for k, param in pipe.blocks.named_parameters().items():
        assert not param.grad[1].any() and param.grad[0].any(), k


def test_pipeline_forward_determinism():
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    _, out1 = build_pipeline(cfg, scene).run_sequence(
        Tensor(scene.poses), Tensor(scene.feats))
    _, out2 = build_pipeline(cfg, scene).run_sequence(
        Tensor(scene.poses), Tensor(scene.feats))
    assert out1.vertices.shape[0] == cfg.t_frames
    assert np.array_equal(out1.vertices.data, out2.vertices.data)


def test_pipeline_state_dict_roundtrip():
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    state = pipe.state_dict()
    pipe2 = build_pipeline(_small_cfg(seed=5), scene)
    pipe2.load_state_dict(state)
    _, a = pipe.run_sequence(Tensor(scene.poses), Tensor(scene.feats))
    _, b = pipe2.run_sequence(Tensor(scene.poses), Tensor(scene.feats))
    assert np.array_equal(a.vertices.data, b.vertices.data)


def test_pipeline_state_dict_strictness():
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    state = pipe.state_dict()
    state.pop(sorted(state)[0])
    with pytest.raises(ContractError):
        pipe.load_state_dict(state)
    state = pipe.state_dict()
    state["hmo.head.b"] = np.zeros(4)
    with pytest.raises(ContractError, match=r"state dict entry hmo\.head\.b: shape \(4,\)"):
        pipe.load_state_dict(state)


def test_failed_load_leaves_every_parameter_as_it_was():
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    before = pipe.state_dict()
    state = build_pipeline(_small_cfg(seed=5), scene).state_dict()
    state["template"] = np.full_like(state["template"], np.nan)  # the last entry
    with pytest.raises(ContractError, match="state dict entry template is not finite"):
        pipe.load_state_dict(state)
    after = pipe.state_dict()
    assert all(after[k].tobytes() == v.tobytes() for k, v in before.items())


def test_template_is_trainable_and_ball_params_counted():
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    names = pipe.named_parameters()
    assert "template" in names
    # each HyperFFN holds two ball biases, two FFNs per block: 4 tensors, each
    # holding both blocks' biases on its leading axis
    balls = pipe.ball_parameters()
    assert len(balls) == 4 and all(b.shape[:2] == (2, 1) for b in balls)


def test_opt_block_zero_weights_zero_head_outputs_zero_mesh():
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    block = pipe.blocks
    for p in block.parameters():
        p.data = np.zeros_like(p.data)
    out = block(Tensor(np.zeros((cfg.n_coarse, 3))),
                Tensor(np.zeros(cfg.feat_dim)),
                Tensor(np.zeros((2, cfg.n_joints, 3))))
    np.testing.assert_allclose(out.data, np.zeros((2, cfg.n_coarse, 3)), atol=1e-12)


def test_weight_tied_blocks_match_on_identical_streams():
    cfg = _small_cfg()
    scene = synth_generate(cfg)
    pipe = build_pipeline(cfg, scene)
    state = pipe.state_dict()
    pipe.load_state_dict({k: state["hpo." + k[4:]] if k.startswith("hmo.") else v
                          for k, v in state.items()})
    rng = np.random.default_rng(11)
    m = Tensor(rng.normal(size=(cfg.n_coarse, 3)) * 0.3)
    tm = Tensor(rng.normal(size=cfg.feat_dim) * 0.2)
    pose = rng.normal(size=(cfg.n_joints, 3)) * 0.3
    out = pipe.blocks(m, tm, Tensor(np.stack([pose, pose]))).data
    np.testing.assert_array_equal(out[0], out[1])


def test_opt_block_matches_composition_reference():
    # slow reference: re-compose the batched block from its own sub-layers one
    # call at a time, mirroring the documented forward order. Every residual is
    # mobius_add(block_output, residual); the addition does not commute, so
    # swapping any one of the four fails the match
    from hypermesh.manifold import expmap0, logmap0, mobius_add

    cfg = _small_cfg()
    scene = synth_generate(cfg)
    block = build_pipeline(cfg, scene).blocks
    rng = np.random.default_rng(12)
    m_init = Tensor(rng.normal(size=(cfg.n_coarse, 3)) * 0.3)
    tm = Tensor(rng.normal(size=cfg.feat_dim) * 0.2)
    pose = Tensor(rng.normal(size=(2, cfg.n_joints, 3)) * 0.3)
    got = block(m_init, tm, pose).data

    m_hat = expmap0(block.embed_mesh(m_init) + block.pos_mesh)
    p_hat = expmap0(block.embed_pose(pose) + block.pos_pose)
    m_mix = block.adaln_in(m_hat, tm)
    x_pm = mobius_add(block.cross_att(m_mix, p_hat), m_mix)
    x_m = mobius_add(block.ffn_mid(block.adaln_mid(x_pm, tm)), x_pm)
    x_p = mobius_add(block.self_att(x_m, x_m), x_m)
    m_ref = mobius_add(block.ffn_out(block.adaln_out(x_p, tm)), x_p)
    want = block.head(logmap0(m_ref)).data
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_fusion_linearity():
    topo = _topology()
    rng = np.random.default_rng(13)
    a, b, c = (rng.normal(size=(4, 3)) for _ in range(3))
    lhs = (fuse_and_upsample(Tensor(np.stack([a, b])), topo)[1].vertices.data
           + fuse_and_upsample(Tensor(c[None]), topo)[1].vertices.data)
    rhs = fuse_and_upsample(Tensor(np.stack([a + c, b])), topo)[1].vertices.data
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_fibonacci_sphere_radius():
    pts = fibonacci_sphere(32)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=-1), 0.5, atol=1e-12)


def test_toy_topology_row_stochastic():
    cfg = _small_cfg()
    topo = build_toy_topology(cfg, np.random.default_rng(3))
    np.testing.assert_allclose(topo.upsampler.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(topo.upsampler[:cfg.n_coarse],
                                  np.eye(cfg.n_coarse))
