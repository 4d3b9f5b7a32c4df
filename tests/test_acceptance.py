"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line. Run with ``pytest -v tests/test_acceptance.py -s``."""

import time

import numpy as np

from hypermesh import manifold
from hypermesh.checks import (check_ball_closure, check_manifold_identities,
                              check_matvec_formulations, gru_loop_oracle,
                              hyper_attention_oracle, losses_loop_oracle,
                              np_expmap0, random_ball_points, run_gradchecks)
from hypermesh.config import PipelineConfig
from hypermesh.layers import HyperAttention
from hypermesh.losses import (EuclideanLosses, JointRegressor,
                              euclidean_losses, hyperbolic_mesh_loss,
                              total_loss)
from hypermesh.metrics import accel_error, mpjpe, mpvpe, pa_mpjpe
from hypermesh.pipeline import MeshTopology
from hypermesh.synth import synth_generate
from hypermesh.temporal import GruCell
from hypermesh.tensor import Tensor
from hypermesh.tensor_io import load_checkpoint, load_tensor, save_tensor
from hypermesh.train import build_pipeline, evaluate, train_toy

SMALL = dict(t_frames=4, n_joints=3, feat_dim=8, model_dim=8, heads=2,
             n_coarse=6, n_fine=10, steps=0)


def _report(num: int, desc: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} acceptance {num}: {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_criterion_1_manifold_identities():
    t0 = time.time()
    cases = check_manifold_identities(cases=10000, seed=0, tol=1e-9)
    elapsed = time.time() - t0
    _report(1, f"manifold identities, {cases} cases at 1e-9 in {elapsed:.1f}s",
            cases == 10000 and elapsed < 10.0)


def test_criterion_2_matvec_formulations():
    cases = check_matvec_formulations(cases=1000, seed=1, tol=1e-8)
    _report(2, f"matvec direct vs map-composed, {cases} cases at 1e-8",
            cases == 1000)


def test_criterion_3_gradcheck_suite():
    t0 = time.time()
    rows = run_gradchecks()
    elapsed = time.time() - t0
    failed = [r["check"] for r in rows if not r["passed"]]
    _report(3, f"gradcheck registry, {len(rows)} entries in {elapsed:.1f}s "
               f"(failed: {failed or 'none'})",
            len(rows) > 0 and not failed and elapsed < 120.0)


def _ball_closure_violations(ball_norms, seeds) -> int:
    """Forward passes, one per seed, in which a ball-op output left the shell."""
    violations = 0
    for seed in seeds:
        cfg = PipelineConfig(**{**SMALL, "seed": seed})
        scene = synth_generate(cfg)
        pipe = build_pipeline(cfg, scene)
        ball_norms.reset()
        pipe.run_sequence(Tensor(scene.poses), Tensor(scene.feats))
        violations += ball_norms.exceeds(cfg.ball_params())
    return violations


def test_criterion_4_ball_closure_instrumentation(ball_norms):
    check_ball_closure(cases=100, seed=2)
    violations = _ball_closure_violations(ball_norms, range(100))
    _report(4, "ball closure: 100 random parameterizations, "
               f"{violations} violations", violations == 0)


def test_criterion_4_check_flags_a_planted_violation(ball_norms, monkeypatch):
    # every ball op emits its first row between the shell 1 - eps_ball and the
    # boundary: a row at norm 1 would stop the forward at the next atanh, so
    # this is the violation only the observer can see
    clamp = manifold.ball_clamp

    def leaky_clamp(z, p=manifold.DEFAULT_PARAMS):
        out, vjp = clamp(z, p)
        out = out.copy()
        row = out.reshape(-1, out.shape[-1])[0]
        row[:] = 0.0
        row[0] = 1.0 - 0.5 * p.eps_ball
        return out, vjp

    monkeypatch.setattr(manifold, "ball_clamp", leaky_clamp)
    assert _ball_closure_violations(ball_norms, [0]) == 1
    assert ball_norms.max_norm > 1.0 - manifold.DEFAULT_PARAMS.eps_ball


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        att = HyperAttention(8, 2, rng)
        q = random_ball_points(rng, (4, 8), max_norm=0.7)
        k = random_ball_points(rng, (5, 8), max_norm=0.7)
        d = np.abs(att(Tensor(q), Tensor(k)).data
                   - hyper_attention_oracle(att, q, k)).max()
        worst = max(worst, float(d))

        cell = GruCell(6, 4, rng)
        x = rng.normal(size=(5, 6))
        d = np.abs(cell(Tensor(x)).data - gru_loop_oracle(cell, x)).max()
        worst = max(worst, float(d))

    nc, nf = 4, 6
    upsampler = np.zeros((nf, nc))
    upsampler[:nc, :nc] = np.eye(nc)
    upsampler[nc:] = 0.25
    topo = MeshTopology(np.array([(i, (i + 1) % nc) for i in range(nc)]),
                        np.array([(0, 1, 2), (1, 2, 3), (2, 3, 4)]), upsampler)
    reg = np.zeros((2, nf))
    reg[0, 0] = reg[1, 1] = 1.0
    regressor = JointRegressor(reg)
    for _ in range(100):
        pf, gf = rng.normal(size=(nf, 3)), rng.normal(size=(nf, 3))
        pc, gc = rng.normal(size=(nc, 3)), rng.normal(size=(nc, 3))
        got = euclidean_losses(Tensor(pf), Tensor(gf), Tensor(pc), Tensor(gc),
                               regressor, topo)
        want = losses_loop_oracle(pf, gf, pc, gc, reg, topo.edges, topo.faces)
        for key, val in (("mesh", got.mesh), ("joint", got.joint),
                         ("normal", got.normal), ("edge", got.edge)):
            worst = max(worst, abs(val.item() - want[key]))
        hy = hyperbolic_mesh_loss(Tensor(pf), Tensor(gf)).item()
        hy_ref = np.mean([np.abs(np_expmap0(gf[i]) - np_expmap0(pf[i])).sum()
                          for i in range(nf)])
        worst = max(worst, abs(hy - hy_ref))
    _report(5, f"attention/GRU/loss loop oracles, max abs dev {worst:.2e}",
            worst < 1e-9)


def test_criterion_6_metric_sanity():
    rng = np.random.default_rng(4)
    ok = True
    x = rng.normal(size=(5, 6, 3))
    ok &= mpjpe(x, x) == 0.0 and mpvpe(x, x) == 0.0
    ok &= pa_mpjpe(x, x) < 1e-9 and accel_error(x, x) == 0.0

    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    warped = 1.4 * x @ q.T + np.array([0.2, -0.1, 0.4])
    ok &= pa_mpjpe(warped, x) < 1e-6 and mpjpe(warped, x) > 0.0

    for _ in range(1000):
        gt = rng.normal(size=(1, 6, 3))
        pred = gt + rng.normal(size=(1, 6, 3)) * rng.uniform(0.01, 1.0)
        ok &= pa_mpjpe(pred, gt) <= mpjpe(pred, gt) + 1e-9

    t = np.arange(5, dtype=np.float64)[:, None, None]
    ok &= accel_error(x + 0.3 * t + 1.0, x) < 1e-9
    _report(6, "metric sanity (zeros, similarity invariance, PA<=MPJPE, "
               "linear drift)", bool(ok))


def test_criterion_7_loss_composition():
    parts = EuclideanLosses(mesh=Tensor(1.0), joint=Tensor(1.0),
                            normal=Tensor(1.0), edge=Tensor(1.0),
                            degenerate_faces=0)
    total = total_loss(parts, Tensor(1.0), PipelineConfig())
    _report(7, f"unit loss components compose to {total.item()!r}",
            total.item() == 23.1)


def test_criterion_8_toy_overfit_and_ablation(tmp_path):
    cfg = PipelineConfig()  # default toy config
    assert cfg.steps <= 2000
    t0 = time.time()
    full = train_toy(cfg, out_dir=tmp_path / "full")
    train_s = time.time() - t0
    reduction = 1.0 - full.final_loss / full.initial_loss

    cfg_ablated = PipelineConfig(disable_hmo=True)
    ablated = train_toy(cfg_ablated, out_dir=tmp_path / "ablated")

    # determinism per seed, checked on a short run to stay inside budget
    short = {**SMALL, "steps": 3, "learning_rate": 0.001}
    a = train_toy(PipelineConfig(**short), out_dir=tmp_path / "d1").losses
    b = train_toy(PipelineConfig(**short), out_dir=tmp_path / "d2").losses
    ok = (reduction >= 0.90 and train_s < 300.0
          and ablated.final_loss > full.final_loss and a == b)
    _report(8, f"toy overfit: {100 * reduction:.1f}% reduction in "
               f"{len(full.losses)} steps / {train_s:.0f}s; ablated final "
               f"{ablated.final_loss:.3f} vs full {full.final_loss:.3f}; "
               f"deterministic={a == b}", ok)


def test_criterion_9_serialization(tmp_path):
    rng = np.random.default_rng(5)
    arr = rng.normal(size=(7, 3)) * np.array([1e-300, 1.0, 1e300])
    arr[0, 0] = -0.0
    path = tmp_path / "t.gymt"
    save_tensor(path, arr)
    bits_ok = load_tensor(path).tobytes() == arr.tobytes()

    cfg = PipelineConfig(**{**SMALL, "steps": 2, "learning_rate": 0.001})
    result = train_toy(cfg, out_dir=tmp_path / "run")
    scene = synth_generate(cfg)
    evaluate(cfg, result.checkpoint_path, tmp_path / "r1.csv", scene=scene)
    pipe = build_pipeline(cfg, scene)
    pipe.load_state_dict(load_checkpoint(result.checkpoint_path))
    evaluate(cfg, result.checkpoint_path, tmp_path / "r2.csv", scene=scene)
    csv_ok = (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    _report(9, f"tensor bits preserved={bits_ok}, "
               f"eval CSV byte-identical={csv_ok}", bits_ok and csv_ok)
