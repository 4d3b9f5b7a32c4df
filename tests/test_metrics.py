import numpy as np
import pytest

from hypermesh.errors import ContractError, ShapeError
from hypermesh.metrics import (accel_error, frame_errors, mpjpe, mpvpe,
                               pa_mpjpe, similarity_align, write_metric_report)


def _rand_seq(rng, t=5, n=6):
    return rng.normal(size=(t, n, 3))


def test_identical_inputs_give_zero():
    rng = np.random.default_rng(0)
    x = _rand_seq(rng)
    assert mpjpe(x, x) == 0.0
    assert pa_mpjpe(x, x) < 1e-9
    assert mpvpe(x, x) == 0.0
    assert accel_error(x, x) == 0.0


def test_units_are_millimeters():
    gt = np.zeros((2, 2, 3))
    pred = gt.copy()
    pred[:, 1, 0] = 0.001  # 1 mm offset on the non-root joint
    np.testing.assert_allclose(mpjpe(pred, gt), 0.5, atol=1e-12)
    np.testing.assert_allclose(mpvpe(pred, gt), 0.5, atol=1e-12)


def test_mpjpe_invariant_to_global_translation():
    rng = np.random.default_rng(1)
    gt = _rand_seq(rng)
    pred = gt + np.array([5.0, -2.0, 1.0])  # per-frame constant offset
    np.testing.assert_allclose(mpjpe(pred, gt), 0.0, atol=1e-9)


def test_pa_mpjpe_removes_similarity_transform():
    rng = np.random.default_rng(2)
    gt = _rand_seq(rng, t=3)
    # random rotation + scale + translation per the whole sequence
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    pred = 1.7 * gt @ q.T + np.array([0.3, 0.1, -0.2])
    assert mpjpe(pred, gt) > 1.0
    assert pa_mpjpe(pred, gt) < 1e-6


def test_similarity_align_exact_recovery():
    rng = np.random.default_rng(3)
    gt = rng.normal(size=(8, 3))
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    pred = 0.5 * gt @ q.T + 2.0
    aligned = similarity_align(pred, gt)
    np.testing.assert_allclose(aligned, gt, atol=1e-9)


def test_accel_error_ignores_linear_trends():
    rng = np.random.default_rng(4)
    gt = _rand_seq(rng)
    t = np.arange(5, dtype=np.float64)[:, None, None]
    pred = gt + 0.3 * t + 1.0  # linear-in-time offset has zero second difference
    np.testing.assert_allclose(accel_error(pred, gt), 0.0, atol=1e-9)


def test_accel_error_needs_three_frames():
    x = np.zeros((2, 3, 3))
    with pytest.raises(ContractError):
        accel_error(x, x)


def test_shape_checks():
    with pytest.raises(ShapeError):
        mpjpe(np.zeros((2, 3, 3)), np.zeros((2, 4, 3)))
    with pytest.raises(ShapeError):
        mpvpe(np.zeros((2, 3)), np.zeros((2, 3)))


def test_similarity_align_batch_equals_frame_loop():
    rng = np.random.default_rng(7)
    gt = _rand_seq(rng, t=6)
    pred = 0.8 * gt + rng.normal(size=gt.shape) * 0.1
    pred[2] = pred[2, :1]  # a collapsed frame keeps scale 1
    batched = similarity_align(pred, gt)
    for t in range(gt.shape[0]):
        assert np.array_equal(batched[t], similarity_align(pred[t], gt[t]))


def test_per_frame_metrics_rows():
    rng = np.random.default_rng(5)
    gt = _rand_seq(rng, t=3)
    pred = gt + 0.001
    cols = frame_errors(pred, gt, pred, gt)
    assert list(cols) == ["mpjpe_mm", "pa_mpjpe_mm", "mpvpe_mm"]
    assert all(c.shape == (3,) and np.all(np.isfinite(c)) for c in cols.values())
    for t in range(3):
        one = [pred[t:t + 1], gt[t:t + 1]]
        assert cols["mpjpe_mm"][t] == mpjpe(*one)
        assert cols["pa_mpjpe_mm"][t] == pa_mpjpe(*one)
        assert cols["mpvpe_mm"][t] == mpvpe(*one)


def test_metric_report_csv(tmp_path):
    rng = np.random.default_rng(6)
    gt = _rand_seq(rng, t=4)
    pred = gt + 0.002
    path = tmp_path / "report.csv"
    summary = write_metric_report(path, pred, gt, pred, gt)
    lines = path.read_text().splitlines()
    assert lines[0] == "frame,mpjpe_mm,pa_mpjpe_mm,mpvpe_mm"
    assert len(lines) == 1 + 4 + 1
    assert [line.split(",")[0] for line in lines[1:-1]] == ["0", "1", "2", "3"]
    assert lines[-1].startswith("sequence_accel_mm_per_frame2,")
    assert summary == {"mpjpe_mm": mpjpe(pred, gt), "pa_mpjpe_mm": pa_mpjpe(pred, gt),
                       "mpvpe_mm": mpvpe(pred, gt), "accel_error_mm": accel_error(pred, gt)}
