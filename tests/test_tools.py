"""The scripts under ``tools/``, loaded by path: they are not part of the package."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hypermesh import checks
from hypermesh.tensor import Tensor


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _tool("pairs")
artifacts = _tool("artifacts")

P50 = {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2}


def _pairs(parent: list[float], change: list[float]) -> list[dict]:
    return [{"parent": {"metrics": {P50["name"]: {"value": a}}},
             "change": {"metrics": {P50["name"]: {"value": c}}}}
            for a, c in zip(parent, change)]


# the parent reads 10..19 ms over 10 pairs: median 14.5, interquartile range 4.5
PARENT = [10.0 + i for i in range(10)]


@pytest.mark.parametrize("parent, change, wins, claimable", [
    # every pair better by 6 ms, but 4 pairs are too few to claim
    (PARENT[:4], [a - 6.0 for a in PARENT[:4]], 4, False),
    # 9 of 10 better, and the medians 6 ms apart, beyond the parent's IQR
    (PARENT, [a - 6.0 for a in PARENT[:9]] + [PARENT[9] + 1.0], 9, True),
    (PARENT, [a - 6.0 for a in PARENT[:8]] + [a + 1.0 for a in PARENT[8:]], 8, False),
    # 10 of 10 better, but by 1 ms, inside the parent's IQR
    (PARENT, [a - 1.0 for a in PARENT], 10, False),
])
def test_pairs_claims_a_gain_only_from_ten_pairs_nine_wins_and_beyond_the_iqr(
        parent, change, wins, claimable):
    summary = pairs.summarize(_pairs(parent, change), P50)
    assert summary["wins"] == wins and summary["pairs"] == len(parent)
    assert summary["claimable"] is claimable


def test_pairs_claim_rule_states_the_ten_pair_minimum():
    assert pairs.MIN_CLAIM_PAIRS == 10
    assert "at least 10 pairs" in pairs.CLAIM_RULE


def test_propcheck_figures_see_a_one_ulp_move_that_every_check_passes(monkeypatch):
    # hypermesh propcheck prints only PASS rows and case counts, so its stdout
    # hash cannot see this plant; the figures hash must
    figures, rows = artifacts.propcheck_figures()
    mobius_add = checks.mobius_add
    monkeypatch.setattr(checks, "mobius_add",
                        lambda x, y: Tensor(np.nextafter(mobius_add(x, y).data, np.inf)))
    planted, planted_rows = artifacts.propcheck_figures()
    assert all(row["passed"] for row in rows)
    assert planted_rows == rows
    assert planted != figures
