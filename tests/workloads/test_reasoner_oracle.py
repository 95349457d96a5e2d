"""Accuracy execution computes each operand once, every score bit-identical.

Production NVSA and LVRF (both run ``NvsaReasoner``) and PrAE take each
operand's spectrum, norms and quantized rows once, draw an attribute's
perception PMFs in one call and build codebooks on first use. The oracle
(``reasoner_oracle.py``) keeps the pair-by-pair pipelines they replaced.
For every problem the candidate scores must equal the oracle's byte for
byte, and the perception stream must stand where the oracle's stands, so
the next problem starts from the same draw.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import reasoner_oracle

from repro.datasets import generate_dataset, make_spec
from repro.errors import ConfigError
from repro.quant import MIXED_PRECISION_PRESETS
from repro.utils import make_rng
from repro.workloads import build_workload
from repro.workloads.lvrf import LvrfWorkload
from repro.workloads.nvsa import NvsaWorkload, PerceptionModel
from repro.workloads.prae import PraeWorkload

WORKLOADS = {"nvsa": NvsaWorkload, "lvrf": LvrfWorkload, "prae": PraeWorkload}


def production_scores(wl, seed: int, n_problems: int):
    """Yield ``(scores, perception stream state)`` per problem, seeded as
    ``evaluate_accuracy`` seeds them."""
    cfg = wl.config
    spec = make_spec(cfg.dataset)
    root = make_rng(seed)
    problems = generate_dataset(spec, n_problems, seed=root)
    perception = PerceptionModel(
        cfg.confidence, spec.perception_noise, cfg.precision.neural, rng=root
    )
    for problem in problems:
        if wl.name == "prae":
            scores = wl.candidate_scores(problem, perception)
        else:
            pred, scores = wl.reasoner.solve(problem, perception)
            assert pred == int(np.argmax(scores))
        yield scores, perception._rng.bit_generator.state


def assert_scores_match_the_oracle(wl, seed: int, n_problems: int) -> None:
    got = production_scores(wl, seed, n_problems)
    want = reasoner_oracle.score_problems(wl, seed, n_problems)
    n = 0
    for i, ((g, g_state), (w, w_state)) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), f"problem {i}: {g} != {w}"
        assert g.tobytes() == w.tobytes(), f"problem {i}: scores differ in their bits"
        assert g_state == w_state, f"problem {i}: the perception stream moved differently"
        n += 1
    assert n == n_problems


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("preset", sorted(MIXED_PRECISION_PRESETS))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_configs_score_like_the_oracle(name, preset, seed, request):
    cfg = request.getfixturevalue(f"small_{name}_config")
    wl = WORKLOADS[name](replace(cfg, precision=MIXED_PRECISION_PRESETS[preset]))
    assert_scores_match_the_oracle(wl, seed, n_problems=3)


@pytest.mark.parametrize("dataset", ["pgm", "iraven"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_noise_attributes_and_unbiased_answers_score_like_the_oracle(
    name, dataset, request
):
    """PGM adds rule-free noise attributes; I-RAVEN changes the candidates."""
    cfg = request.getfixturevalue(f"small_{name}_config")
    wl = WORKLOADS[name](replace(cfg, dataset=dataset, precision=MIXED_PRECISION_PRESETS["MP"]))
    assert_scores_match_the_oracle(wl, seed=1, n_problems=3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_configs_at_int4_score_like_the_oracle(name):
    """The deployment-scale pass the accuracy objective runs: 16 problems, seed 0."""
    wl = build_workload(name, precision=MIXED_PRECISION_PRESETS["INT4"])
    assert_scores_match_the_oracle(wl, seed=0, n_problems=16)


def test_pmf_is_the_one_row_case_of_pmfs():
    """``pmf`` and the batched draw share one path, range check first."""
    one = PerceptionModel(4.0, 0.5, MIXED_PRECISION_PRESETS["INT4"].neural, rng=3)
    many = PerceptionModel(4.0, 0.5, MIXED_PRECISION_PRESETS["INT4"].neural, rng=3)
    values = [0, 4, 2, 2, 1]
    rows = many.pmfs(5, values)
    for i, value in enumerate(values):
        assert one.pmf(5, value).tobytes() == rows[i].tobytes()

    state = many._rng.bit_generator.state
    with pytest.raises(ConfigError, match="out of range"):
        many.pmfs(5, [1, 2, 5])
    assert many._rng.bit_generator.state == state, "a rejected call drew"
