"""The wave memo of a verify run.

Inside ``verify.run_suites`` every ``_grid_waves`` call reads the waves of a
mode index already walked on the same grid from one memo, so a run walks
each index once per grid; outside a run each call walks its own indices
afresh and keeps nothing.  Memo rows are read-only and carry the bits of a
fresh ``spectral._basis_block`` row.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifourier import DEFAULT_QUADRATURE, Branch, Mode, QuadratureSpec, SpectralConfig
from semifourier import quadrature, spectral, verify
from semifourier.quadrature import composite_rule

VERIFY_CONFIGS = [(0.0, math.pi, 1.0), (7.5, 10.3, 0.5), (-2.5, 0.75, 2.2)]


def _count_walks(monkeypatch, cfg, spec):
    """The mode indices ``_grid_waves`` walks on (cfg, spec)'s nodes, one list per call."""
    nodes, _ = composite_rule(cfg, spec)
    walks = []
    blocks = quadrature._basis_blocks

    def counting(cfg_, ms, xs):
        if np.array_equal(xs, nodes):
            walks.append(list(ms))
        return blocks(cfg_, ms, xs)

    monkeypatch.setattr(quadrature, "_basis_blocks", counting)
    return walks


@pytest.mark.parametrize("a, b, k", VERIFY_CONFIGS)
def test_verify_run_walks_each_mode_once_per_grid(monkeypatch, a, b, k):
    cfg = SpectralConfig(a, b, k)
    walks = _count_walks(monkeypatch, cfg, DEFAULT_QUADRATURE)
    report = verify.run_suites(list(verify.SUITES), cfg, DEFAULT_QUADRATURE, {"modes": 8})
    assert report.summary["fail"] == 0
    walked = [m for ms in walks for m in ms]
    assert set(range(1, 9)) <= set(walked)
    assert len(walked) == len(set(walked)), walks


def _walk_two_sides(monkeypatch, cfg, spec):
    walks = _count_walks(monkeypatch, cfg, spec)
    modes = [Mode(m, branch) for m in (1, 2) for branch in Branch]
    for _ in range(2):
        quadrature._basis_side(modes, [1.0] * len(modes), cfg, spec)
    return walks


def test_no_memo_outlives_a_run(monkeypatch):
    cfg, spec = SpectralConfig(-2.5, 0.75, 2.2), QuadratureSpec(panels=6, nodes_per_panel=5)
    assert _walk_two_sides(monkeypatch, cfg, spec) == [[1, 2], [1, 2]]
    verify.run_suites(["orthonormality"], cfg, spec, {"modes": 2})
    assert quadrature._WAVE_MEMO.get() is None
    assert _walk_two_sides(monkeypatch, cfg, spec) == [[1, 2], [1, 2]]


def test_no_memo_outlives_a_failed_run(monkeypatch):
    cfg, spec = SpectralConfig(-2.5, 0.75, 2.2), QuadratureSpec(panels=6, nodes_per_panel=5)
    with pytest.raises(KeyError):
        verify.run_suites(["eigenvalues", "no-such-suite"], cfg, spec, {"modes": 2})
    assert quadrature._WAVE_MEMO.get() is None
    assert _walk_two_sides(monkeypatch, cfg, spec) == [[1, 2], [1, 2]]


def test_memo_rows_are_read_only():
    cfg = SpectralConfig(7.5, 10.3, 0.5)
    with quadrature._wave_memo():
        [(_, cos_row, sin_row)] = quadrature._grid_waves(cfg, DEFAULT_QUADRATURE, [3])
        for row in (cos_row, sin_row):
            with pytest.raises(ValueError):
                row[0] = 1.0
        # a later call reads the same, unchanged rows
        [(_, again, _)] = quadrature._grid_waves(cfg, DEFAULT_QUADRATURE, [3])
        assert again is cos_row


configs = st.builds(
    lambda a, length, k: SpectralConfig(a, a + length, k),
    st.one_of(st.floats(-10.0, 10.0), st.floats(-1e6, 1e6)),
    st.floats(1e-3, 20.0),
    st.floats(1e-2, 1e2),
)
rules = st.builds(QuadratureSpec, panels=st.integers(1, 12), nodes_per_panel=st.integers(2, 12))
# a small pool makes the lists overlap; large indices stay in reach
mode_lists = st.lists(st.one_of(st.integers(1, 12), st.integers(1, 10**6)), max_size=40)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cfgs=st.lists(configs, min_size=1, max_size=2),
       specs=st.lists(rules, min_size=1, max_size=2))
def test_memo_rows_equal_a_fresh_block_row(data, cfgs, specs):
    calls = data.draw(st.lists(st.tuples(st.sampled_from(cfgs), st.sampled_from(specs), mode_lists),
                               min_size=1, max_size=5))
    with quadrature._wave_memo():
        for cfg, spec, ms in calls:
            nodes, _ = composite_rule(cfg, spec)
            rows = quadrature._grid_waves(cfg, spec, ms)
            assert len(rows) == len(ms)
            for m, (omega, cos_row, sin_row) in zip(ms, rows):
                [want], [want_cos], [want_sin] = spectral._basis_block(cfg, [m], nodes)
                assert np.float64(omega).tobytes() == np.float64(want).tobytes()
                assert cos_row.tobytes() == want_cos.tobytes() and sin_row.tobytes() == want_sin.tobytes(), m
