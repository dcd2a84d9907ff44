import functools
import math
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import probsense
from probsense.pbit import (
    LFSR_PERIOD,
    LFSR_WORD_BITS,
    LFSR_TAP_MASK,
    TELEGRAPH_BLOCK,
    LfsrState,
    PNeuronConfig,
    activation_probability,
    estimate_retention,
    iid_decisions,
    lfsr_from_seed,
    lfsr_word_uniforms,
    telegraph_run,
    telegraph_tick_states,
    v_ref_for_min_rate,
    _lfsr_cycle,
    _lfsr_step,
)


# Reference oracles: the scalar twins of the LFSR word stream,
# `activation_probability`, `iid_decisions` and the telegraph's law, the loop
# that built the LFSR tables and the 16-bit gather that built each LFSR word.
def lfsr_next(s: LfsrState) -> tuple[int, LfsrState]:
    """Emit one output bit (register LSB) and shift with taps 16,15,13,4."""
    return s.register & 1, LfsrState(_lfsr_step(s.register))


def _logistic_oracle(z: float) -> float:
    """sigma(z) through libm's exp; 0.0 where exp(-z) overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:
        return 0.0


@functools.cache
def _lfsr_cycle_loop():
    """(bits, index, registers) of the cycle from register 1, one step at a time."""
    regs = np.empty(LFSR_PERIOD, dtype=np.uint32)
    r = 1
    for i in range(LFSR_PERIOD):
        regs[i] = r
        r = (r >> 1) | ((int.bit_count(r & LFSR_TAP_MASK) & 1) << 15)
    assert r == 1, "LFSR cycle did not close"
    index = np.zeros(0x10000, dtype=np.int64)
    index[regs] = np.arange(LFSR_PERIOD)
    return (regs & 1).astype(np.uint8), index, regs


def _lfsr_word_uniforms_gather(s: LfsrState, n: int) -> tuple[np.ndarray, LfsrState]:
    """Reference for `lfsr_word_uniforms`: each word gathers its 16 output bits."""
    bits, index, regs = _lfsr_cycle_loop()
    start = int(index[s.register])
    pos = (start + np.arange(n, dtype=np.int64)[:, None] * LFSR_WORD_BITS
           + np.arange(LFSR_WORD_BITS, dtype=np.int64)[None, :]) % LFSR_PERIOD
    words = (bits[pos].astype(np.uint32)
             << np.arange(LFSR_WORD_BITS, dtype=np.uint32)).sum(axis=1)
    u = words.astype(np.float64) / 65536.0
    end = (start + n * LFSR_WORD_BITS) % LFSR_PERIOD
    return u, LfsrState(int(regs[end]))


def pbit_decide_iid(p: float, s: LfsrState) -> tuple[int, LfsrState]:
    """One Bernoulli(p) decision from the LFSR word stream."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    u, s = lfsr_word_uniforms(s, 1)
    return int(u[0] < p), s


def _telegraph_loop(p, dt_s, tau_s, rng, factor=1):
    """Reference telegraph: one scalar loop of the chain's law over the steps.

    Same contract and generator use as `telegraph_run` (one draw for the
    start state from p[0], then one uniform per later step), with `_telegraph`'s
    arguments. The per-segment thresholds a and b are computed with the
    kernel's float operations, so the states match it byte for byte.
    """
    p = np.asarray(p, dtype=np.float64)
    n = (p.size - 1) * factor + 1
    s = 1 if rng.random() < p[0] else 0
    with np.errstate(divide="ignore", over="ignore"):
        lam = np.exp(-(dt_s / tau_s / 2.0) / ((1.0 - p) * p))
    a = (1.0 - lam) * p
    b = (a + lam).tolist()
    a = a.tolist()
    out = np.empty(n, dtype=np.uint8)
    out[0] = s
    for step, u in enumerate(rng.random(n - 1).tolist(), start=1):
        seg = (step - 1) // factor + 1
        if u < a[seg]:
            s = 1
        elif u >= b[seg]:
            s = 0
        out[step] = s
    return out


def _held_drive(p, factor):
    """p held over every step of the run: step 0 sees p[0] and step s >= 1
    p[(s - 1) // factor + 1], one float64 per step."""
    p = np.asarray(p, dtype=np.float64)
    held = np.empty((p.size - 1) * factor + 1)
    held[0] = p[0]
    held[1:].reshape(-1, factor)[:] = p[1:, None]
    return held


class TestActivationProbability:
    def test_midpoint(self):
        cfg = PNeuronConfig(beta=10.0, v_ref_v=0.3)
        assert activation_probability(0.3, cfg) == 0.5

    def test_logistic_value(self):
        # sigma(4 * 0.5) = sigma(2) by closed-form evaluation
        cfg = PNeuronConfig(beta=4.0, v_ref_v=0.0)
        assert activation_probability(0.5, cfg) == pytest.approx(0.880797, abs=1e-6)

    def test_saturates_to_one(self):
        cfg = PNeuronConfig(beta=10.0, v_ref_v=0.0)
        assert activation_probability(100.0, cfg) == 1.0

    def test_monotone_in_v_in(self):
        cfg = PNeuronConfig()
        v = np.linspace(-2, 2, 401)
        p = activation_probability(v, cfg)
        assert np.all(np.diff(p) > 0)

    def test_decreasing_in_v_ref(self):
        p_lo = activation_probability(0.1, PNeuronConfig(v_ref_v=0.0))
        p_hi = activation_probability(0.1, PNeuronConfig(v_ref_v=0.5))
        assert p_hi < p_lo

    def test_min_rate_at_zero_drive(self):
        cfg = PNeuronConfig(beta=10.0, v_ref_v=v_ref_for_min_rate(0.07, 10.0))
        assert activation_probability(0.0, cfg) == pytest.approx(0.07, rel=1e-12)
        assert cfg.min_rate == pytest.approx(0.07, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            activation_probability(np.nan, PNeuronConfig())

    # numpy's vectorized exp may differ from libm's by an ulp, so the oracle
    # is matched to a few float64 ulps (relative, or absolute among the
    # subnormals), not bit for bit.
    RTOL = 4 * np.finfo(float).eps
    ATOL = 4 * np.finfo(float).smallest_subnormal

    @given(st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=64),
           st.floats(0.01, 10.0), st.floats(-1.0, 1.0))
    def test_matches_scalar_oracle(self, v, beta, v_ref):
        cfg = PNeuronConfig(beta=beta, v_ref_v=v_ref)
        expected = [_logistic_oracle(beta * (x - v_ref)) for x in v]
        np.testing.assert_allclose(activation_probability(np.array(v), cfg), expected,
                                   rtol=self.RTOL, atol=self.ATOL)
        np.testing.assert_allclose([activation_probability(x, cfg) for x in v], expected,
                                   rtol=self.RTOL, atol=self.ATOL)

    def test_exact_values(self):
        cfg = PNeuronConfig(beta=10.0, v_ref_v=0.3)
        assert activation_probability(np.array([0.3, 100.0]), cfg).tolist() == [0.5, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert activation_probability(-1e3, cfg) == 0.0
            assert activation_probability(np.full(3, -1e3), cfg).tolist() == [0.0] * 3

    def test_huge_finite_drive_gives_the_limit(self):
        # beta * (v - v_ref) overflows to +-inf, whose p is exactly 1 or 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = activation_probability(np.array([1e308, -1e308]), PNeuronConfig())
            assert p.tolist() == [1.0, 0.0]
            cfg = PNeuronConfig(v_ref_v=-1e308)
            assert activation_probability(1e308, cfg) == 1.0

    def test_return_types(self):
        cfg = PNeuronConfig()
        assert type(activation_probability(0.1, cfg)) is float
        assert type(activation_probability(np.float64(0.1), cfg)) is float
        assert type(activation_probability(np.array(0.1), cfg)) is np.float64
        p = activation_probability([0.1, 0.2], cfg)
        assert isinstance(p, np.ndarray) and p.shape == (2,) and p.dtype == np.float64
        v = np.linspace(0.0, 1.0, 5)
        v0 = v.copy()
        activation_probability(v, cfg)
        assert np.array_equal(v, v0)  # the input is not overwritten
        assert type(cfg.min_rate) is float

    def test_cli_import_needs_no_scipy(self):
        src = str(Path(probsense.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, probsense.cli; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestLfsr:
    def test_zero_register_rejected(self):
        with pytest.raises(ValueError):
            LfsrState(0)

    def test_period_is_65535_from_ace1(self):
        s = LfsrState(0xACE1)
        for steps in range(1, LFSR_PERIOD + 1):
            _, s = lfsr_next(s)
            if s.register == 0xACE1:
                break
        assert steps == LFSR_PERIOD

    def test_visits_all_nonzero_states_once(self):
        s = LfsrState(1)
        seen = np.zeros(0x10000, dtype=bool)
        for _ in range(LFSR_PERIOD):
            assert not seen[s.register]
            seen[s.register] = True
            _, s = lfsr_next(s)
        assert seen[1:].sum() == LFSR_PERIOD

    def test_ones_per_period(self):
        s = LfsrState(0xACE1)
        ones = 0
        for _ in range(LFSR_PERIOD):
            bit, s = lfsr_next(s)
            ones += bit
        assert ones == 32768

    def test_deterministic(self):
        def run(n):
            s = LfsrState(0xACE1)
            bits = []
            for _ in range(n):
                b, s = lfsr_next(s)
                bits.append(b)
            return bits

        assert run(500) == run(500)

    def test_word_path_matches_bit_stepping(self):
        # the cached full-period word generator must equal 16x lfsr_next
        s0 = lfsr_from_seed(987654321)
        u_fast, s_fast = lfsr_word_uniforms(s0, 300)
        s = s0
        u_slow = np.empty(300)
        for i in range(300):
            word = 0
            for j in range(16):
                bit, s = lfsr_next(s)
                word |= bit << j
            u_slow[i] = word / 65536.0
        assert np.array_equal(u_fast, u_slow)
        assert s_fast.register == s.register

    def test_cycle_tables_match_bit_stepping(self):
        regs = np.empty(LFSR_PERIOD, dtype=np.uint32)
        bits = np.empty(LFSR_PERIOD, dtype=np.uint8)
        s = LfsrState(1)
        for i in range(LFSR_PERIOD):
            regs[i] = s.register
            bits[i], s = lfsr_next(s)
        index = np.zeros(0x10000, dtype=np.int64)
        index[regs] = np.arange(LFSR_PERIOD)
        got_index, got_regs = _lfsr_cycle()
        assert np.array_equal(got_regs, regs)
        assert np.array_equal(got_regs & 1, bits)
        assert np.array_equal(got_index, index)
        # every register and cycle position fits in 16 bits
        assert (got_regs.dtype, got_index.dtype) == (np.uint16, np.uint16)

    def test_jump_build_matches_loop_oracle(self):
        # a fresh build, not the cached tables
        got_index, got_regs = _lfsr_cycle.__wrapped__()
        bits, index, regs = _lfsr_cycle_loop()
        for got, want in ((got_index, index), (got_regs, regs)):
            assert got.dtype == np.uint16 and got.shape == want.shape
            assert np.array_equal(got, want)
        assert np.array_equal(got_regs & 1, bits)

    @given(
        # registers near the cycle end make the word reads wrap mod LFSR_PERIOD
        register=st.one_of(
            st.integers(0, 2**40).map(lambda seed: lfsr_from_seed(seed).register),
            st.integers(LFSR_PERIOD - 4 * LFSR_WORD_BITS, LFSR_PERIOD - 1).map(
                lambda position: int(_lfsr_cycle_loop()[2][position]))),
        n=st.sampled_from([0, 1, 4095, 4096, 4097, 70_000]),
    )
    @settings(max_examples=60, deadline=None)
    def test_word_uniforms_match_gather_oracle(self, register, n):
        u, s = lfsr_word_uniforms(LfsrState(register), n)
        u_ref, s_ref = _lfsr_word_uniforms_gather(LfsrState(register), n)
        assert u.dtype == u_ref.dtype and u.tobytes() == u_ref.tobytes()
        assert s == s_ref

    def test_uniforms_strictly_inside_unit_interval(self):
        u, _ = lfsr_word_uniforms(LfsrState(1), 70_000)
        assert u.min() > 0.0
        assert u.max() < 1.0

    @pytest.mark.parametrize("n", [-1, -3, 2.5, 3.0, "3", None])
    def test_word_count_must_be_a_non_negative_integer(self, n):
        # -3 used to return no uniforms and move the register 48 steps back
        with pytest.raises(ValueError, match="n must be a non-negative integer"):
            lfsr_word_uniforms(LfsrState(1), n)
        assert lfsr_word_uniforms(LfsrState(1), np.int64(3))[1] == \
            lfsr_word_uniforms(LfsrState(1), 3)[1]


class TestIidDecisions:
    def test_degenerate_probabilities(self):
        s = lfsr_from_seed(7)
        for _ in range(100):
            bit, s = pbit_decide_iid(0.0, s)
            assert bit == 0
        for _ in range(100):
            bit, s = pbit_decide_iid(1.0, s)
            assert bit == 1

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            pbit_decide_iid(1.5, lfsr_from_seed(0))

    @pytest.mark.parametrize("p", [[np.nan, 0.5], [0.5, np.nan], [0.5, -0.1], [1.5], [np.inf]])
    def test_vectorized_rejects_nan_and_out_of_range(self, p):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            iid_decisions(np.array(p), lfsr_from_seed(0))

    def test_vectorized_matches_scalar_loop(self):
        p = np.random.default_rng(1).random(500)
        bits, end = iid_decisions(p, lfsr_from_seed(9))
        s = lfsr_from_seed(9)
        ref = []
        for pi in p.tolist():
            bit, s = pbit_decide_iid(pi, s)
            ref.append(bit)
        assert bits.tolist() == ref
        assert end == s

    def test_mean_at_half(self):
        bits, _ = iid_decisions(np.full(100_000, 0.5), lfsr_from_seed(3))
        assert 0.495 <= bits.mean() <= 0.505

    @pytest.mark.parametrize("lag", [1, 2, 3, 4, 5])
    def test_autocorrelation_small(self, lag):
        bits, _ = iid_decisions(np.full(100_000, 0.5), lfsr_from_seed(11))
        x = bits.astype(np.float64)
        rho = np.corrcoef(x[:-lag], x[lag:])[0, 1]
        assert abs(rho) < 0.01

    def test_mean_tracks_p(self):
        for p in (0.1, 0.3, 0.7, 0.9):
            bits, _ = iid_decisions(np.full(20_000, p), lfsr_from_seed(int(p * 100)))
            assert bits.mean() == pytest.approx(p, abs=0.015)

    def test_deterministic_per_seed(self):
        a, _ = iid_decisions(np.full(1000, 0.4), lfsr_from_seed(5))
        b, _ = iid_decisions(np.full(1000, 0.4), lfsr_from_seed(5))
        assert np.array_equal(a, b)


class TestTelegraph:
    CFG = PNeuronConfig(tau_s=500e-6)

    # drives: random, constant (incl. p in {0, 1, 1e-9}), ramped, saturated
    _drive = st.one_of(
        st.tuples(st.just("random"), st.floats(0.0, 1.0)),
        st.tuples(st.just("const"), st.sampled_from([0.0, 1e-9, 0.04, 0.5, 0.98, 1.0])),
        st.tuples(st.just("const"), st.floats(0.0, 1.0)),
        st.tuples(st.just("ramp"), st.floats(0.0, 1.0)),
        st.tuples(st.just("saturated"), st.floats(0.0, 1.0)),
    )

    @staticmethod
    def _make_drive(kind, x, n, rng, start=None):
        """A drive of n entries; start, if not None, is p[0], which pins the
        start state drawn from it."""
        if kind == "random":
            p = rng.random(n) ** (1.0 + 4.0 * x)
        elif kind == "const":
            p = np.full(n, x)
        elif kind == "ramp":
            p = np.linspace(x, 1.0 - x, n)
        else:
            p = np.where(rng.random(n) < x, 1.0, 0.0)
        if start is not None:
            p[0] = start
        return p

    @given(
        drive=_drive,
        n=st.one_of(st.integers(1, 3), st.integers(1, 2000)),
        factor=st.sampled_from([1, 7, 50]),
        # rare flips to a step far coarser than tau: the law is exact at any dt
        dt_s=st.sampled_from([1e-11, 1e-9, 1e-6, 5e-6, 50e-6, 1e-3, 1.0]),
        tau_s=st.sampled_from([500e-6, 1e-3, 2.3e-3]),
        start=st.sampled_from([None, 0.0, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_run_matches_loop_oracle(self, drive, n, factor, dt_s, tau_s, start, seed):
        p = self._make_drive(*drive, n, np.random.default_rng(seed), start)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        out = telegraph_run(p, dt_s, PNeuronConfig(tau_s=tau_s), rng_a, factor=factor)
        ref = _telegraph_loop(p, dt_s, tau_s, rng_b, factor)
        assert out.dtype == np.uint8 and out.tobytes() == ref.tobytes()
        assert rng_a.random() == rng_b.random()

    @staticmethod
    def _block_drive(kind, segments, factor, rng):
        """p of segments + 1 entries: "sine" sweeps both saturated ends,
        "saturated" is p = 1 or 0 at random, and "alternating" is saturated
        OFF and ON in alternate blocks, so the state flips at a block's first
        step."""
        i = np.arange(segments + 1)
        if kind == "sine":
            p = np.clip(np.sin(i * factor / 997.0) * 0.6 + 0.5, 0.0, 1.0)
            p[rng.random(p.size) < 0.01] = 0.5
        elif kind == "saturated":
            p = np.where(rng.random(i.size) < 0.5, 1.0, 0.0)
        else:
            p = np.where((i - 1) // (TELEGRAPH_BLOCK // factor) % 2, 0.995, 0.005)
        return p

    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (3, 17)])
    @pytest.mark.parametrize("factor", [1, 7, 50])
    @pytest.mark.parametrize("kind", ["sine", "saturated", "alternating"])
    @pytest.mark.parametrize("start", [None, 1])
    def test_run_matches_loop_oracle_at_block_boundaries(self, blocks, extra, factor, kind,
                                                         start):
        # blocks whole blocks of TELEGRAPH_BLOCK // factor segments after p[0],
        # plus extra segments; the blocks start at step 1, and the state
        # carries across them. start, if not None, pins p[0]
        segments = blocks * (TELEGRAPH_BLOCK // factor) + extra
        p = self._block_drive(kind, segments, factor, np.random.default_rng(segments))
        if start is not None:
            p[0] = start
        rng_a, rng_b = np.random.default_rng(factor), np.random.default_rng(factor)
        out = telegraph_run(p, 5e-5, self.CFG, rng_a, factor=factor)
        ref = _telegraph_loop(p, 5e-5, self.CFG.tau_s, rng_b, factor)
        assert out.size == segments * factor + 1
        assert out.tobytes() == ref.tobytes()
        assert rng_a.random() == rng_b.random()

    def test_uniforms_drawn_per_block_are_one_stream(self):
        n = 3 * TELEGRAPH_BLOCK + 17
        whole, blocked = np.random.default_rng(9), np.random.default_rng(9)
        buf = np.empty(TELEGRAPH_BLOCK)
        parts = []
        for lo in range(0, n, TELEGRAPH_BLOCK):
            m = min(TELEGRAPH_BLOCK, n - lo)
            parts.append(blocked.random(m, out=buf[:m]).copy())
        assert np.concatenate(parts).tobytes() == whole.random(n).tobytes()
        assert blocked.random() == whole.random()

    @pytest.mark.parametrize("p", [[0.5, np.nan, np.nan, 2.0, -1.0], [np.nan], [0.5, np.nan],
                                   [0.5, 1.0 + 1e-12], [-1e-300, 0.5]])
    @pytest.mark.parametrize("prefix", [None, 0])
    def test_run_rejects_nan_and_out_of_range(self, p, prefix):
        # prefix 0: a valid p[0], so the bad entry is not the one the start
        # state is drawn from
        rng = np.random.default_rng(0)
        drive = np.array(p if prefix is None else [prefix, *p], dtype=np.float64)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            telegraph_run(drive, 5e-6, self.CFG, rng)
        assert rng.random() == np.random.default_rng(0).random()  # no draw was taken

    @pytest.mark.parametrize("factor", [1, 7, 50])
    @pytest.mark.parametrize("dt_s, tau_s", [(1e-300, 500e-6), (10e-6, 500e-6),
                                             (1e300, 500e-6), (10e-6, 1e308)])
    def test_saturated_segments_are_exact(self, factor, dt_s, tau_s):
        # at p in {0, 1} lam = exp(-dt / 0) is 0, so every step of the segment
        # is in state p, the start state too; computing lam warns of nothing,
        # at a step too short or too long for dt / tau to be a normal float,
        # or at a tau whose double overflows (p (1 - p) * 2 tau was NaN there)
        cfg = PNeuronConfig(tau_s=tau_s)
        p = np.where(np.random.default_rng(factor).random(2 * TELEGRAPH_BLOCK // factor + 9)
                     < 0.5, 1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = telegraph_run(p, dt_s, cfg, np.random.default_rng(1), factor=factor)
            ticks = [telegraph_tick_states(x, dt_s, cfg, factor, 5000,
                                           np.random.default_rng(1)) for x in (0.0, 1.0)]
        assert out.tobytes() == _held_drive(p, factor).astype(np.uint8).tobytes()
        assert not ticks[0].any() and ticks[1].all()

    def test_run_empty_drive(self):
        for factor in (1, 50):
            rng = np.random.default_rng(0)
            with pytest.raises(ValueError, match="p is empty"):
                telegraph_run(np.empty(0), 5e-6, self.CFG, rng, factor=factor)
            assert rng.random() == np.random.default_rng(0).random()  # no draw was taken

    @pytest.mark.parametrize("factor", [0, -1, 2.5, np.float64(2.0), "2", None])
    def test_factor_must_be_a_positive_integer(self, factor):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="factor must be a positive integer"):
            telegraph_run(np.full(3, 0.5), 5e-6, self.CFG, rng, factor=factor)
        assert rng.random() == np.random.default_rng(0).random()

    def test_factor_is_keyword_only(self):
        # the fifth positional slot was the start state: it is gone, and a
        # factor cannot be passed there by mistake
        with pytest.raises(TypeError):
            telegraph_run(np.full(3, 0.5), 5e-6, self.CFG, np.random.default_rng(0), 2)

    @given(
        factor=st.one_of(st.integers(1, 64), st.sampled_from([655, 32768, 40000])),
        segments=st.one_of(st.integers(0, 3), st.tuples(st.integers(1, 2), st.integers(-1, 1))),
        kind=st.sampled_from(["random", "pinned", "const"]),
        dt_s=st.sampled_from([2e-9, 1e-6, 5e-6, 10e-6, 50e-6, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150)
    def test_held_factor_matches_held_drive(self, factor, segments, kind, dt_s, seed):
        # p per segment with factor steps each against p held over every step
        # (factor 1): segments is a count, or (j, d) for j whole blocks plus d
        # segments, so the run ends on either side of a block boundary
        if isinstance(segments, tuple):
            j, d = segments
            segments = j * max(1, TELEGRAPH_BLOCK // factor) + d
        rng = np.random.default_rng(seed)
        ends = np.array([0.0, 1.0, 0.995, 0.005])
        if kind == "random":
            p = rng.random(segments + 1)
            p[rng.random(p.size) < 0.3] = rng.choice(ends)
        elif kind == "pinned":
            p = rng.choice(ends, segments + 1)
        else:
            p = np.full(segments + 1, rng.choice(ends))
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        out = telegraph_run(p, dt_s, self.CFG, rng_a, factor=factor)
        ref = telegraph_run(_held_drive(p, factor), dt_s, self.CFG, rng_b)
        assert out.size == segments * factor + 1
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("dt_s", [100e-6, 500e-6, 5e-3])
    @pytest.mark.parametrize("entry", ["run", "ticks"])
    def test_coarse_step_keeps_the_law(self, dt_s, entry):
        # dt = tau / 5, tau and 10 tau, per step or per tick of 10 steps: the
        # ON fraction is p and the lag-1 correlation of the states is lam,
        # however coarse the step
        p, n = 0.3, 400_000
        rng = np.random.default_rng(8)
        if entry == "run":
            states = telegraph_run(np.full(n, p), dt_s, self.CFG, rng)
        else:
            states = telegraph_tick_states(p, dt_s / 10, self.CFG, 10, n, rng)
        lam = math.exp(-dt_s / (2 * self.CFG.tau_s * p * (1 - p)))
        x = states.astype(np.float64)
        assert x.mean() == pytest.approx(p, abs=0.005)
        assert np.corrcoef(x[:-1], x[1:])[0, 1] == pytest.approx(lam, abs=0.01)

    def test_threads_keep_their_own_block_buffers(self):
        # four threads at once, each drawing into the block buffers its
        # thread keeps, give the states of one run after another; a short
        # switch interval interleaves them within their blocks
        drives = [np.random.default_rng(k).random(1500) for k in range(4)]

        def run(k):
            rng = np.random.default_rng(k)
            return telegraph_run(drives[k], 1e-5, self.CFG, rng, factor=50).tobytes()

        expect = [run(k) for k in range(4)]
        same = [[] for _ in range(4)]

        def work(k):
            for _ in range(5):
                same[k].append(run(k) == expect[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert same == [[True] * 5] * 4

    def test_dwell_mean_at_half(self):
        # >= 1e5 dwells: estimator converges well inside the 5 % band
        rng = np.random.default_rng(5)
        states = telegraph_run(np.full(6_000_000, 0.5), 10e-6, self.CFG, rng)
        n_dwells = int((np.diff(states) != 0).sum()) + 1
        assert n_dwells >= 100_000
        est = estimate_retention(states, 10e-6)
        assert est == pytest.approx(500e-6, rel=0.05)

    def test_stationary_fraction(self):
        states = telegraph_tick_states(
            0.8, 20e-6, self.CFG, steps_per_tick=25, n_ticks=1_000_000,
            rng=np.random.default_rng(7),
        )
        assert states.mean() == pytest.approx(0.8, abs=0.01)

    def test_on_fraction_reaches_p_near_saturation(self):
        # p = 0.998 at dt = tau / 50: a per-step flip probability dt / dwell
        # would reach 1 from OFF and cap the ON fraction at about 0.990
        p, dt, n = 0.998, 10e-6, 1_000_000
        states = telegraph_run(np.full(n, p), dt, self.CFG, np.random.default_rng(17))
        assert states.mean() == pytest.approx(p, abs=0.002)
        ticks = telegraph_tick_states(p, dt, self.CFG, 50, n // 50, np.random.default_rng(17))
        assert ticks.mean() == pytest.approx(p, abs=0.002)

    @pytest.mark.parametrize("x_min", [0.04, 0.003, 0.001])
    @pytest.mark.parametrize("factor", [10, 50, 100])
    def test_zero_drive_on_fraction_is_the_minimum_rate(self, x_min, factor):
        # the p-neuron at zero drive, read at the ticks of a 2 kHz ADC grid
        # through either entry point: X does not move with the upsampling
        # factor (a per-step flip probability dt / dwell made every ON dwell
        # last at least one step: X = 0.003 and 0.001 read about 0.0097, and
        # the default X = 0.04 read 0.0488 at factor 10). The ticks are all
        # but independent, so the bound is 0.0005 or 4 standard errors
        cfg = replace(self.CFG, v_ref_v=v_ref_for_min_rate(x_min, self.CFG.beta))
        p, dt, ticks = activation_probability(0.0, cfg), 1.0 / (2000.0 * factor), 200_000
        bound = max(0.0005, 4 * math.sqrt(x_min * (1 - x_min) / ticks))
        run = telegraph_run(np.full(ticks, p), dt, cfg, np.random.default_rng(factor),
                            factor=factor)[::factor]
        tick = telegraph_tick_states(p, dt, cfg, factor, ticks, np.random.default_rng(factor))
        assert run.mean() == pytest.approx(x_min, abs=bound)
        assert tick.mean() == pytest.approx(x_min, abs=bound)

    @pytest.mark.parametrize("p", [np.nan, -0.1, 1.1])
    def test_tick_states_reject_p_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            telegraph_tick_states(p, 10e-6, self.CFG, 50, 1000, np.random.default_rng(0))

    @pytest.mark.parametrize("dt_s", [0.0, -1e-6, np.nan, np.inf])
    def test_tick_states_check_dt_as_run_does(self, dt_s):
        with pytest.raises(ValueError, match="dt_s must be positive and finite"):
            telegraph_tick_states(0.5, dt_s, self.CFG, 50, 1000, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dt_s must be positive and finite"):
            telegraph_run(np.full(3, 0.5), dt_s, self.CFG, np.random.default_rng(0))

    @pytest.mark.parametrize("name, value", [("steps_per_tick", 0), ("steps_per_tick", 2.5),
                                             ("steps_per_tick", "50"), ("n_ticks", -3),
                                             ("n_ticks", 2.5)])
    def test_tick_states_check_step_counts(self, name, value):
        # n_ticks = -3 used to end in an IndexError
        kwargs = {"steps_per_tick": 50, "n_ticks": 1000, name: value}
        with pytest.raises(ValueError, match=name):
            telegraph_tick_states(0.5, 10e-6, self.CFG, rng=np.random.default_rng(0), **kwargs)

    @pytest.mark.parametrize("seed", range(4))
    def test_tick_states_dwell_longer_than_the_run(self, seed):
        # at tau >> dt no flip occurs in 50 k steps (dwells sampled by count
        # once wrapped past 2**63 and flipped the states anyway)
        cfg = PNeuronConfig(tau_s=1e15)
        states = telegraph_tick_states(0.5, 10e-6, cfg, 50, 1000, np.random.default_rng(seed))
        assert states.size == 1000 and states.min() == states.max()

    def test_tick_states_zero_ticks(self):
        states = telegraph_tick_states(0.5, 10e-6, self.CFG, 50, 0, np.random.default_rng(0))
        assert states.dtype == np.uint8 and states.size == 0

    @pytest.mark.parametrize("p", [0.0, 0.04, 0.5, 0.998, 1.0])
    @pytest.mark.parametrize("steps_per_tick", [1, 50])
    def test_tick_states_equal_the_kernel_at_tick_spacing(self, p, steps_per_tick):
        # the states at the ticks are the run at step dt * steps_per_tick, on
        # either side of a block boundary
        dt, n = 10e-6, TELEGRAPH_BLOCK + 3
        rngs = [np.random.default_rng(6) for _ in range(3)]
        ticks = telegraph_tick_states(p, dt, self.CFG, steps_per_tick, n, rngs[0])
        run = telegraph_run(np.full(n, p), dt * steps_per_tick, self.CFG, rngs[1])
        ref = _telegraph_loop(np.full(n, p), dt * steps_per_tick, self.CFG.tau_s, rngs[2])
        assert ticks.dtype == np.uint8 and ticks.tobytes() == run.tobytes() == ref.tobytes()
        assert rngs[0].random() == rngs[1].random() == rngs[2].random()

    def test_dwell_distribution_geometric(self):
        # KS distance between empirical dwell steps and the law's geometric
        # dwells: at p = 0.5 a step leaves either state with probability
        # (1 - lam) / 2
        dt = 10e-6
        states = telegraph_run(np.full(3_000_000, 0.5), dt, self.CFG, np.random.default_rng(9))
        edges = np.flatnonzero(np.diff(states) != 0)
        runs = np.diff(np.concatenate([[-1], edges, [states.size - 1]]))
        runs = runs[1:-1]  # drop censored edge dwells
        q = (1.0 - math.exp(-dt / (2 * self.CFG.tau_s * 0.25))) / 2
        kmax = int(runs.max())
        ecdf = np.searchsorted(np.sort(runs), np.arange(1, kmax + 1), side="right") / runs.size
        cdf = 1.0 - (1.0 - q) ** np.arange(1, kmax + 1)
        assert np.max(np.abs(ecdf - cdf)) < 0.02

    def test_asymmetric_dwells(self):
        # dwell means are 2*tau*p (on) and 2*tau*(1-p) (off)
        dt = 2e-6
        p = 0.3
        states = telegraph_run(np.full(4_000_000, p), dt, self.CFG, np.random.default_rng(13))
        edges = np.flatnonzero(np.diff(states) != 0)
        runs = np.diff(np.concatenate([[-1], edges, [states.size - 1]]))
        vals = states[np.concatenate([edges, [states.size - 1]])]
        on = runs[vals == 1].mean() * dt
        off = runs[vals == 0].mean() * dt
        assert on == pytest.approx(2 * self.CFG.tau_s * p, rel=0.05)
        assert off == pytest.approx(2 * self.CFG.tau_s * (1 - p), rel=0.05)

    def test_deterministic_per_seed(self):
        p = np.full(5000, 0.4)
        a = telegraph_run(p, 10e-6, self.CFG, np.random.default_rng(3))
        b = telegraph_run(p, 10e-6, self.CFG, np.random.default_rng(3))
        assert np.array_equal(a, b)

    @given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20)
    def test_run_states_binary(self, p, seed):
        out = telegraph_run(np.full(2000, p), 10e-6, self.CFG, np.random.default_rng(seed))
        assert set(np.unique(out)) <= {0, 1}


class TestEstimateRetention:
    def test_alternating(self):
        assert estimate_retention([0, 1, 0, 1, 0, 1], 1e-6) == pytest.approx(1e-6)

    def test_two_runs_of_three(self):
        assert estimate_retention([0, 0, 0, 1, 1, 1], 1e-6) == pytest.approx(3e-6)

    def test_constant_sequence_rejected(self):
        with pytest.raises(ValueError, match="no transitions"):
            estimate_retention([1, 1, 1, 1], 1e-6)

    @pytest.mark.parametrize("dt_s", [0.0, -1e-6, float("nan")])
    def test_dt_must_be_positive(self, dt_s):
        with pytest.raises(ValueError, match="dt_s must be positive"):
            estimate_retention([0, 1, 0, 1], dt_s)

    def test_on_simulated_stream(self):
        cfg = PNeuronConfig(tau_s=200e-6)
        states = telegraph_run(np.full(4_000_000, 0.5), 4e-6, cfg, np.random.default_rng(17))
        assert estimate_retention(states, 4e-6) == pytest.approx(200e-6, rel=0.05)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(beta=0.0), dict(tau_s=0.0), dict(source="coin_flip"), dict(v_ref_v=np.inf)],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            PNeuronConfig(**kwargs)

    def test_v_ref_for_min_rate_range(self):
        with pytest.raises(ValueError):
            v_ref_for_min_rate(0.0, 10.0)
