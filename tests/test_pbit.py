import functools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import probsense
from probsense.pbit import (
    DT_RESOLUTION_FACTOR,
    LFSR_PERIOD,
    LFSR_WORD_BITS,
    LFSR_TAP_MASK,
    P_CLAMP,
    LfsrState,
    PNeuronConfig,
    activation_probability,
    estimate_retention,
    iid_decisions,
    lfsr_from_seed,
    lfsr_next,
    lfsr_word_uniforms,
    telegraph_run,
    telegraph_tick_states,
    v_ref_for_min_rate,
    _CYCLE,
    _LfsrCycle,
    _flip_probs,
)


# Reference oracles: the scalar twins of `activation_probability`,
# `iid_decisions` and `telegraph_run`, the loop that built the LFSR tables, the
# 16-bit gather that built each LFSR word and the three-array flip setup of
# `telegraph_run`.
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


@dataclass(eq=False)
class TelegraphState:
    state: int
    time_in_state_s: float = 0.0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self):
        if self.state not in (0, 1):
            raise ValueError(f"state must be 0 or 1, got {self.state}")


def telegraph_step(ts: TelegraphState, p: float, dt_s: float, cfg: PNeuronConfig) -> TelegraphState:
    """Advance the telegraph by one step of dt_s at drive probability p.

    dt_s must resolve both dwell times (dt <= min dwell / 10). The flip
    probabilities use the same float operations as `telegraph_run`.
    """
    if dt_s <= 0:
        raise ValueError(f"dt_s must be positive, got {dt_s}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    pc = min(max(p, P_CLAMP), 1.0 - P_CLAMP)
    min_dwell = 2.0 * cfg.tau_s * min(pc, 1.0 - pc)
    if dt_s > min_dwell / DT_RESOLUTION_FACTOR:
        raise ValueError(
            f"dt too coarse: {dt_s:.3g} s exceeds min dwell {min_dwell:.3g} s / "
            f"{DT_RESOLUTION_FACTOR}"
        )
    q01 = dt_s / ((1.0 - pc) * (2.0 * cfg.tau_s))
    q10 = dt_s / (pc * (2.0 * cfg.tau_s))
    q = q10 if ts.state == 1 else q01
    if ts.rng.random() < q:
        return TelegraphState(state=1 - ts.state, time_in_state_s=0.0, rng=ts.rng)
    return TelegraphState(state=ts.state, time_in_state_s=ts.time_in_state_s + dt_s, rng=ts.rng)


def _telegraph_run_loop(p_steps, dt_s, cfg, rng, initial_state=None):
    """Reference telegraph engine: a Python loop that scans for each flip.

    Same contract and generator use as `telegraph_run` (one draw for the
    start state when initial_state is None, then rng.random(n)), with flip
    probabilities capped at 1.
    """
    p_steps = np.asarray(p_steps, dtype=np.float64)
    n = p_steps.size
    if initial_state is None:
        s = 1 if rng.random() < p_steps[0] else 0
    else:
        s = int(initial_state)
    pc = np.clip(p_steps, P_CLAMP, 1.0 - P_CLAMP)
    q01 = np.minimum(dt_s / (2.0 * cfg.tau_s * (1.0 - pc)), 1.0)
    q10 = np.minimum(dt_s / (2.0 * cfg.tau_s * pc), 1.0)
    u = rng.random(n)
    flip0 = u < q01
    flip1 = u < q10
    out = np.empty(n, dtype=np.uint8)
    block = 4096
    i = 0
    while i < n:
        fl = flip1 if s else flip0
        j = i
        flipped = False
        while j < n:
            hi = min(j + block, n)
            k = int(np.argmax(fl[j:hi]))
            if fl[j + k]:
                out[i:j + k] = s
                s ^= 1
                out[j + k] = s
                i = j + k + 1
                flipped = True
                break
            j = hi
        if not flipped:
            out[i:] = s
            break
    return out


def _flip_probs_arrays(p, tau_s, dt_s, cap):
    """(q01, q10) as two fresh arrays from one clipped copy of p."""
    p = np.clip(p, P_CLAMP, 1.0 - P_CLAMP, out=np.empty(np.shape(p)))
    q01 = np.subtract(1.0, p, out=np.empty_like(p))
    q01 *= 2.0 * tau_s
    np.divide(dt_s, q01, out=q01)
    p *= 2.0 * tau_s
    q10 = np.divide(dt_s, p, out=p)
    if cap:
        q01 = np.minimum(q01, 1.0)
        q10 = np.minimum(q10, 1.0)
    return q01, q10


def _telegraph_run_three_arrays(p_steps, dt_s, cfg, rng, initial_state=None):
    """`telegraph_run` with q01, q10 and u all alive at once."""
    p_steps = np.asarray(p_steps, dtype=np.float64)
    n = p_steps.size
    s0 = (1 if rng.random() < p_steps[0] else 0) if initial_state is None else int(initial_state)
    q01, q10 = _flip_probs_arrays(p_steps, cfg.tau_s, dt_s, cap=False)
    u = rng.random(n)
    flip0 = u < q01
    flip1 = u < q10
    nots = np.flatnonzero(flip0 & flip1)
    consts = np.flatnonzero(flip0 ^ flip1)
    h = flip0[consts] ^ (np.searchsorted(nots, consts) & 1)
    flips = np.sort(np.concatenate((nots, consts[h != np.concatenate(([s0], h[:-1]))])))
    runs = np.diff(flips, prepend=0, append=n)
    return np.repeat(((np.arange(flips.size + 1) & 1) ^ s0).astype(np.uint8), runs)


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
        _CYCLE.build()
        assert np.array_equal(_CYCLE.registers, regs)
        assert np.array_equal(_CYCLE.registers & 1, bits)
        assert np.array_equal(_CYCLE.index, index)
        assert (_CYCLE.registers.dtype, _CYCLE.index.dtype) == (regs.dtype, index.dtype)

    def test_jump_build_matches_loop_oracle(self):
        cycle = _LfsrCycle()
        cycle.build()
        bits, index, regs = _lfsr_cycle_loop()
        for got, want in ((cycle.index, index), (cycle.registers, regs)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        assert np.array_equal(cycle.registers & 1, bits)

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
    CFG = PNeuronConfig(tau_s=500e-6, seed=0)

    def test_step_dt_too_coarse_rejected(self):
        ts = TelegraphState(0, 0.0, np.random.default_rng(0))
        # min dwell at p=0.9 is 2*tau*0.1 = 100 us; dt must be <= 10 us
        with pytest.raises(ValueError, match="dt too coarse"):
            telegraph_step(ts, 0.9, 20e-6, self.CFG)

    def test_step_p_must_be_strictly_inside(self):
        ts = TelegraphState(0, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            telegraph_step(ts, 1.0, 1e-6, self.CFG)

    def test_step_time_accounting(self):
        ts = TelegraphState(0, 0.0, np.random.default_rng(12))
        dwell_before = ts.time_in_state_s
        ts2 = telegraph_step(ts, 0.5, 10e-6, self.CFG)
        if ts2.state == ts.state:
            assert ts2.time_in_state_s == dwell_before + 10e-6
        else:
            assert ts2.time_in_state_s == 0.0

    def test_run_matches_step_loop(self):
        p = np.linspace(0.2, 0.8, 2000)
        out = telegraph_run(p, 5e-6, self.CFG, np.random.default_rng(7), initial_state=0)
        ts = TelegraphState(0, 0.0, np.random.default_rng(7))
        seq = np.empty(2000, dtype=np.uint8)
        for i in range(2000):
            ts = telegraph_step(ts, float(p[i]), 5e-6, self.CFG)
            seq[i] = ts.state
        assert np.array_equal(out, seq)

    # drives: random, constant (incl. p in {0, 1, 1e-9}), ramped, saturated;
    # dt spans slow (rare flips) to fast (flip0 & flip1 steps are common)
    _drive = st.one_of(
        st.tuples(st.just("random"), st.floats(0.0, 1.0)),
        st.tuples(st.just("const"), st.sampled_from([0.0, 1e-9, 0.04, 0.5, 0.98, 1.0])),
        st.tuples(st.just("const"), st.floats(0.0, 1.0)),
        st.tuples(st.just("ramp"), st.floats(0.0, 1.0)),
        st.tuples(st.just("saturated"), st.floats(0.0, 1.0)),
    )

    @staticmethod
    def _make_drive(kind, x, n, rng):
        if kind == "random":
            return rng.random(n) ** (1.0 + 4.0 * x)
        if kind == "const":
            return np.full(n, x)
        if kind == "ramp":
            return np.linspace(x, 1.0 - x, n)
        return np.where(rng.random(n) < x, 1.0, 0.0)

    @given(
        drive=_drive,
        n=st.one_of(st.integers(0, 3), st.integers(0, 5000)),
        dt_s=st.sampled_from([1e-9, 1e-6, 5e-6, 50e-6]),
        initial_state=st.sampled_from([None, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_run_matches_loop_oracle(self, drive, n, dt_s, initial_state, seed):
        if initial_state is None and n == 0:
            n = 1
        p = self._make_drive(*drive, n, np.random.default_rng(seed))
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        out = telegraph_run(p, dt_s, self.CFG, rng_a, initial_state)
        ref = _telegraph_run_loop(p, dt_s, self.CFG, rng_b, initial_state)
        assert out.dtype == np.uint8
        assert np.array_equal(out, ref)
        assert rng_a.random() == rng_b.random()

    @given(
        drive=_drive,
        n=st.one_of(st.integers(0, 3), st.integers(0, 5000)),
        # dt 1e-11 keeps flip probabilities below 1 at the P_CLAMP-clipped ends
        dt_s=st.sampled_from([1e-11, 1e-9, 1e-6, 5e-6, 50e-6]),
        tau_s=st.sampled_from([500e-6, 1e-3, 2.3e-3]),
        initial_state=st.sampled_from([None, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_run_matches_three_array_oracle(self, drive, n, dt_s, tau_s, initial_state, seed):
        if initial_state is None and n == 0:
            n = 1
        cfg = PNeuronConfig(tau_s=tau_s)
        p = self._make_drive(*drive, n, np.random.default_rng(seed))
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        out = telegraph_run(p, dt_s, cfg, rng_a, initial_state)
        ref = _telegraph_run_three_arrays(p, dt_s, cfg, rng_b, initial_state)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
        assert rng_a.random() == rng_b.random()

    @given(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([1e-9, 1e-6, 20e-6, 1e-3]),
           st.sampled_from([500e-6, 3.7e-4, 2.3e-3]))
    def test_scalar_flip_probs_match_arrays(self, p, dt_s, tau_s):
        q01, q10 = _flip_probs_arrays(p, tau_s, dt_s, cap=True)
        assert _flip_probs(p, tau_s, dt_s) == (float(q01), float(q10))

    def test_run_empty_drive(self):
        with pytest.raises(ValueError, match="p_steps"):
            telegraph_run(np.empty(0), 5e-6, self.CFG, np.random.default_rng(0))
        for s0 in (0, 1):
            out = telegraph_run(np.empty(0), 5e-6, self.CFG, np.random.default_rng(0), s0)
            assert out.dtype == np.uint8 and out.size == 0

    def test_run_base_resolution_check(self):
        with pytest.raises(ValueError, match="dt too coarse"):
            telegraph_run(np.full(10, 0.5), 100e-6, self.CFG, np.random.default_rng(0))

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

    def test_dwell_distribution_geometric(self):
        # KS distance between empirical dwell steps and Geometric(dt/tau)
        dt = 10e-6
        states = telegraph_run(np.full(3_000_000, 0.5), dt, self.CFG, np.random.default_rng(9))
        edges = np.flatnonzero(np.diff(states) != 0)
        runs = np.diff(np.concatenate([[-1], edges, [states.size - 1]]))
        runs = runs[1:-1]  # drop censored edge dwells
        q = dt / self.CFG.tau_s
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

    def test_tick_states_matches_run_statistics(self):
        # dwell-sampled fast path and the per-step engine agree on occupancy
        cfg = PNeuronConfig(tau_s=500e-6)
        dt = 10e-6
        run_states = telegraph_run(np.full(2_000_000, 0.65), dt, cfg, np.random.default_rng(21))
        tick_states = telegraph_tick_states(0.65, dt, cfg, 1, 2_000_000, np.random.default_rng(22))
        assert run_states.mean() == pytest.approx(tick_states.mean(), abs=0.01)

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
