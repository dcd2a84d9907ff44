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
from probsense import pbit
from probsense.pbit import (
    DT_RESOLUTION_FACTOR,
    LFSR_PERIOD,
    LFSR_WORD_BITS,
    LFSR_TAP_MASK,
    P_CLAMP,
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
    _flip_probs,
    _lfsr_step,
)


# Reference oracles: the scalar twins of the LFSR word stream,
# `activation_probability`, `iid_decisions` and `telegraph_run`, the loop that
# built the LFSR tables, the 16-bit gather that built each LFSR word and the
# three-array flip setup of `telegraph_run`.
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


def _telegraph_run_loop(p_steps, dt_s, cfg, rng):
    """Reference telegraph engine: a Python loop that scans for each flip.

    Same contract and generator use as `telegraph_run` at factor 1 (one draw
    for the start state from p_steps[0], then rng.random(n)), with flip
    probabilities capped at 1.
    """
    p_steps = np.asarray(p_steps, dtype=np.float64)
    n = p_steps.size
    s = 1 if rng.random() < p_steps[0] else 0
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


def _held_drive(p, factor):
    """p held over every step of the run: step 0 sees p[0] and step s >= 1
    p[(s - 1) // factor + 1], one float64 per step."""
    p = np.asarray(p, dtype=np.float64)
    held = np.empty((p.size - 1) * factor + 1)
    held[0] = p[0]
    held[1:].reshape(-1, factor)[:] = p[1:, None]
    return held


def _telegraph_run_three_arrays(p, dt_s, cfg, rng, *, factor=1):
    """`telegraph_run` on the drive held over every step, with q01, q10 and u
    all alive at once and step 0 in the step maps."""
    p_steps = _held_drive(p, factor)
    n = p_steps.size
    s0 = 1 if rng.random() < p_steps[0] else 0
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
        got_index, got_regs = _lfsr_cycle()
        assert np.array_equal(got_regs, regs)
        assert np.array_equal(got_regs & 1, bits)
        assert np.array_equal(got_index, index)
        assert (got_regs.dtype, got_index.dtype) == (regs.dtype, index.dtype)

    def test_jump_build_matches_loop_oracle(self):
        # a fresh build, not the cached tables
        got_index, got_regs = _lfsr_cycle.__wrapped__()
        bits, index, regs = _lfsr_cycle_loop()
        for got, want in ((got_index, index), (got_regs, regs)):
            assert got.dtype == want.dtype and got.shape == want.shape
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
        out = telegraph_run(p, 5e-6, self.CFG, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        ts = TelegraphState(1 if rng.random() < p[0] else 0, 0.0, rng)
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
        n=st.one_of(st.integers(1, 3), st.integers(1, 5000)),
        dt_s=st.sampled_from([1e-9, 1e-6, 5e-6, 50e-6]),
        start=st.sampled_from([None, 0.0, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_run_matches_loop_oracle(self, drive, n, dt_s, start, seed):
        p = self._make_drive(*drive, n, np.random.default_rng(seed), start)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        out = telegraph_run(p, dt_s, self.CFG, rng_a)
        ref = _telegraph_run_loop(p, dt_s, self.CFG, rng_b)
        assert out.dtype == np.uint8
        assert np.array_equal(out, ref)
        assert rng_a.random() == rng_b.random()

    @given(
        drive=_drive,
        n=st.one_of(st.integers(1, 3), st.integers(1, 5000)),
        # dt 1e-11 keeps flip probabilities below 1 at the P_CLAMP-clipped ends
        dt_s=st.sampled_from([1e-11, 1e-9, 1e-6, 5e-6, 50e-6]),
        tau_s=st.sampled_from([500e-6, 1e-3, 2.3e-3]),
        start=st.sampled_from([None, 0.0, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_run_matches_three_array_oracle(self, drive, n, dt_s, tau_s, start, seed):
        cfg = PNeuronConfig(tau_s=tau_s)
        p = self._make_drive(*drive, n, np.random.default_rng(seed), start)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        out = telegraph_run(p, dt_s, cfg, rng_a)
        ref = _telegraph_run_three_arrays(p, dt_s, cfg, rng_b)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("n", [TELEGRAPH_BLOCK - 1, TELEGRAPH_BLOCK, TELEGRAPH_BLOCK + 1,
                                   3 * TELEGRAPH_BLOCK + 17])
    @pytest.mark.parametrize("start", [None, 1])
    def test_run_matches_three_array_oracle_at_block_boundaries(self, n, start):
        # n steps after step 0, which the start state absorbs, so the blocks
        # start at step 1; the drive sweeps both saturated ends, so every
        # block has all four step maps; start, if not None, pins p[0]
        rng = np.random.default_rng(n)
        p = np.clip(np.sin(np.arange(n + 1) / 997.0) * 0.6 + 0.5, 0.0, 1.0)
        p[rng.random(n + 1) < 0.01] = 0.5
        if start is not None:
            p[0] = start
        rng_a, rng_b = np.random.default_rng(n + 1), np.random.default_rng(n + 1)
        out = telegraph_run(p, 5e-5, self.CFG, rng_a)
        ref = _telegraph_run_three_arrays(p, 5e-5, self.CFG, rng_b)
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

    @given(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([1e-9, 1e-6, 20e-6, 1e-3]),
           st.sampled_from([500e-6, 3.7e-4, 2.3e-3]))
    def test_scalar_flip_probs_match_arrays(self, p, dt_s, tau_s):
        q01, q10 = _flip_probs_arrays(p, tau_s, dt_s, cap=True)
        assert _flip_probs(p, tau_s, dt_s) == (float(q01), float(q10))

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

    @staticmethod
    def _saturated_drive(kind):
        """A drive that saturates whole blocks, so `telegraph_run` prunes them.

        "const c": constant p = c; "alternate": ON- and OFF-saturated in
        alternate blocks; "mixed": runs of both within each block, so a
        constant step often follows the other constant; "stretch a b":
        p = 0.995 on steps [B + 1 + a, 2 B + 1 + b) of a p = 0.5 drive, with
        B = TELEGRAPH_BLOCK (the blocks start at steps 1, B + 1, ...).
        """
        b = TELEGRAPH_BLOCK
        if kind.startswith("const"):
            return np.full(2 * b + 5, float(kind.split()[1]))
        if kind == "alternate":
            return np.where(np.arange(4 * b + 3) // b % 2, 0.005, 0.995)
        if kind == "mixed":
            return np.where(np.random.default_rng(1).random(2 * b + 5) < 0.7, 0.995, 0.005)
        _, lo, hi = kind.split()
        p = np.full(3 * b, 0.5)
        p[b + 1 + int(lo):2 * b + 1 + int(hi)] = 0.995
        return p

    @staticmethod
    def _count_pruned_blocks(monkeypatch) -> list:
        """Record the length of every block `telegraph_run` prunes."""
        calls = []
        prune = pbit._drop_repeated_constants

        def counted(flip0, flip1):
            calls.append(flip0.size)
            prune(flip0, flip1)

        monkeypatch.setattr(pbit, "_drop_repeated_constants", counted)
        return calls

    @pytest.mark.parametrize("drive", ["const 0.995", "const 0.005", "const 1.0", "const 0.0",
                                       "alternate", "mixed", "stretch -1 -1", "stretch -1 1",
                                       "stretch 1 -1", "stretch 1 1"])
    @pytest.mark.parametrize("start", [None, 0, 1])
    def test_pruned_run_matches_three_array_oracle(self, drive, start, monkeypatch):
        # start, if not None, pins p[0] and with it the start state
        pruned = self._count_pruned_blocks(monkeypatch)
        p = self._saturated_drive(drive)
        if start is not None:
            p[0] = start
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        out = telegraph_run(p, 10e-6, self.CFG, rng_a)
        ref = _telegraph_run_three_arrays(p, 10e-6, self.CFG, rng_b)
        assert pruned  # the pruned branch ran
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("over", [0, 1])
    @pytest.mark.parametrize("start", [None, 0, 1])
    def test_pruning_gate_at_threshold(self, over, start, monkeypatch):
        """One block whose flip0 is set on exactly half its steps, or one more.

        The block is steps 1 to n, after step 0, which the start state
        absorbs; p[0] is 0.5, or start to pin the start state. At dt = 2 ns,
        p = 1 sets flip0 alone (q01 ~ 2, q10 ~ 2e-6) and p = 0 flip1 alone,
        so the block's first k steps set flip0 and the rest flip1 (at seed
        3; the probe below checks that no p = 0 step sets flip0).
        """
        pruned = self._count_pruned_blocks(monkeypatch)
        n, dt = TELEGRAPH_BLOCK, 2e-9
        k = n // 2 + over
        p = np.zeros(n + 1)
        p[0] = 0.5 if start is None else start
        p[1:k + 1] = 1.0
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        q01, q10 = _flip_probs_arrays(p[1:], self.CFG.tau_s, dt, cap=False)
        probe = np.random.default_rng(3)
        probe.random(2)  # the start state and step 0
        u = probe.random(n)
        assert np.count_nonzero(u < q01) == k and np.count_nonzero(u < q10) == n - k
        out = telegraph_run(p, dt, self.CFG, rng_a)
        ref = _telegraph_run_three_arrays(p, dt, self.CFG, rng_b)
        assert pruned == [n] * over
        assert out.tobytes() == ref.tobytes()
        assert rng_a.random() == rng_b.random()

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
        dt_s=st.sampled_from([2e-9, 1e-6, 5e-6, 10e-6, 50e-6]),
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
        rng_a, rng_b, rng_c = (np.random.default_rng(seed) for _ in range(3))
        out = telegraph_run(p, dt_s, self.CFG, rng_a, factor=factor)
        ref = telegraph_run(_held_drive(p, factor), dt_s, self.CFG, rng_b)
        assert out.size == segments * factor + 1
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
        oracle = _telegraph_run_three_arrays(p, dt_s, self.CFG, rng_c, factor=factor)
        assert out.tobytes() == oracle.tobytes()
        assert rng_a.random() == rng_b.random() == rng_c.random()

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

    def test_on_fraction_caps_once_q01_reaches_one(self):
        # at p = 0.9998 and dt = tau / 50, q01 = dt / ((1 - p) 2 tau) = 50:
        # every OFF dwell is one step and an ON dwell averages 2 tau p / dt
        # steps, so the ON fraction is 2 tau p / (2 tau p + dt), about 0.990,
        # not p
        p, dt, n = 0.9998, 10e-6, 1_000_000
        two_tau_p = 2 * self.CFG.tau_s * p
        states = telegraph_run(np.full(n, p), dt, self.CFG, np.random.default_rng(17))
        cap = two_tau_p / (two_tau_p + dt)
        # renewal cycles of one Geometric(q10) ON dwell and one OFF step: the
        # number of cycles in n steps has variance n * var / mean**3
        q10 = dt / two_tau_p
        mean, var = 1 / q10 + 1, (1 - q10) / q10**2
        se = math.sqrt(n * var / mean**3) / n
        assert abs(states.mean() - cap) < 4 * se
        assert p - cap > 50 * se

    @pytest.mark.parametrize("p, clamped", [(0.0, P_CLAMP), (1.0, 1.0 - P_CLAMP)])
    def test_tick_states_clamp_p_as_run_does(self, p, clamped):
        def states(q):
            return telegraph_tick_states(q, 10e-6, self.CFG, 50, 10_000, np.random.default_rng(4))

        got = states(p)
        assert np.array_equal(got, states(clamped))
        # the dwell outside the saturated state is one step, so at dt = tau / 50
        # the ON fraction saturates at 1/101 and 100/101, not at p
        assert got.mean() == pytest.approx(1.0 / 101 if p == 0.0 else 100.0 / 101, abs=0.003)

    @pytest.mark.parametrize("p", [np.nan, -0.1, 1.1])
    def test_tick_states_reject_p_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            telegraph_tick_states(p, 10e-6, self.CFG, 50, 1000, np.random.default_rng(0))

    @pytest.mark.parametrize("dt_s", [0.0, -1e-6, np.nan, 51e-6, 1e-3])
    def test_tick_states_check_dt_as_run_does(self, dt_s):
        # tau = 500 us resolves dt <= 50 us; at 1 ms and p = 0.5 the tick
        # states used to come back all OFF where the run raised
        with pytest.raises(ValueError, match="dt"):
            telegraph_tick_states(0.5, dt_s, self.CFG, 50, 1000, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dt"):
            telegraph_run(np.full(3, 0.5), dt_s, self.CFG, np.random.default_rng(0))

    def test_tick_states_accept_dt_at_the_resolution_limit(self):
        # the retention demo's 0.1x case: tau = 50 us, dt = 500 us / 100 = tau / 10
        cfg = PNeuronConfig(tau_s=0.1 * 500e-6)
        dt = 500e-6 / 100
        states = telegraph_tick_states(0.5, dt, cfg, 100, 1000, np.random.default_rng(0))
        assert states.size == 1000
        assert telegraph_run(np.full(3, 0.5), dt, cfg, np.random.default_rng(0)).size == 3

    @pytest.mark.parametrize("name, value", [("steps_per_tick", 0), ("steps_per_tick", 2.5),
                                             ("steps_per_tick", "50"), ("n_ticks", -3),
                                             ("n_ticks", 2.5)])
    def test_tick_states_check_step_counts(self, name, value):
        # n_ticks = -3 used to end in an IndexError
        kwargs = {"steps_per_tick": 50, "n_ticks": 1000, name: value}
        with pytest.raises(ValueError, match=name):
            telegraph_tick_states(0.5, 10e-6, self.CFG, rng=np.random.default_rng(0), **kwargs)

    def test_tick_states_zero_ticks(self):
        states = telegraph_tick_states(0.5, 10e-6, self.CFG, 50, 0, np.random.default_rng(0))
        assert states.dtype == np.uint8 and states.size == 0

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
