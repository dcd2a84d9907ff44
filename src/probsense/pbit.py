"""Probabilistic neuron core: tunable activation and two entropy sources.

The activation is the standard logistic p-bit transfer function
sigma(beta * (V_IN - V_REF)); V_REF sets the no-event minimum sampling rate.
Two interchangeable entropy sources are provided: a 16-bit maximal-length
LFSR whose output words act as i.i.d. uniforms, and a two-state random
telegraph model of a stochastic MTJ with mean retention time tau. The drive
biases the telegraph dwell asymmetry (tau_on/tau_off = p/(1-p)) while the
retention time anchors the overall flip timescale, so the stationary
occupancy of the ON state equals the activation probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# x^16 + x^15 + x^13 + x^4 + 1 (maximal length): s[n+16] = s[n+15]^s[n+13]^s[n+4]^s[n].
LFSR_TAP_MASK = 0xA011
LFSR_PERIOD = 65535
LFSR_WORD_BITS = 16

# Saturation clamp for telegraph dwell computation: keeps dwell times finite
# when the drive pins the activation at 0 or 1.
P_CLAMP = 1e-6

# Discretized dwell statistics are trusted only when a mean dwell spans at
# least this many steps.
DT_RESOLUTION_FACTOR = 10

DEFAULT_BETA = 10.0
DEFAULT_MIN_RATE = 0.04
DEFAULT_TAU_S = 500e-6


def v_ref_for_min_rate(x_min: float, beta: float) -> float:
    """Reference voltage giving no-event rate x_min: sigma(-beta*v_ref) = x_min."""
    if not 0 < x_min < 1:
        raise ValueError(f"x_min must lie in (0, 1), got {x_min}")
    return float(np.log(1.0 / x_min - 1.0) / beta)


DEFAULT_V_REF = v_ref_for_min_rate(DEFAULT_MIN_RATE, DEFAULT_BETA)

SOURCES = ("digital_iid", "smtj_telegraph")


@dataclass(frozen=True)
class PNeuronConfig:
    beta: float = DEFAULT_BETA
    v_ref_v: float = DEFAULT_V_REF
    source: str = "smtj_telegraph"
    tau_s: float = DEFAULT_TAU_S
    seed: int = 0

    def __post_init__(self):
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not np.isfinite(self.v_ref_v):
            raise ValueError(f"v_ref_v must be finite, got {self.v_ref_v}")
        if not (self.tau_s > 0 and np.isfinite(self.tau_s)):
            raise ValueError(f"tau_s must be positive, got {self.tau_s}")
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {self.source!r}")

    @property
    def min_rate(self) -> float:
        """Activation probability at zero drive (the minimum sampling rate X)."""
        return float(_logistic_inplace(np.array(-self.beta * self.v_ref_v)))


def _logistic_inplace(z: np.ndarray) -> np.ndarray:
    """In place: z <- 1 / (1 + exp(-z)), exactly 0.0 where exp(-z) overflows.

    One buffer for the whole evaluation: on the per-event drive every fresh
    temporary costs page faults.
    """
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def activation_probability(v_in_v, cfg: PNeuronConfig):
    """Logistic activation sigma(beta * (v_in - v_ref)); accepts scalars or arrays."""
    v = np.asarray(v_in_v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("v_in_v must be finite")
    z = np.subtract(v, cfg.v_ref_v, out=np.empty_like(v))
    z *= cfg.beta
    p = _logistic_inplace(z)
    # p[()]: a 0-d array in gives a numpy scalar out, as a ufunc would
    return float(p) if np.isscalar(v_in_v) else p[()]


# --------------------------------------------------------------------------
# Digital entropy source: 16-bit Fibonacci LFSR
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LfsrState:
    register: int

    def __post_init__(self):
        if not 1 <= self.register <= 0xFFFF:
            raise ValueError(f"register must be a nonzero 16-bit value, got {self.register}")


def lfsr_from_seed(seed: int) -> LfsrState:
    """Map an arbitrary integer seed onto a valid (nonzero) register."""
    return LfsrState(seed % LFSR_PERIOD + 1)


def lfsr_next(s: LfsrState) -> tuple[int, LfsrState]:
    """Emit one output bit (register LSB) and shift with taps 16,15,13,4."""
    return s.register & 1, LfsrState(_lfsr_step(s.register))


def _lfsr_step(r: int) -> int:
    """One shift of a plain-int register: feedback is the parity of the taps."""
    return (r >> 1) | ((int.bit_count(r & LFSR_TAP_MASK) & 1) << 15)


def _apply_jump(jump: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """Map registers through the linear step power whose byte images are jump."""
    return jump[:256][regs & 0xFF] ^ jump[256:][regs >> 8]


class _LfsrCycle:
    """Lazily built full-period tables for vectorized word generation.

    The LFSR state sequence is one cycle through all 65535 nonzero registers,
    so any stream is a rotation of the canonical cycle. The output bit is the
    register's LSB and each shift moves bit j down to bit j - 1, so the
    register at cycle position i holds the next 16 output bits, LSB first:
    a word is one register read, not 16 steps.
    """

    def __init__(self):
        self.index: np.ndarray | None = None  # register value -> cycle position
        self.registers: np.ndarray | None = None

    def build(self):
        # The step is linear over GF(2), so step^n of a register is the XOR of
        # step^n of its low byte and of its high byte: `jump` holds those 512
        # images, and squaring it (jump applied to itself) doubles n. Each
        # round appends step^n of the n registers so far: 16 rounds, no loop
        # over the cycle.
        jump = np.array([_lfsr_step(b) for b in range(256)]
                        + [_lfsr_step(b << 8) for b in range(256)], dtype=np.uint32)
        regs = np.ones(1, dtype=np.uint32)
        while regs.size <= LFSR_PERIOD:
            regs = np.concatenate((regs, _apply_jump(jump, regs)))
            jump = _apply_jump(jump, jump)
        assert regs[LFSR_PERIOD] == 1, "LFSR cycle did not close"
        regs = regs[:LFSR_PERIOD]
        index = np.zeros(0x10000, dtype=np.int64)
        index[regs] = np.arange(LFSR_PERIOD)
        self.index, self.registers = index, regs


_CYCLE = _LfsrCycle()


def lfsr_word_uniforms(s: LfsrState, n: int) -> tuple[np.ndarray, LfsrState]:
    """Draw n uniforms in (0, 1), one 16-bit word (LSB-first) per draw.

    Equivalent to packing 16 successive `lfsr_next` bits per word: word k is
    the register 16 k steps into the stream, read from the cycle table. The
    all-zero word never occurs, so the uniforms are strictly positive and
    strictly below 1.
    """
    if _CYCLE.registers is None:
        _CYCLE.build()
    start = int(_CYCLE.index[s.register])
    pos = np.arange(n, dtype=np.int64)
    pos *= LFSR_WORD_BITS
    pos += start
    pos %= LFSR_PERIOD
    u = np.divide(_CYCLE.registers[pos], 65536.0)
    end = (start + n * LFSR_WORD_BITS) % LFSR_PERIOD
    return u, LfsrState(int(_CYCLE.registers[end]))


def iid_decisions(p, s: LfsrState) -> tuple[np.ndarray, LfsrState]:
    """One Bernoulli(p) decision per entry of p, each from one LFSR word."""
    p = np.asarray(p, dtype=np.float64)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    u, s = lfsr_word_uniforms(s, p.size)
    return (u < p).astype(np.uint8), s


# --------------------------------------------------------------------------
# Spintronic entropy source: two-state random telegraph with retention time
# --------------------------------------------------------------------------

def _flip_probs(p: float, tau_s: float, dt_s: float) -> tuple[float, float]:
    """Per-step flip probabilities (q_off_to_on, q_on_to_off) at drive p.

    Dwell means are tau_on = 2*tau*p and tau_off = 2*tau*(1-p), so the
    stationary ON fraction is exactly p and the mean dwell at p=0.5 is tau.
    Probabilities saturate at 1 (dwell floor of one step).
    """
    pc = min(max(p, P_CLAMP), 1.0 - P_CLAMP)
    q01 = dt_s / ((1.0 - pc) * (2.0 * tau_s))
    q10 = dt_s / (pc * (2.0 * tau_s))
    return min(q01, 1.0), min(q10, 1.0)


def telegraph_run(
    p_steps: np.ndarray,
    dt_s: float,
    cfg: PNeuronConfig,
    rng: np.random.Generator,
    initial_state: int | None = None,
) -> np.ndarray:
    """Evolve the telegraph over a per-step drive-probability array.

    Returns the state after each step (uint8). The generator gives one draw
    for the start state when initial_state is None, then one uniform u per
    step; a step flips the state when u < q01 (from OFF) or u < q10 (from
    ON). Saturated drives are accepted, so only dt_s <= tau_s / 10 is needed.

    With flip0 = u < q01 and flip1 = u < q10 each step applies one of four
    maps to the state: identity (neither), NOT (both), const 1 (flip0 only)
    or const 0 (flip1 only). Their composition needs no loop: every NOT
    step flips the state, and a constant step flips it when the state
    entering it (the previous constant XOR the parity of NOT steps since)
    differs from its constant. The non-identity steps are taken once, in
    step order, so the NOT parity is one cumsum over them and the flips are
    marked in place among them: the flip list comes out sorted, with no
    search or sort. The flip probabilities are not capped at 1 (a dwell
    floor of one step): u < 1 always, so a cap cannot change any comparison.
    """
    if dt_s <= 0:
        raise ValueError(f"dt_s must be positive, got {dt_s}")
    if dt_s > cfg.tau_s / DT_RESOLUTION_FACTOR:
        raise ValueError(
            f"dt too coarse: {dt_s:.3g} s cannot resolve tau_s = {cfg.tau_s:.3g} s"
        )
    p_steps = np.asarray(p_steps, dtype=np.float64)
    n = p_steps.size
    if initial_state is None:
        if n == 0:
            raise ValueError("p_steps is empty: no drive to draw the start state from")
        s0 = 1 if rng.random() < p_steps[0] else 0
    else:
        s0 = int(initial_state)
    u = rng.random(n)
    # q01 = dt / ((1 - p) * 2 tau), then q10 = dt / (p * 2 tau), with p clipped
    # to [P_CLAMP, 1 - P_CLAMP], each computed in turn in the one buffer q.
    q = np.clip(p_steps, P_CLAMP, 1.0 - P_CLAMP)
    np.subtract(1.0, q, out=q)
    q *= 2.0 * cfg.tau_s
    flip0 = u < np.divide(dt_s, q, out=q)
    np.clip(p_steps, P_CLAMP, 1.0 - P_CLAMP, out=q)
    q *= 2.0 * cfg.tau_s
    flip1 = u < np.divide(dt_s, q, out=q)
    del u, q
    active = np.flatnonzero(flip0 | flip1)  # the non-identity steps, in order
    value = flip0[active]  # a constant step's value
    flipped = flip1[active]
    del flip0, flip1
    flipped &= value  # the NOT steps, each a flip; constant steps are marked below
    # h: each constant step's value XOR the parity of NOT steps up to it (only
    # the low bit of the uint8 cumsum is read); a constant step flips the
    # state exactly when h differs from the last constant step's h, or s0.
    h = np.cumsum(flipped, dtype=np.uint8)
    h ^= value
    h &= 1
    consts = np.flatnonzero(~flipped)
    h = h[consts]
    changed = np.empty(h.size, dtype=bool)
    changed[:1] = h[:1] != s0
    np.not_equal(h[1:], h[:-1], out=changed[1:])
    flipped[consts[changed]] = True
    flips = active[flipped]
    runs = np.diff(flips, prepend=0, append=n)
    return np.repeat(((np.arange(flips.size + 1) & 1) ^ s0).astype(np.uint8), runs)


def telegraph_tick_states(
    p: float,
    dt_s: float,
    cfg: PNeuronConfig,
    steps_per_tick: int,
    n_ticks: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Telegraph state read at every steps_per_tick-th step, constant drive.

    Dwell-sampled: run lengths are drawn geometrically instead of stepping,
    which is distribution-identical to `telegraph_run` at constant p and
    O(number of dwells). Used for long constant-drive characterization runs.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    q01, q10 = _flip_probs(p, cfg.tau_s, dt_s)
    s0 = 1 if rng.random() < p else 0
    total = n_ticks * steps_per_tick + 1
    q_even = q10 if s0 else q01  # dwells at even index are spent in state s0
    q_odd = q01 if s0 else q10
    chunks = []
    acc = 0
    # expected dwells needed, padded; loop tops up in the rare shortfall case
    est = max(64, int(1.2 * total * (q_even + q_odd) / 2) + 64)
    while acc < total:
        m = min(est, 1 << 20)
        pair = np.empty(2 * m, dtype=np.int64)
        pair[0::2] = rng.geometric(q_even, size=m)
        pair[1::2] = rng.geometric(q_odd, size=m)
        chunks.append(pair)
        acc += int(pair.sum())
    dwell = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    boundaries = np.cumsum(dwell)
    ticks = np.arange(n_ticks, dtype=np.int64) * steps_per_tick
    k = np.searchsorted(boundaries, ticks, side="right")
    return ((s0 + k) % 2).astype(np.uint8)


def estimate_retention(bits, dt_s: float) -> float:
    """Mean dwell time across both states: mean run length times dt_s."""
    if dt_s <= 0:
        raise ValueError(f"dt_s must be positive, got {dt_s}")
    b = np.asarray(bits)
    if b.size < 2:
        raise ValueError("need at least two samples")
    edges = np.flatnonzero(np.diff(b) != 0)
    if edges.size == 0:
        raise ValueError("constant sequence: no transitions to estimate retention from")
    bounds = np.concatenate([[-1], edges, [b.size - 1]])
    runs = np.diff(bounds)
    return float(runs.mean() * dt_s)
