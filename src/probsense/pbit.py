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
from functools import cache

import numpy as np

from .traces import _step_count

# x^16 + x^15 + x^13 + x^4 + 1 (maximal length): s[n+16] = s[n+15]^s[n+13]^s[n+4]^s[n].
LFSR_TAP_MASK = 0xA011
LFSR_PERIOD = 65535
LFSR_WORD_BITS = 16

# Steps of whole ADC segments whose uniforms the telegraph draws per pass,
# into one float64 u buffer (256 KiB) that stays in cache; its transition
# probabilities take one value per segment of the pass, and only the pass's
# flip positions outlive it. 1 << 16 measured slower on the survey.
TELEGRAPH_BLOCK = 1 << 15

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


def _activation_inplace(v: np.ndarray, cfg: PNeuronConfig) -> np.ndarray:
    """In place: float64 v <- sigma(beta * (v - v_ref)), after checking v is finite.

    min and max propagate NaN, so the check reads v twice and allocates
    nothing; the activation unit turns its drive buffer into p this way.
    """
    if v.size and not (np.isfinite(v.min()) and np.isfinite(v.max())):
        raise ValueError("v_in_v must be finite")
    # a huge drive overflows to +-inf, whose p is the logistic's limit, 1 or 0
    with np.errstate(over="ignore"):
        v -= cfg.v_ref_v
        v *= cfg.beta
    return _logistic_inplace(v)


def activation_probability(v_in_v, cfg: PNeuronConfig):
    """Logistic activation sigma(beta * (v_in - v_ref)); accepts scalars or arrays.

    The input is never modified: p is computed in a copy.
    """
    p = _activation_inplace(np.array(v_in_v, dtype=np.float64), cfg)
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


def _lfsr_step(r: int) -> int:
    """One shift of a plain-int register: feedback is the parity of the taps."""
    return (r >> 1) | ((int.bit_count(r & LFSR_TAP_MASK) & 1) << 15)


def _apply_jump(jump: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """Map registers through the linear step power whose byte images are jump."""
    return jump[:256][regs & 0xFF] ^ jump[256:][regs >> 8]


@cache
def _lfsr_cycle() -> tuple[np.ndarray, np.ndarray]:
    """(index, registers): the full-period tables for vectorized word
    generation, built on first use.

    The LFSR state sequence is one cycle through all 65535 nonzero registers,
    so any stream is a rotation of the canonical cycle: registers[i] is the
    register at cycle position i, and index maps a register value back to
    its position. The output bit is the register's LSB and each shift moves
    bit j down to bit j - 1, so the register at cycle position i holds the
    next 16 output bits, LSB first: a word is one register read, not 16 steps.

    Both tables are uint16, since every register and every cycle position
    (at most 65534) fits in 16 bits: registers and index hold 128 KiB each,
    and the build's traced peak is about 450 KiB. A uint16 register divides
    to the same float64 uniform as a wider one would.
    """
    # The step is linear over GF(2), so step^n of a register is the XOR of
    # step^n of its low byte and of its high byte: `jump` holds those 512
    # images, and squaring it (jump applied to itself) doubles n. Each round
    # appends step^n of the n registers so far: 16 rounds, no loop over the
    # cycle.
    jump = np.array([_lfsr_step(b) for b in range(256)]
                    + [_lfsr_step(b << 8) for b in range(256)], dtype=np.uint16)
    regs = np.ones(1, dtype=np.uint16)
    while regs.size <= LFSR_PERIOD:
        regs = np.concatenate((regs, _apply_jump(jump, regs)))
        jump = _apply_jump(jump, jump)
    assert regs[LFSR_PERIOD] == 1, "LFSR cycle did not close"
    regs = regs[:LFSR_PERIOD]
    index = np.zeros(0x10000, dtype=np.uint16)
    index[regs] = np.arange(LFSR_PERIOD, dtype=np.uint16)
    return index, regs


def lfsr_word_uniforms(s: LfsrState, n: int) -> tuple[np.ndarray, LfsrState]:
    """Draw n uniforms in (0, 1), one 16-bit word (LSB-first) per draw.

    Equivalent to packing 16 successive output bits per word, each the
    register's LSB followed by one `_lfsr_step`: word k is the register 16 k
    steps into the stream, read from the cycle table. The all-zero word
    never occurs, so the uniforms are strictly positive and strictly below 1.
    n must be a non-negative integer: a negative one would move the state
    backwards.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n}")
    index, registers = _lfsr_cycle()
    start = int(index[s.register])
    pos = np.arange(n, dtype=np.int64)
    pos *= LFSR_WORD_BITS
    pos += start
    pos %= LFSR_PERIOD
    u = np.divide(registers[pos], 65536.0)
    end = (start + n * LFSR_WORD_BITS) % LFSR_PERIOD
    return u, LfsrState(int(registers[end]))


def _check_probabilities(p: np.ndarray) -> None:
    """Raise ValueError unless every entry of the float64 array p lies in [0, 1].

    min and max propagate NaN, so a NaN fails the check too; like
    `_activation_inplace`, it reads p twice and allocates nothing.
    """
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValueError("probabilities must lie in [0, 1] (NaN is rejected)")


def iid_decisions(p, s: LfsrState) -> tuple[np.ndarray, LfsrState]:
    """One Bernoulli(p) decision per entry of p, each from one LFSR word."""
    p = np.asarray(p, dtype=np.float64)
    _check_probabilities(p)
    u, s = lfsr_word_uniforms(s, p.size)
    return (u < p).astype(np.uint8), s


# --------------------------------------------------------------------------
# Spintronic entropy source: two-state random telegraph with retention time
# --------------------------------------------------------------------------

def _check_dt(dt_s: float) -> None:
    """Raise ValueError unless 0 < dt_s < inf."""
    if not 0 < dt_s < np.inf:
        raise ValueError(f"dt_s must be positive and finite, got {dt_s}")


def _telegraph(p: np.ndarray, dt_s: float, tau_s: float, rng: np.random.Generator,
               factor: int) -> np.ndarray:
    """The exact law of the continuous-time telegraph, sampled every dt_s.

    The run has (len(p) - 1) * factor + 1 steps: step 0 sees p[0] and step
    s >= 1 sees p[(s - 1) // factor + 1], one ADC segment of factor steps
    per later entry. The ON and OFF dwells are exponential with means
    2 tau p and 2 tau (1 - p), so over a step the chain forgets its state
    with probability 1 - lam, lam = exp(-dt / (2 tau p (1 - p))), and is
    then ON with probability p: P(ON | OFF) = a = p (1 - lam) and
    P(ON | ON) = b = a + lam. The state at step 0 is one Bernoulli(p[0])
    draw; each later step takes one uniform u and sets the state to 1 when
    u < a, to 0 when u >= b, and holds it otherwise. At p in {0, 1} lam is
    0, so the state is exactly p. The law is exact at any dt_s > 0, so
    neither the ON fraction nor the dwell means depend on the step.

    Since b - a = lam >= 0, no step inverts the state: the states are a
    forward fill of the constant steps (u < a or u >= b), and a flip is a
    constant step whose value differs from the previous constant step's
    (or from the start state). Steps 1 onwards run in blocks of whole
    segments, TELEGRAPH_BLOCK // factor of them (at least one): a and b are
    computed once per segment and compared with a (segments, factor) view
    of the block's uniforms, drawn into one buffer. The generator's float64
    stream does not depend on how it is split into calls, so this is the
    same stream as one rng.random(n - 1). Each block keeps only its flip
    positions, so the working arrays are as long as a block and the
    returned uint8 states are the only array as long as the run.
    """
    n = (p.size - 1) * factor + 1
    state = s0 = 1 if rng.random() < p[0] else 0
    segs = max(1, TELEGRAPH_BLOCK // factor)
    size = min(n - 1, segs * factor)
    u_buf, on_buf, const_buf = np.empty(size), np.empty(size, bool), np.empty(size, bool)
    parts = [np.empty(0, np.intp)]
    rate = dt_s / tau_s / 2.0  # dt / (2 tau), without 2 tau, which overflows past 9e307
    for j in range(1, p.size, segs):
        m = min(segs, p.size - j)
        k = m * factor
        u = rng.random(k, out=u_buf[:k]).reshape(m, factor)
        seg_p = p[j:j + m]
        # lam, then a = p (1 - lam) and b = a + lam, one value per segment; a
        # saturated p divides by 0 (or overflows), and exp(-inf) is 0
        lam = np.subtract(1.0, seg_p)
        lam *= seg_p
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(-rate, lam, out=lam)
        np.exp(lam, out=lam)
        a = np.subtract(1.0, lam)
        a *= seg_p
        lam += a
        on = np.less(u, a[:, None], out=on_buf[:k].reshape(m, factor)).ravel()
        const = np.greater_equal(u, lam[:, None], out=const_buf[:k].reshape(m, factor)).ravel()
        const |= on
        steps = np.flatnonzero(const)  # the constant steps, in order
        if steps.size:
            value = on[steps]
            changed = np.empty(steps.size, dtype=bool)
            changed[0] = value[0] != state
            np.not_equal(value[1:], value[:-1], out=changed[1:])
            flips = steps[changed]
            flips += (j - 1) * factor + 1  # the block's first step
            parts.append(flips)
            state = int(value[-1])
    flips = np.concatenate(parts)
    runs = np.diff(flips, prepend=0, append=n)
    return np.repeat(((np.arange(flips.size + 1) & 1) ^ s0).astype(np.uint8), runs)


def telegraph_run(
    p: np.ndarray, dt_s: float, cfg: PNeuronConfig, rng: np.random.Generator, *, factor: int = 1
) -> np.ndarray:
    """Evolve the telegraph over a drive held for `factor` steps per entry of p.

    Returns the state after each of the (len(p) - 1) * factor + 1 steps
    (uint8): step 0 sees p[0] and step s >= 1 sees p[(s - 1) // factor + 1],
    so each later entry is one ADC segment of factor steps. The generator
    gives one draw for the start state, from p[0], then one uniform per
    step; see `_telegraph` for the law. Any dt_s > 0 is exact.

    An empty p, an entry outside [0, 1] (or NaN), a dt_s that is not
    positive and finite, or a factor that is not a positive integer raises
    ValueError before the generator is used.
    """
    _check_dt(dt_s)
    factor = _step_count("factor", factor)
    p = np.asarray(p, dtype=np.float64)
    _check_probabilities(p)
    if p.size == 0:
        raise ValueError("p is empty: no drive to draw the start state from")
    return _telegraph(p, dt_s, cfg.tau_s, rng, factor)


def telegraph_tick_states(
    p: float,
    dt_s: float,
    cfg: PNeuronConfig,
    steps_per_tick: int,
    n_ticks: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Telegraph state read at every steps_per_tick-th step, constant drive p.

    The chain's law is exact at any step, so the states at the ticks are
    the run at step dt_s * steps_per_tick: `telegraph_run` on n_ticks
    entries of p gives the same states from the same generator. p must lie
    in [0, 1] (NaN raises ValueError), dt_s must be positive and finite,
    steps_per_tick a positive integer and n_ticks a non-negative one.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    _check_dt(dt_s)
    steps_per_tick = _step_count("steps_per_tick", steps_per_tick)
    if not isinstance(n_ticks, (int, np.integer)) or n_ticks < 0:
        raise ValueError(f"n_ticks must be a non-negative integer, got {n_ticks}")
    if n_ticks == 0:
        return np.empty(0, dtype=np.uint8)
    return _telegraph(np.broadcast_to(np.float64(p), n_ticks), dt_s * steps_per_tick,
                      cfg.tau_s, rng, 1)


def estimate_retention(bits, dt_s: float) -> float:
    """Mean dwell time across both states: mean run length times dt_s."""
    if not dt_s > 0:
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
