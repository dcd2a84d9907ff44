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

# Saturation clamp for telegraph dwell computation: keeps dwell times finite
# when the drive pins the activation at 0 or 1.
P_CLAMP = 1e-6

# Discretized dwell statistics are trusted only when a mean dwell spans at
# least this many steps.
DT_RESOLUTION_FACTOR = 10

# Steps of whole ADC segments whose uniforms `telegraph_run` draws per pass,
# into one float64 u buffer (256 KiB) that stays in cache; the flip
# probabilities take one value per segment of the pass. 1 << 16 measured
# slower on the survey.
TELEGRAPH_BLOCK = 1 << 15

# Steps whose flips `telegraph_run` composes per pass, TELEGRAPH_CHUNK //
# TELEGRAPH_BLOCK whole blocks, so its working arrays stay this long on any
# drive; a default survey event (about 100 k steps) still composes in one
# pass. Composing per block measured slower on the survey.
TELEGRAPH_CHUNK = 1 << 17

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


def _drop_repeated_constants(flip0: np.ndarray, flip1: np.ndarray) -> None:
    """In place: clear the flag of each constant step whose predecessor is
    the same constant step, making it an identity step.

    A const 1 step has flip0 > flip1 and a const 0 step flip1 > flip0. The
    flip0 pass clears only steps whose flip1 is 0, so the flip1 pass sees
    the const 0 steps of the original flags. Temporaries are as long as the
    block, not the drive.
    """
    for own, other in ((flip0, flip1), (flip1, flip0)):
        const = np.greater(own, other)
        own[1:] ^= const[1:] & const[:-1]


def _check_dt(dt_s: float, cfg: PNeuronConfig) -> None:
    """Raise ValueError unless 0 < dt_s <= tau_s / DT_RESOLUTION_FACTOR."""
    if not dt_s > 0:
        raise ValueError(f"dt_s must be positive, got {dt_s}")
    if dt_s > cfg.tau_s / DT_RESOLUTION_FACTOR:
        raise ValueError(f"dt too coarse: {dt_s:.3g} s cannot resolve tau_s = {cfg.tau_s:.3g} s")


def telegraph_run(
    p: np.ndarray, dt_s: float, cfg: PNeuronConfig, rng: np.random.Generator, *, factor: int = 1
) -> np.ndarray:
    """Evolve the telegraph over a drive held for `factor` steps per entry of p.

    The run has (len(p) - 1) * factor + 1 steps: step 0 sees p[0] and step
    s >= 1 sees p[(s - 1) // factor + 1], so each later entry is one ADC
    segment of factor steps. Returns the state after each step (uint8). The
    generator gives one draw for the start state, from p[0], then one
    uniform u per step; a step flips the state when u < q01 (from OFF) or
    u < q10 (from ON). Saturated drives are accepted, so only dt_s <= tau_s
    / 10 is needed. Once q01 >= 1 (p >= 1 - dt / (2 tau)), though, an OFF
    dwell lasts one step, so the ON fraction caps at 2 tau p / (2 tau p +
    dt), about 0.990 at dt = tau / 50, however close to 1 p is.

    Step 0 is folded into the start state (its flip is applied with the
    second draw). With flip0 = u < q01 and flip1 = u < q10 each other step
    applies one of four maps to the state: identity (neither), NOT (both),
    const 1 (flip0 only) or const 0 (flip1 only). Their composition needs
    no loop: every NOT step flips the state, and a constant step flips it
    when the state entering it (the previous constant XOR the parity of NOT
    steps since) differs from its constant. The non-identity steps are
    taken once, in step order, so the NOT parity is one cumsum over them
    and the flips are marked in place among them: the flip list comes out
    sorted, with no search or sort. The flip probabilities are not capped
    at 1: u < 1, so a cap changes no comparison.

    Steps 1 onwards run in chunks of TELEGRAPH_CHUNK // TELEGRAPH_BLOCK
    blocks, and each block holds whole segments, TELEGRAPH_BLOCK // factor
    of them (at least one): the flip probabilities are computed once per
    segment and compared with a (segments, factor) view of the block's
    uniforms, writing straight into the chunk's flip0 and flip1. The
    generator's float64 stream does not depend on how it is split into
    calls, so this is the same stream as one rng.random(n). Each chunk is
    composed from the state the previous one left, and only the sorted flip
    positions are kept across chunks: the working arrays are as long as a
    chunk and are released at its end, before the next chunk or the final
    run-length expansion allocates, and the returned states are the only
    array as long as the drive.

    A saturated drive (p >= 0.99 or p <= 0.01 at dt = tau / 50) makes q01 or
    q10 at least 1, so every step is a non-identity step. A constant step
    that directly follows a constant step with the same flags enters the
    state its predecessor set and leaves it there: it never flips, and its
    h equals its predecessor's (no NOT step lies between them), so turning
    it into an identity step before the non-identity steps are listed
    changes no flip. Every step so dropped keeps the trajectory, so any set
    of them can be dropped. Blocks where flip0 or flip1 is set on more than
    half the steps are pruned this way (see `_drop_repeated_constants`),
    and their list shrinks to about twice their NOT steps, which saves the
    compose its time on a saturated drive; the two counts allocate nothing,
    and a block below that share allocates nothing more for it.

    An empty p, an entry outside [0, 1] (or NaN) or a factor that is not a
    positive integer raises ValueError before the generator is used.
    """
    _check_dt(dt_s, cfg)
    factor = _step_count("factor", factor)
    p = np.asarray(p, dtype=np.float64)
    _check_probabilities(p)
    if p.size == 0:
        raise ValueError("p is empty: no drive to draw the start state from")
    n = (p.size - 1) * factor + 1
    s0 = 1 if rng.random() < p[0] else 0
    if rng.random() < _flip_probs(p[0], cfg.tau_s, dt_s)[s0]:
        s0 ^= 1
    segs = max(1, TELEGRAPH_BLOCK // factor)
    chunk_segs = segs * (TELEGRAPH_CHUNK // TELEGRAPH_BLOCK)
    two_tau = 2.0 * cfg.tau_s
    state, parts = s0, []
    for c in range(1, p.size, chunk_segs):
        c_end = min(c + chunk_segs, p.size)
        size = (c_end - c) * factor
        flip0 = np.empty(size, dtype=bool)
        flip1 = np.empty(size, dtype=bool)
        u_buf = np.empty(min(size, segs * factor))
        q_buf = np.empty(min(c_end - c, segs))
        for j in range(c, c_end, segs):
            m = min(segs, c_end - j)
            lo, hi = (j - c) * factor, (j - c + m) * factor
            u = rng.random(hi - lo, out=u_buf[:hi - lo]).reshape(m, factor)
            seg_p = p[j:j + m]
            # q01 = dt / ((1 - p) * 2 tau), then q10 = dt / (p * 2 tau), with p
            # clipped to [P_CLAMP, 1 - P_CLAMP], each computed in turn in q.
            q = np.clip(seg_p, P_CLAMP, 1.0 - P_CLAMP, out=q_buf[:m])
            np.subtract(1.0, q, out=q)
            q *= two_tau
            np.less(u, np.divide(dt_s, q, out=q)[:, None], out=flip0[lo:hi].reshape(m, factor))
            np.clip(seg_p, P_CLAMP, 1.0 - P_CLAMP, out=q)
            q *= two_tau
            np.less(u, np.divide(dt_s, q, out=q)[:, None], out=flip1[lo:hi].reshape(m, factor))
            half = (hi - lo) // 2
            if np.count_nonzero(flip0[lo:hi]) > half or np.count_nonzero(flip1[lo:hi]) > half:
                _drop_repeated_constants(flip0[lo:hi], flip1[lo:hi])
        del u, q, u_buf, q_buf  # the views u and q pin the buffers too
        active = np.flatnonzero(flip0 | flip1)  # the non-identity steps, in order
        value = flip0[active]  # a constant step's value
        flipped = flip1[active]
        del flip0, flip1
        flipped &= value  # the NOT steps, each a flip; constant steps are marked below
        # h: each constant step's value XOR the parity of NOT steps up to it
        # (only the low bit of the uint8 cumsum is read); a constant step
        # flips the state exactly when h differs from the last constant
        # step's h, or from the state entering the chunk.
        h = np.cumsum(flipped, dtype=np.uint8)
        h ^= value
        h &= 1
        consts = np.flatnonzero(~flipped)
        h = h[consts]
        changed = np.empty(h.size, dtype=bool)
        changed[:1] = h[:1] != state
        np.not_equal(h[1:], h[:-1], out=changed[1:])
        flipped[consts[changed]] = True
        flips = active[flipped]
        flips += (c - 1) * factor + 1  # the chunk's first step
        state ^= flips.size & 1
        parts.append(flips)
        del active, value, flipped, h, consts, changed
    flips = parts[0] if len(parts) == 1 else np.concatenate([np.empty(0, np.intp), *parts])
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

    p must lie in [0, 1] (NaN raises ValueError) and is clamped to
    [P_CLAMP, 1 - P_CLAMP], as `telegraph_run` clamps its drive, so p = 0
    gives the same states as p = P_CLAMP. A flip probability saturates at
    1, a dwell of one step, so the ON fraction saturates too: near 0.01 and
    0.99 at dt = tau / 50, whatever p is beyond them. dt_s is checked as
    `telegraph_run` checks it, steps_per_tick must be a positive integer and
    n_ticks a non-negative one.

    Each drawn dwell is cut at the run's step count: a dwell that outlasts
    the run ends after every tick either way, and at tau >> dt the
    generator returns dwells near 2**63 whose sum would wrap.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    _check_dt(dt_s, cfg)
    steps_per_tick = _step_count("steps_per_tick", steps_per_tick)
    if not isinstance(n_ticks, (int, np.integer)) or n_ticks < 0:
        raise ValueError(f"n_ticks must be a non-negative integer, got {n_ticks}")
    p = min(max(p, P_CLAMP), 1.0 - P_CLAMP)
    q01, q10 = _flip_probs(p, cfg.tau_s, dt_s)
    s0 = 1 if rng.random() < p else 0
    total = n_ticks * steps_per_tick + 1
    q_even = q10 if s0 else q01  # dwells at even index are spent in state s0
    q_odd = q01 if s0 else q10
    chunks = []
    acc = 0
    # A pair of dwells spans 1/q_even + 1/q_odd steps on average: the pairs
    # expected to cover the run, padded; the loop tops up in the rare shortfall
    est = max(64, int(1.2 * total / (1.0 / q_even + 1.0 / q_odd)) + 64)
    while acc < total:
        m = min(est, 1 << 20)
        pair = np.empty(2 * m, dtype=np.int64)
        pair[0::2] = rng.geometric(q_even, size=m)
        pair[1::2] = rng.geometric(q_odd, size=m)
        np.minimum(pair, total, out=pair)
        chunks.append(pair)
        acc += int(pair.sum())
    dwell = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    boundaries = np.cumsum(dwell)
    ticks = np.arange(n_ticks, dtype=np.int64) * steps_per_tick
    k = np.searchsorted(boundaries, ticks, side="right")
    return ((s0 + k) % 2).astype(np.uint8)


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
