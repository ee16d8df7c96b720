"""Seeded sampling of explicit noise realizations through the corrected
scheme, and the trace CSV writer.

:func:`trace_map` builds the scheme of :func:`cvgec.protocol.corrected_map`
once, on its protected mode, and writes every record as one row of weights
on the labelled streams, so the corrected stage is pure loss at any noise
variance.  The independent check is ``tests/montecarlo_oracle.py``, which
writes the encode, channel and decode amplitude relations out by hand,
draws the same streams and must match the trace sample by sample.

Sampling draws every stream as an independent normal (vacuum terms with
variance 1/2, the noise inputs with their variances), so only second
moments are validated; no claim of Heisenberg-exact joint sampling is
made.

Randomness comes from numpy's counter-based Philox generator.  Stream k of
a run is seeded with SeedSequence((master_seed, k)), so traces are
reproducible and independent of any evaluation schedule.  Stream k is the
k-th input of the records map, whose labels the trace manifest lists
(``extras.streams``).  A zero-variance input still takes its number.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .protocol import decoded, encoded_maps, protected_signal
from .states import VACUUM_VARIANCE
from .transforms import GaussianMap, quadrature_labels

#: Stage names in record order.
STAGES = ("input", "channel_1", "channel_2", "corrected", "discarded")


@dataclass(frozen=True)
class TraceRecord:
    """Quadrature outcomes of one stage: homodyne samples in natural units."""

    stage: str
    quadrature: str
    samples: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError("trace samples must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise ValueError("trace samples must be finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)


def trace_map(model: ChannelModel) -> tuple[np.ndarray, GaussianMap]:
    """The trace's one build on a two-channel ``model``: the protected mode
    u (:func:`cvgec.protocol.protected_signal`), whose first entry above
    1e-9 in magnitude is positive, so the manifest's pair (c, s) = (u0, -u1)
    has c > 0 unless |c| <= 1e-9, and then s < 0; and the ten records as a
    map with no state entering (X = 0) whose inputs are the Philox streams,
    row r of F record r's weights on them.  The streams are the inputs of
    the map in which both modes enter as vacuum inputs, ``input:0`` and
    ``carrier:1``, then pass the mirror of u and the channel.  The rows are
    the identity for ``input``, that map for the channel stages, and the
    decoder's rows (:func:`cvgec.protocol.decoded`) for the two ports."""
    if model.n_channels != 2:
        raise ValueError(f"trace samples two channels; the config has {model.n_channels}")
    u, spanned = protected_signal(model)
    mirrored, channel = encoded_maps(model, 1, signal=u)
    labels = quadrature_labels("input", (0,)) + quadrature_labels("carrier", (1,))
    vacua = GaussianMap(np.zeros((4, 4)), np.eye(4), np.full(4, VACUUM_VARIANCE), labels)
    streams = vacua.then(mirrored).then(channel)
    ports = np.hstack(decoded(mirrored, channel, spanned, 0))
    weights = np.vstack([np.eye(2, len(streams.v)), streams.F, ports])
    return u, GaussianMap(np.zeros((10, 10)), weights, streams.v, streams.labels)


def sample_run(
    records: GaussianMap, n: int, seed: int, amplitude: tuple[float, float] = (2.0, 0.0),
    modulation_period: int = 0,
) -> list[TraceRecord]:
    """Draw ``n`` shots of the ``records`` map of :func:`trace_map`, one
    normal stream per input, stream k for input k: one record per (stage,
    quadrature), in CSV order, each its row's weighted sum of the streams.
    A positive ``modulation_period`` applies a sinusoidal displacement to
    the input mean, for trace rendering only."""
    if n < 1:
        raise ValueError("need at least one shot")
    if modulation_period < 0:
        raise ValueError("modulation_period must be nonnegative")
    keys = itertools.count()

    def draw(variance: float) -> np.ndarray | None:
        """n normal samples from the next stream; a zero variance still
        uses up its stream, and gives None."""
        seq = np.random.SeedSequence((int(seed), next(keys)))
        if variance == 0.0:
            return None
        return np.random.Generator(np.random.Philox(seq)).normal(0.0, np.sqrt(variance), n)

    phase = np.ones(n)
    if modulation_period > 0:
        phase = np.sin(2.0 * np.pi * np.arange(n) / modulation_period)
    inputs = [draw(v) for v in records.v]
    for k, a in enumerate(amplitude):  # the input's mean rides its vacuum
        inputs[k] = a * phase + inputs[k]
    rows = zip(records.F, itertools.product(STAGES, "XP"))
    return [TraceRecord(stage, q, _combine(row, inputs)) for row, (stage, q) in rows]


def _combine(weights, inputs) -> np.ndarray:
    """sum_k weights[k] * inputs[k], term by term in input order, skipping
    zero weights and silent (None) inputs."""
    total, term = np.zeros_like(inputs[0]), np.empty_like(inputs[0])
    for a, x in zip(weights, inputs):
        if a != 0.0 and x is not None:
            total += np.multiply(a, x, out=term)
    return total


def write_trace_csv(records, stream) -> None:
    """CSV rows (stage, quadrature, index, value) with full precision.

    Each value is written exactly as ``format(v, '.17g')`` writes it.
    Rows are formatted in blocks of ``_BLOCK_ROWS`` by one
    :class:`_RowFormatter` per record length, each row as ``"\\n" + index +
    "," + value``; the record's ``"stage,quadrature,"`` is then spliced in
    behind every newline of the block.  So the header is written without its
    newline, and the file's last newline is written at the end.
    """
    stream.write("stage,quadrature,index,value")
    formatters = {}
    for r in records:
        n = r.samples.size
        if n not in formatters:
            formatters[n] = _RowFormatter(n)
        row_start = f"\n{r.stage},{r.quadrature},".encode()
        for start in range(0, n, _BLOCK_ROWS):
            block = formatters[n].text(start, r.samples[start : start + _BLOCK_ROWS])
            stream.write(block.replace(b"\n", row_start).decode())
    stream.write("\n")


#: Rows per block of :func:`write_trace_csv`.
_BLOCK_ROWS = 1 << 14

#: Powers of ten up to 1e22 are exact doubles; each is split into two
#: 26-bit halves for Dekker's product.
_SPLITTER = 134217729.0  # 2**27 + 1
_POW10 = 10.0 ** np.arange(23)
_POW10_HI = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


@functools.cache
def _digit_tables():
    """Lookup tables of the value field: ``octets``, the 4-digit groups
    0000..9999 as ".d.d.d.d" (uint64), and ``trailing``, their numbers of
    trailing zeros; ``heads[e + 4]``, the "0.000" bytes that a value of
    decimal exponent e prints before its leading digit; ``masks[e + 4, t]``,
    four uint64 words that keep of the octets the digits and the point that
    such a value prints when its last nonzero digit is digit t (digit 0
    leading).  Every byte not printed is NUL."""
    digits = np.arange(10000).reshape(-1, 1) // 10 ** np.arange(3, -1, -1) % 10
    octets = np.full((10000, 8), ord("."), np.uint8)
    octets[:, 1::2] = 48 + digits
    trailing = np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    e = np.arange(-4, 17).reshape(-1, 1)
    heads = np.where(np.arange(5) < np.where(e < 0, 1 - e, 0), np.frombuffer(b"0.000", np.uint8), 0)
    e = e.reshape(-1, 1, 1)
    # Octet byte 2j - 1 holds digit j = 1..16, byte 2j - 2 the point ahead of it.
    j, t = np.arange(1, 17), np.arange(17).reshape(-1, 1)
    masks = np.stack([(j == e + 1) & (j <= t), j <= np.maximum(e, t)], axis=-1)
    masks = (255 * masks).astype(np.uint8).reshape(21, 17, 32).view(np.uint64)
    tables = octets.view(np.uint64).ravel(), trailing, heads.astype(np.uint8), masks
    for table in tables:
        table.flags.writeable = False
    return tables


def _two_product(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**q as hi + lo exactly, hi = fl(a * 10**q) (Dekker, Numer. Math.
    18, 1971); exact for 1e-4 <= a < 1e17 and 0 <= q <= 22."""
    hi = a * _POW10[q]
    t = _SPLITTER * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[q], _POW10_LO[q]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _in_range(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """1e16 <= hi + lo < 1e17, decided exactly."""
    above = (hi > 1e16) | ((hi == 1e16) & (lo >= 0))
    return above & ((hi < 1e17) | ((hi == 1e17) & (lo < 0)))


def _significands(values: np.ndarray):
    """Round-half-even 17-digit significands D and decimal exponents e,
    with |v| = D * 10**(e - 16) to 17 digits, for values that ``%.17g``
    writes in fixed notation (rounded |v| in [1e-4, 1e17)).

    Returns (D, e, fast); rows with ``fast`` False hold placeholders and
    must be formatted another way.  The scaled value |v| * 10**(16 - e) is
    kept exactly as hi + lo; hi >= 1e16 > 2**53 is an even integer, so
    hi + rint(lo) rounds half to even like the correctly rounded
    ``%.17g``.
    """
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)).astype(np.int64), -4, 16)
    hi, lo = _two_product(a, 16 - e)
    # log10 can be one off next to a power of ten: step the exponent once.
    off = np.flatnonzero(~_in_range(hi, lo))
    if off.size:
        e[off] = np.clip(e[off] + np.where(hi[off] >= 1e17, 1, -1), -4, 16)
        hi[off], lo[off] = _two_product(a[off], 16 - e[off])
        fast[off] &= _in_range(hi[off], lo[off])
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    fast &= e <= 16
    return d, e, fast


class _RowFormatter:
    """Rows ``"\\n" + index + "," + format(v, '.17g')`` of the records of
    ``n`` samples, formatted a block at a time.

    Every row is a fixed-width uint8 row ["\\n"][index][","][sign][head]
    [leading digit][four ".d.d.d.d" octets] in which each byte the row does
    not print is NUL; deleting the NULs of a block gives its text.  The
    index has as many digits as n - 1, leading zeros NUL; the sign is "-" or
    NUL; the head and the mask of the octets come from the tables of
    :func:`_digit_tables`.  Values outside the fixed-notation range (zeros,
    |v| < 1e-4, |v| >= 1e17) are formatted one by one with ``%.17g`` into
    their NUL-padded value field.
    """

    def __init__(self, n: int):
        width = len(str(max(n - 1, 0)))
        self.index = np.zeros((n, width), np.uint8)
        rest = np.arange(n, dtype=np.min_scalar_type(n))
        self.index[:, -1] = 48 + rest % 10
        for i in range(width - 2, -1, -1):
            rest = rest // 10
            self.index[:, i] = np.where(rest > 0, 48 + rest % 10, 0)
        self.value = v = width + 2
        self.rows = np.empty((min(n, _BLOCK_ROWS), v + 39), np.uint8)  # 1 + 5 + 1 + 32 value bytes
        self.rows[:, 0] = ord("\n")
        self.rows[:, v - 1] = ord(",")

    def text(self, start: int, values: np.ndarray) -> bytes:
        """Rows for ``values``, the samples with indices start, start+1, ..."""
        octets, trailing, heads, masks = _digit_tables()
        b, v = values.size, self.value
        rows = self.rows[:b]
        d, e, fast = _significands(values)

        top, low = np.divmod(d, 10**8)
        groups = [*np.divmod(top.astype(np.int32), 10**4), *np.divmod(low.astype(np.int32), 10**4)]
        lead, groups[0] = np.divmod(groups[0], 10**4)
        zeros = 0  # trailing zeros of the 16 digits after the leading one
        for group in groups:
            zeros = trailing.take(group) + (group == 0) * zeros

        rows[:, 1 : v - 1] = self.index[start : start + b]
        rows[:, v] = (values < 0) * ord("-")
        rows[:, v + 1 : v + 6] = heads.take(e + 4, axis=0)
        rows[:, v + 6] = 48 + lead
        mask = masks.reshape(-1, 4).take((e + 4) * 17 + 16 - zeros, axis=0)
        words = octets.take(np.stack(groups, axis=1)) & mask
        rows[:, v + 7 :] = words.view(np.uint8)

        slow = np.flatnonzero(~fast)
        if slow.size:
            text = [b"%.17g" % x for x in values[slow].tolist()]
            rows[slow, v:] = np.array(text, dtype="S39").view(np.uint8).reshape(-1, 39)
        return rows.tobytes().translate(None, b"\0")
