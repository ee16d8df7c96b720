"""Cell-by-cell trace CSV writer, kept as a byte reference.

Formats every sample on its own with ``format(v, '.17g')`` and writes one
row per call; ``cvgec.montecarlo.write_trace_csv`` must produce the same
bytes.  The writer's lookup tables are also built here from strings.
"""

from decimal import Decimal

import numpy as np


def write_trace_csv_per_cell(records, stream) -> None:
    """CSV rows (stage, quadrature, index, value) with full precision."""
    stream.write("stage,quadrature,index,value\n")
    for r in records:
        for k, v in enumerate(r.samples):
            stream.write(f"{r.stage},{r.quadrature},{k},{format(v, '.17g')}\n")


def digit_tables_from_strings():
    """The writer's tables, read off Python's own decimal text.

    The 4-digit groups 0000..9999 as ".d.d.d.d" octets (uint64) and their
    numbers of trailing zeros.  For each decimal exponent e in -4..16 and
    last nonzero digit t in 0..16 (digit 0 leading), the fixed-notation text
    of the 17-digit significand "1" * (t + 1) + "0" * (16 - t) times
    10**(e - 16): what it prints before its leading digit, NUL-padded to
    five bytes, and which of the 32 octet bytes behind the leading digit it
    prints (0xff), a digit in each odd byte and the point in the even byte
    ahead of the digit it precedes.
    """
    quads = ["%04d" % g for g in range(10000)]
    octets = np.frombuffer("".join("." + ".".join(q) for q in quads).encode(), np.uint64)
    trailing = np.array([4] + [len(q) - len(q.rstrip("0")) for q in quads[1:]])
    heads, masks = [], []
    for e in range(-4, 17):
        for t in range(17):
            significand = Decimal("1" * (t + 1) + "0" * (16 - t))
            text = format(significand.scaleb(e - 16).normalize(), "f")
            head, rest = text[: text.index("1")], text[text.index("1") + 1 :]
            mask = bytearray(32)
            digit = 0
            for char in rest:
                mask[2 * digit + (char != ".")] = 0xFF
                digit += char != "."
            masks.append(bytes(mask))
        heads.append(head.encode().ljust(5, b"\0"))
    heads = np.frombuffer(b"".join(heads), np.uint8).reshape(21, 5)
    masks = np.frombuffer(b"".join(masks), np.uint64).reshape(21, 17, 4)
    return octets, trailing, heads, masks
