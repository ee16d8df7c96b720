"""Cell-by-cell trace CSV writer, kept as a byte reference.

Formats every sample on its own with ``format(v, '.17g')`` and writes one
row per call; ``cvgec.montecarlo.write_trace_csv`` must produce the same
bytes.  The writer's digit tables are also built here from strings.
"""

import numpy as np


def write_trace_csv_per_cell(records, stream) -> None:
    """CSV rows (stage, quadrature, index, value) with full precision."""
    stream.write("stage,quadrature,index,value\n")
    for r in records:
        for k, v in enumerate(r.samples):
            stream.write(f"{r.stage},{r.quadrature},{k},{format(v, '.17g')}\n")


def digit_tables_from_strings():
    """The 4-digit groups 0000..9999 as ".d.d.d.d" octets (uint64), as four
    digits (uint32), and their numbers of trailing zeros."""
    quads = ["%04d" % g for g in range(10000)]
    octets = np.frombuffer("".join("." + ".".join(q) for q in quads).encode(), np.uint64)
    digits = np.frombuffer("".join(quads).encode(), np.uint32)
    trailing = np.array([4] + [len(q) - len(q.rstrip("0")) for q in quads[1:]])
    return octets, digits, trailing
