"""Cell-by-cell trace CSV writer, kept as a byte reference.

Formats every sample on its own with ``format(v, '.17g')`` and writes one
row per call; ``cvgec.montecarlo.write_trace_csv`` must produce the same
bytes.
"""


def write_trace_csv_per_cell(records, stream) -> None:
    """CSV rows (stage, quadrature, index, value) with full precision."""
    stream.write("stage,quadrature,index,value\n")
    for r in records:
        for k, v in enumerate(r.samples):
            stream.write(f"{r.stage},{r.quadrature},{k},{format(v, '.17g')}\n")
