"""The CSV table writer as it formatted every field through Python's ``%``:
one ``%d``/``%s``/``%.17g`` template per row, filled from each block's
fields as Python objects.  Kept verbatim as the oracle of the bytes that
``qrate.cli._write_table`` writes with its block formatter.
"""

from pathlib import Path

import numpy as np

from qrate.config import _FLOAT_FORMAT

# rows formatted per block, so a block's fields are the only Python
# objects alive at once
_TABLE_BLOCK = 4096

# a field's % conversion by its dtype kind: %d is str(int(k)) and floats
# take fmt_num's conversion, so a row reads as if each field went through them
_CONVERSION = {"i": "%d", "u": "%d", "f": _FLOAT_FORMAT, "U": "%s"}


def write_table(path: Path, header: list[str], columns) -> None:
    """Write a CSV table from its columns, one block of rows at a time.

    A column is a sequence or a 2-D array; a 2-D array gives one field
    per array column, read through views with no stacked copy.
    """
    row = ",".join(",".join([_CONVERSION[a.dtype.kind]] * len(np.atleast_2d(a.T)))
                   for a in map(np.asarray, columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _TABLE_BLOCK):
            s = slice(lo, lo + _TABLE_BLOCK)
            block = []
            for c in columns:
                # sliced here, lists kept as lists: converting or transposing
                # every column up front measured 1.8 MB more peak RSS in
                # reproduce-paper (heap layout, not live data)
                block += np.atleast_2d(c[s].T).tolist() if isinstance(c, np.ndarray) else [c[s]]
            fh.write("".join([row % r for r in zip(*block)]))
