"""Reference output route for the tests only: the whole solve document as text.

`penney.cli.write_document` writes a solve document's series in batches
straight from its (n, d) integers. It must write exactly what this route
prints: the series as a dict of coefficient strings (`str(Fraction(n, d))`)
under the document's last key, then `json.dumps(doc, indent=2)`, or the
document's table followed by the series table whose widths come from every
cell's text, and in both cases a newline. The two share only
`render_table`, for the part of the table before the series.
"""

from __future__ import annotations

import json
from fractions import Fraction

from penney.cli import render_table


def series_block(patterns: list[str], terms: list) -> dict:
    return {
        "horizon": len(terms[0]) - 1,
        "players": [
            {
                "player": i,
                "pattern": pattern,
                "coefficients": [str(Fraction(int(n), int(d))) for n, d in column],
            }
            for i, (pattern, column) in enumerate(zip(patterns, terms), start=1)
        ],
    }


def _table_rows(rows: list[list[str]]) -> str:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )


def reference_text(doc: dict, as_json: bool) -> str:
    """What `write_document(doc, as_json, out)` must write for a solve document
    with a series."""
    block = series_block(doc["patterns"], doc["series"])
    if as_json:
        return json.dumps({**doc, "series": block}, indent=2) + "\n"
    rows = [["toss"] + [p["pattern"] for p in block["players"]]]
    for k in range(block["horizon"] + 1):
        rows.append([str(k)] + [p["coefficients"][k] for p in block["players"]])
    head = {key: value for key, value in doc.items() if key != "series"}
    lines = [render_table(head), f"win distribution through toss {block['horizon']}:"]
    return "\n".join([*lines, _table_rows(rows)]) + "\n"
