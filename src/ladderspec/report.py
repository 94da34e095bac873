"""Serializable result container shared by the solvers and the CLI.

A SpectralReport is a plain data bundle: resolved configuration, band/gap
intervals (in omega), discrete eigenvalues, free-form numeric tables (e.g.
per-theta eigenvalue grids) and diagnostics.  JSON round-trips exactly;
tables can also be written as CSV with full float precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

SCHEMA = "ladderspec/report-v1"


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json can take them."""
    if isinstance(obj, np.ndarray):
        return [_plain(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    return obj


@dataclass
class SpectralReport:
    kind: str
    config: dict = field(default_factory=dict)
    bands: list = field(default_factory=list)  # [(omega_lo, omega_hi), ...]
    gaps: list = field(default_factory=list)  # [{omega_b, omega_t, type?}, ...]
    eigenvalues: list = field(default_factory=list)  # omega values
    tables: dict = field(default_factory=dict)  # name -> {columns, rows}
    diagnostics: dict = field(default_factory=dict)
    schema: str = SCHEMA

    def add_table(self, name, columns, rows):
        self.tables[name] = {
            "columns": list(columns),
            "rows": [_plain(list(r)) for r in rows],
        }

    def to_json(self):
        # a shallow field dict for one _plain pass; no indent keeps json's C encoder
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps(_plain(data), sort_keys=True)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            data = json.load(fh)
        if data.get("schema") != SCHEMA:
            raise ValueError(f"unsupported report schema {data.get('schema')!r}")
        return cls(**data)

    def write_table_csv(self, name, path):
        tab = self.tables[name]
        with open(path, "w") as fh:
            fh.write(",".join(tab["columns"]) + "\n")
            for row in tab["rows"]:
                fh.write(",".join(_csv_cell(x) for x in row) + "\n")


def _csv_cell(x):
    if isinstance(x, float):
        return f"{x:.16e}"
    return str(x)
