"""Serializable result container shared by the solvers and the CLI.

A SpectralReport is a plain data bundle: resolved configuration, band/gap
intervals (in omega), discrete eigenvalues, free-form numeric tables (e.g.
per-theta eigenvalue grids) and diagnostics.  JSON round-trips exactly;
tables can also be written as CSV with full float precision.  A table whose
entries the other fields already hold can be written to CSV and then
dropped before `save`, as the CLI's graph commands do, so that the JSON
stores each number once.

JSON comes from json's C encoder, which writes `np.float64` by
`float.__repr__`; its `default` hook maps an ndarray to `.tolist()`, any other
numpy scalar (np.int64, np.bool_, ...) to `.item()` and a complex value to
{"re": real, "im": imag}, and raises TypeError for anything else.  Table
cells are stored as given; only this hook and the CSV writer map them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SCHEMA = "ladderspec/report-v1"


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic) and not isinstance(item := obj.item(), np.generic):
        return item  # np.longdouble has no Python scalar and stays unserializable
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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
        self.tables[name] = {"columns": list(columns), "rows": [list(r) for r in rows]}

    def to_json(self):
        return json.dumps(vars(self), sort_keys=True, default=_json_default)

    def save(self, path):
        # json.dumps, not json.dump(fh), which streams through the pure-Python encoder
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
        # floats, numpy's too, in full precision (17 significant digits), anything else by str
        tab = self.tables[name]
        lines = [",".join(tab["columns"])]
        lines += [
            ",".join([f"{x:.16e}" if isinstance(x, (float, np.floating)) else str(x) for x in row])
            for row in tab["rows"]
        ]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
