"""Reference JSON encoding of a `SpectralReport`: the recursive numpy walk.

`SpectralReport.to_json` lets json's C encoder write the report and turns
numpy values into Python ones in a `default` hook.  It must give the same
bytes as this walk, which converts the whole tree first:
`json.dumps(plain(data), sort_keys=True)`.
"""

import json

import numpy as np


def plain(obj):
    """Recursively convert numpy scalars/arrays so json can take them."""
    if isinstance(obj, np.ndarray):
        return [plain(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    return obj


def reference_json(report):
    """The report encoded through the walk, as `to_json` must encode it."""
    return json.dumps(plain(vars(report)), sort_keys=True)
