"""Time a fresh interpreter's set-up: ``import mcmr`` and the Clifford tables.

Prints one JSON object, ``{"import_s": ..., "tables_s": ...}``.  ``run.py``
starts it several times per run with ``src`` on ``PYTHONPATH``.
"""

import time

start = time.perf_counter()
import mcmr  # noqa: E402
from mcmr import clifford  # noqa: E402

imported = time.perf_counter()
clifford.clifford_table()
clifford.superop_table()
built = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"import_s": imported - start, "tables_s": built - imported}))
