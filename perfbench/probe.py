"""Set-up probe: one fresh interpreter does a workload's set-up and exits.

    python3 perfbench/probe.py cli
    python3 perfbench/probe.py trace SCENARIO Q [QUAD_RES]

``cli`` imports ``dirgof.cli`` only, which is what every CLI call pays
before it parses its flags.  ``trace`` imports ``dirgof.simsuite`` and
builds the scenario and the quadrature, which is what a trace pays before
its first trial.  The probe prints the import time as JSON; the parent
times the whole process from spawn to exit.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
SRC = Path(__file__).resolve().parent.parent / "src"

if sys.argv[1] == "cli":
    import dirgof.cli  # noqa: F401

    import_s = perf_counter() - t0
else:
    from dirgof import goftest, simsuite

    import_s = perf_counter() - t0
    q = int(sys.argv[3])
    simsuite.make_scenario(sys.argv[2], q)
    goftest.default_quadrature(q, int(sys.argv[4]) if len(sys.argv) > 4 else None)

import dirgof  # noqa: E402

if Path(dirgof.__file__).resolve().parent.parent != SRC:
    sys.exit(f"probe imported dirgof from {dirgof.__file__}, not from {SRC}")
print(json.dumps({"import_s": import_s}))
