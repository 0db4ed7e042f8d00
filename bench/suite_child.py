"""Run the pmstat CLI as ``python -m pmstat.cli`` would, with the speed probe on.

    python3 bench/suite_child.py PROBE_JSON CLI_ARGS...

Writes the probe's calibration samples and the time they took to
PROBE_JSON and exits with the CLI's exit code.
"""

import json
import runpy
import sys

from speed import SpeedProbe

probe_path, sys.argv = sys.argv[1], ["pmstat", *sys.argv[2:]]
probe = SpeedProbe()
probe.start()
code = 0
try:
    runpy.run_module("pmstat.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
finally:
    probe.stop()
    with open(probe_path, "w") as fh:
        json.dump({"samples": probe.samples, "spent": probe.spent}, fh)
sys.exit(code)
