"""One traced poleint CLI request in a fresh interpreter (the traced cli-cold run).

    python3 child.py SPANS_FILE ARG...

Runs `poleint.cli.main(ARG...)` with every entry point traced, writes the
spans and the largest result bit lengths to SPANS_FILE as JSON, and exits
with the CLI's exit code.  poleint must be importable (PYTHONPATH).
"""

import json
import sys

from poleint import cli
from tracer import Tracer

tracer = Tracer()
tracer.keep = []
tracer.install()
try:
    rc = cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
with open(sys.argv[1], "w") as f:
    json.dump({"spans": tracer.spans, "max_bits": tracer.max_bits()}, f)
sys.exit(rc)
