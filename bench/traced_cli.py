"""Run the airyqc CLI under the layer tracer and save its per-layer summary.

    AIRYQC_BENCH_TRACE_OUT=summary.json python3 bench/traced_cli.py correlator 2 4

Behaves like ``python -m airyqc`` (same stdout, stderr and exit code) and
writes the summary of the whole ``main()`` call as JSON to the named file.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layertrace import LayerTrace  # noqa: E402

if __name__ == "__main__":
    trace = LayerTrace()
    trace.install()
    import airyqc.cli

    try:
        code = airyqc.cli.main(sys.argv[1:])
    finally:
        with open(os.environ["AIRYQC_BENCH_TRACE_OUT"], "w") as fh:
            json.dump(trace.summary(), fh)
    sys.exit(code)
