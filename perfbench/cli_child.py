"""Run one graphideals CLI request with the tracer installed.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/cli_child.py <graphideals argv...> < document.json

This is the traced twin of ``python3 -m graphideals <argv...>``.  It
times the import of ``graphideals.cli``, runs ``cli.main`` under the
tracer with its output captured, and prints one JSON line holding the
exit code, the captured output, both timings and the aggregated spans.
"""

import contextlib
import io
import json
import sys
import time

import tracing

t0 = time.perf_counter()
import graphideals.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

tracer = tracing.Tracer()
tracer.install()
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code, main_s = tracer.request("cli.main", cli.main, sys.argv[1:])
tracer.uninstall()
print(
    json.dumps(
        {
            "exit": code,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "import_s": import_s,
            "main_s": main_s,
            "stats": tracer.export(),
        }
    )
)
