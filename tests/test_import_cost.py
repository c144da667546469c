"""A run imports only what it runs.

Every ``repro run``, fabric worker and benchmark repetition starts by
importing the scenarios and the session layer, so whatever that import
drags in is paid on every process start.  networkx (a third of the modules
the import once loaded) is only a test oracle now, and asyncio, with the
socket and ssl machinery behind it, is needed only by the HTTP facade and
the streaming queues, never by a session stepping a scenario.
"""

import json
import os
import subprocess
import sys

import repro

_PROBE = """
import json, sys
import repro.scenarios, repro.service.session
print(json.dumps(sorted(sys.modules)))
"""


def test_session_import_loads_neither_networkx_nor_asyncio():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    modules = set(json.loads(result.stdout))
    assert "repro.service.session" in modules
    assert "networkx" not in modules
    assert "asyncio" not in modules
