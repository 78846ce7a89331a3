"""The census hook: which code objects did this process call?

``python tools/census`` puts this directory first on ``PYTHONPATH``,
so every interpreter it starts (spawned sweep workers included)
imports this module at start-up.  The hook is inert unless
``CENSUS_OUT`` names a directory.  When it does, a profile function
records the code object of every Python-level call, in every thread,
and at exit the process writes one JSON file there: a list of
``[co_filename, co_firstlineno, co_name]`` triples, one per code
object it called.
"""

import atexit
import json
import os
import sys
import threading
import time

_OUT = os.environ.get("CENSUS_OUT")

if _OUT:
    _called = set()

    def _profile(frame, event, arg, _add=_called.add):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        threading.setprofile(None)
        rows = sorted({(code.co_filename, code.co_firstlineno, code.co_name)
                       for code in _called})
        name = f"{os.getpid()}-{time.time_ns()}.json"
        with open(os.path.join(_OUT, name), "w") as handle:
            json.dump(rows, handle)

    atexit.register(_dump)
    sys.setprofile(_profile)
    threading.setprofile(_profile)
