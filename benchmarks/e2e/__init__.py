"""End-to-end benchmark of the ``repro-mobility`` CLI, with a traced per-layer run.

See README.md in this directory.  ``python -m benchmarks.e2e`` runs it;
``python -m benchmarks.e2e compare A.json B.json`` compares two results.
"""
