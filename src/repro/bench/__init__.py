"""Determinism checks for the simulation substrate: see :mod:`repro.bench.golden`."""
