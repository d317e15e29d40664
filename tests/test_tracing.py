"""The benchmark's tracer looks daycast functions up by name; a rename must fail here."""

import importlib.util
from pathlib import Path


def test_tracer_finds_every_name_it_wraps():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # Registers the wrappers without installing them, so nothing is patched.
    tracing.Tracer().wrap_daycast()
