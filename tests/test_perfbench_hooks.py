"""The benchmark's tracer still finds every function it wraps, and restores them.

``perfbench/tracing.py`` patches library functions by module attribute name,
so renaming one of them breaks the traced benchmark. Its own smoke test is
not part of this suite; this one is.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
    finally:
        tracer.uninstall()
    names = {attr for _, attr, _ in patched}
    assert {"build_adjacency", "slice_sequence", "pad_sequence", "load_stgs"} <= names
    originals = {}
    for owner, attr, orig in patched:
        originals.setdefault((owner, attr), orig)
    for (owner, attr), orig in originals.items():
        assert getattr(owner, attr) is orig, f"{owner.__name__}.{attr} not restored"
