"""What the benchmark harness in perfbench/ needs from the library: every
function its tracer wraps still exists, its attrs hooks can read the results
those functions return, and the spectrum entry points still take a worker
count."""

import importlib.util
from pathlib import Path

from apnforge import is_apn, parse_poly, spectrum

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = _load_tracer().targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), (owner, attr, name)


def test_tracer_attrs_hooks_read_real_results(g2, g16):
    f12 = parse_poly("x^12 + x^6 + x^3", g2)
    calls = {
        "build_phi": (f12,),
        "spectrum": (parse_poly("x^6 + x^3", g16), g16),
        "cubic_divisor_search": (f12,),
        "deg12_classify": (f12,),
    }
    hooked = [(owner, attr, hook) for owner, attr, _, hook in _load_tracer().targets() if hook]
    assert sorted(attr for _, attr, _ in hooked) == sorted(calls)
    for owner, attr, hook in hooked:
        args = calls[attr]
        assert isinstance(hook(args, {}, getattr(owner, attr)(*args)), dict), attr


def test_spectrum_entry_points_take_workers(g16):
    f = parse_poly("x^6 + x^3", g16)
    assert spectrum(f, g16, workers=2) == spectrum(f, g16)
    assert is_apn(f, g16, workers=2) == is_apn(f, g16)
