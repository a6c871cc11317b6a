"""The benchmark's traced run resolves package functions by their public names.

A name it cannot resolve, or a call whose signature changed, turns its
per-layer metrics absent; these tests keep every one of them in reach.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

from shrinkgen import InterceptedDataError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import traced  # noqa: E402


def test_every_traced_layer_resolves():
    assert [name for name, fn in traced.LAYERS.items() if fn is None] == []


def test_recomposition_times_every_phase(kat_spec, kat_known):
    spans = traced.Spans()
    case = SimpleNamespace(size=(5, 4), known=dict(kat_known.items()))
    traced._recompose(spans, kat_spec, case, InterceptedDataError)
    assert spans.absent == {}
    assert [name for name in traced.PHASES if not spans.samples[name]] == []
