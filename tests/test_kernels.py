from __future__ import annotations

import numpy as np

from specsep import _kernels as K
from specsep import x_of_g
from specsep.spectrum import spectrum_arrays


def test_status_codes_are_distinct():
    assert len({K.OK, K.NO_CONVERGE, K.POLE, K.NO_BRACKET, K.SINGULAR}) == 5


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(K, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(K, name, counting)
    return calls


def test_nested_kernel_calls_go_through_module_globals(two_atom_config, monkeypatch):
    # the benchmark's trace and the stall test wrap kernels by setting module
    # attributes; a kernel that bound another one locally would bypass them
    u, t, w = spectrum_arrays(two_atom_config.spectrum)
    y = two_atom_config.y
    gs = -np.geomspace(0.05, 0.5, 7)
    plain = K.sweep(gs, u, t, w, y)

    calls = _count_calls(monkeypatch, ("phi", "branch"))
    wrapped = K.sweep(gs, u, t, w, y)
    assert calls["branch"] == len(gs)
    assert calls["phi"] >= len(gs)
    for a, b in zip(plain, wrapped):
        np.testing.assert_array_equal(a, b)

    calls["phi"] = calls["branch"] = 0
    point = x_of_g(-0.3, two_atom_config)
    assert calls["branch"] == 1
    assert calls["phi"] >= 1
    assert np.isfinite(point.x)
