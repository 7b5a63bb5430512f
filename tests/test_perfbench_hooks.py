"""The benchmark's traced run replaces package names at call time.

``perfbench/tracing.py`` lists every (owner, attribute) it wraps; a refactor
that renames or inlines one of them would silently drop a layer from the
traced figures, so the contract is checked here.
"""

import importlib.util
from pathlib import Path

import chauffeur
from chauffeur.core import RelState, validate_params

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_defined_on_its_owner():
    for owner, attr in _tracing().targets(chauffeur):
        assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"


def test_install_and_uninstall_restore_the_originals():
    tracing = _tracing()
    targets = tracing.targets(chauffeur)
    before = {(owner, attr): vars(owner)[attr] for owner, attr in targets}
    tracer = tracing.Tracer(chauffeur)
    with tracer:
        for (owner, attr), original in before.items():
            assert vars(owner)[attr] is not original
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original


def test_every_target_is_called(geom_03, geom_02, monkeypatch):
    # A traced name that the package no longer calls would read zero in the
    # traced figures; each must be reached through its owner at call time.
    called = set()

    def recording(key, fn):
        def wrapper(*args, **kwargs):
            called.add(key)
            return fn(*args, **kwargs)

        return wrapper

    targets = _tracing().targets(chauffeur)
    for owner, attr in targets:
        monkeypatch.setattr(owner, attr, recording((owner, attr), vars(owner)[attr]))

    chauffeur.solution.solve(validate_params(0.3, 0.5), n_phi=40, d_tau=4e-3)
    chauffeur.deception.deception_gain(
        0.3, 0.2, 0.5, RelState(2.152, -0.214), geom1=geom_03, geom2=geom_02
    )
    geom_03.value(RelState(1.2, 0.3))
    missed = [f"{owner.__name__}.{attr}" for owner, attr in targets if (owner, attr) not in called]
    assert not missed
