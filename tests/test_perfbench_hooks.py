"""The benchmark's traced run replaces package names at call time.

``perfbench/tracing.py`` lists every (owner, attribute) it wraps; a refactor
that renames or inlines one of them would silently drop a layer from the
traced figures, so the contract is checked here.
"""

import importlib.util
from pathlib import Path

import chauffeur

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
