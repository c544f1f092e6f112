"""perfbench's traced pass wraps gcalc functions by (owner, attribute name).

A rename or deletion of one of them breaks only the traced benchmark runs;
this check finds it in the test suite instead.  perfbench/ is read, not
changed: its layers module is imported with perfbench/ on sys.path.
"""

from pathlib import Path

import gcalc
import gcalc.cli  # noqa: F401  (perfbench wraps names in the cli namespace)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import patches

    entries = patches(gcalc)
    assert entries
    for owner, attr, span, _ in entries:
        # perfbench reads class attributes from the class __dict__
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        assert found, f"{span}: {owner.__name__}.{attr} is gone"
