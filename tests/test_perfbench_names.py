"""perfbench's traced pass wraps gcalc functions by (owner, attribute name).

A rename or deletion of one of them breaks only the traced benchmark runs;
this check finds it in the test suite instead.  perfbench/ is read, not
changed: its layers module is imported with perfbench/ on sys.path.
"""

import json
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


def test_every_lyapunov_condition_reaches_the_check_span(monkeypatch, tmp_path):
    """gcalc lyapunov reaches every condition through the one wrapped entry
    point, so perfbench's lyapunov.check span sees each run once, with the
    report's grid_size as its point count."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import patches
    from spans import Tracer

    entries = [e for e in patches(gcalc) if e[0] is gcalc.cli and e[2] == "lyapunov.check"]
    assert "check_stability_conditions" in [attr for _, attr, _, _ in entries]
    cfg = {"system": {"n": 2, "d": 1, "band": [1.0, 2.0], "f": ["0", "0"],
                      "h": ["x2", "-x1 - x1^3 - x2"], "g": ["0", "1"]},
           "V": "1 + 0.5*x2^2 + 0.5*x1^2 + 0.25*x1^4",
           "region": {"t": [0, 1], "box": [[-2, 2, 5], [-2, 2, 7]], "nt": 3},
           "params": {"c_ly": 1.0, "p": 2.0, "c1": 0.1, "c2": 10.0, "lambda": 0.5}}
    tracer, sizes = Tracer(), []
    with tracer.installed(entries):
        for condition in gcalc.lyapunov.CONDITIONS:
            path, out = tmp_path / f"{condition}.json", tmp_path / f"{condition}_report.json"
            path.write_text(json.dumps(cfg | {"condition": condition}))
            assert gcalc.cli.main(["lyapunov", "--config", str(path), "--out", str(out)]) in (0, 2)
            sizes.append(json.loads(out.read_text())["grid_size"])
    assert [s.name for s in tracer.spans] == ["lyapunov.check"] * len(gcalc.lyapunov.CONDITIONS)
    assert [s.counts["points"] for s in tracer.spans] == sizes == [105] * len(sizes)
    assert gcalc.cli.check_stability_conditions is gcalc.lyapunov.check_stability_conditions
