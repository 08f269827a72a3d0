"""The benchmark's tracer (perfbench/spans.py) imports every layer module
by name, so a renamed or deleted layer breaks every traced run."""

import importlib
from pathlib import Path

from homcount import cli, exactsolve, interpolation

ROOT = Path(__file__).resolve().parents[1]
G = ROOT / "tests" / "data" / "graphs"


def test_tracer_installs_over_every_layer_and_restores_it(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    main, solve = cli.main, exactsolve.solve_unit_lower
    interpolation._reduction_system.cache_clear()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main is not main
        assert interpolation.solve_unit_lower is not solve
        assert cli.main(["recover", "--h", f"{G}/k2.graph", "--g", f"{G}/p3.graph",
                         "--mode", "vsurj"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert cli.main is main
    assert interpolation.solve_unit_lower is exactsolve.solve_unit_lower is solve
    metrics = tracer.metrics()
    assert metrics["exactsolve.self_s"] > 0
    assert metrics["interpolation.oracle.queries"] == 4


def test_tracer_sees_the_images_work_in_the_interpolation_layer(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["images", "--h", f"{G}/c5.graph"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.functions()["interpolation.image_encodings"]["calls"] == 1
