"""The benchmark's tracer replaces module attributes of the package by name
(``perfbench/tracer.py``); a traced run fails if one of them is gone."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_patch_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, attr) for module, attr, _ in tracer.PATCHES]
    targets.append(("harness", "hj_optimize"))   # wrapped by Tracer.install
    missing = [(module, attr) for module, attr in targets
               if not hasattr(importlib.import_module(f"nvreadout.{module}"),
                              attr)]
    assert targets and not missing
