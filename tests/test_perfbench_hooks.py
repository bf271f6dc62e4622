"""The names the benchmark's tracer wraps or reads must exist in iea_sim.

`perfbench/tracer.py` wraps the functions listed in its ENTRY_POINTS and
reads two drop counters; `perfbench/tracer.py` and `perfbench/worker.py`
replace `harness.time` and `harness.subprocess` with namespaces that hold
only the names below. `perfbench/micro.py` builds fixed inputs with the
public vision, codec and summary API and times it. A rename or an API
change then fails here, not as failed benchmark runs. These tests only
read `perfbench/`.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from iea_sim import harness
from iea_sim.fusion import FusionState
from iea_sim.netbus import LinkConfig, LockstepNetwork

ROOT = Path(__file__).resolve().parent.parent

# what the benchmark leaves of `time` and `subprocess` inside harness
REPLACED_MODULES = {"time": {"time", "sleep"},
                    "subprocess": {"Popen", "TimeoutExpired"}}


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _perfbench("tracer")


def test_every_entry_point_resolves():
    tracer = _tracer()
    for name, targets in tracer.ENTRY_POINTS.items():
        for mod_name, path in targets:
            owner = importlib.import_module(f"iea_sim.{mod_name}")
            for part in path.split("."):
                assert hasattr(owner, part), f"{name}: iea_sim.{mod_name}.{path}"
                owner = getattr(owner, part)
            assert callable(owner), f"{name}: iea_sim.{mod_name}.{path}"


def test_every_iea_sim_import_resolves():
    # module-level imports and the lazy ones inside functions alike
    # (worker._setup imports load_scenario only when a run starts)
    imported = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "iea_sim"):
                owner = importlib.import_module(node.module)
                for alias in node.names:
                    imported.append(alias.name)
                    submodule = f"{node.module}.{alias.name}"
                    assert (hasattr(owner, alias.name)
                            or importlib.util.find_spec(submodule)), (
                        f"{path.name}: from {node.module} import {alias.name}")
    assert "load_scenario" in imported


def test_drop_counters_exist():
    assert FusionState().drops == 0
    assert LockstepNetwork(LinkConfig(), 0).dropped == 0


def test_harness_uses_only_the_replaced_names():
    tree = ast.parse(Path(harness.__file__).read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in REPLACED_MODULES}
    assert used, "harness no longer uses time or subprocess"
    for module, attr in used:
        assert attr in REPLACED_MODULES[module], f"harness uses {module}.{attr}"


def test_micro_inputs_run():
    micro = _perfbench("micro")
    timings = micro.micro_timings(0.0)
    assert set(timings) == {
        "render_frame_clean", "render_frame_noisy", "detect_sparse",
        "detect_dense", "back_project_ground", "encode", "decode",
        "summarize"}
    for name, t in timings.items():
        assert t["n"] >= micro.MIN_CALLS and t["us_p50"] > 0, name
