"""Package hygiene: runtime modules import only what they use, every
function and public method they define runs at runtime or in the
benchmark, the benchmark's view of the package exists, the runtime package
does not pull in test-only dependencies, every training setting is
reachable from the command line and stored in reports, every error class
is raised, and the text side of the model, the model and its encoder are
each built in one place."""
import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p for p in (SRC / "slipmil").glob("*.py")
                 if p.name != "__init__.py")
PERFBENCH = SRC.parent / "perfbench"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


class TestUnusedImports:
    def test_detects_unused_name(self):
        source = "import os\nfrom json import dumps, loads\nloads('1')\n"
        assert unused_imports(source) == ["dumps (line 2)", "os (line 1)"]

    def test_attribute_base_and_annotation_count_as_use(self):
        source = ("from __future__ import annotations\nimport numpy as np\n"
                  "from pathlib import Path\n"
                  "def f(p: Path) -> None:\n    np.zeros(1)\n")
        assert unused_imports(source) == []

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_runtime_module(self, path):
        assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_functions(sources: dict, *callers: str) -> list[str]:
    """Module-level functions, as "module.name", and public methods and
    properties of module-level classes, as "module.Class.name", that no
    code in `sources` (module name -> source) or in the `callers` sources
    reads by name or attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                defined.append((f"{module}.{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{m.name}", m.name)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_")]
    for source in [*sources.values(), *callers]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(qualified for qualified, name in defined
                  if name not in used)


class TestRuntimeFunctionsHaveCallers:
    def test_detects_unreferenced_function(self):
        sources = {"a": "def f():\n    return g()\n"
                        "def g():\n    return 1\n",
                   "b": "import a\ndef h():\n    return a.f()\n"}
        assert unreferenced_functions(sources) == ["b.h"]

    def test_detects_unreferenced_method(self):
        sources = {"a": "class C:\n    def used(self):\n"
                        "        return self.size\n"
                        "    @property\n    def size(self):\n"
                        "        return 1\n"
                        "    def _private(self):\n        return 2\n"
                        "    def unused(self):\n        return 3\n"
                        "    def benched(self):\n        return 4\n"}
        bench = "def run(c):\n    return c.used(), c.benched()\n"
        assert unreferenced_functions(sources, bench) == ["a.C.unused"]
        assert unreferenced_functions(sources) == ["a.C.benched",
                                                   "a.C.unused", "a.C.used"]

    def test_runtime_modules(self):
        # a function only tests call belongs in tests/oracles.py; the
        # benchmark's calls count, since it measures the public API
        sources = {path.stem: path.read_text(encoding="utf-8")
                   for path in MODULES}
        bench = [path.read_text(encoding="utf-8")
                 for path in sorted(PERFBENCH.glob("*.py"))]
        assert unreferenced_functions(sources, *bench) == []


def unraised_errors(errors: str, *sources: str) -> list[str]:
    """Exception classes defined in `errors` that no code in `sources`
    raises by name and that are no base of a class that is raised."""
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for node in ast.parse(errors).body
             if isinstance(node, ast.ClassDef)}
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)
                raised.add(getattr(exc, "id", None))
    covered, todo = set(), list(raised & set(bases))
    while todo:
        name = todo.pop()
        if name not in covered:
            covered.add(name)
            todo += bases.get(name, ())
    return sorted(set(bases) - covered)


class TestEveryErrorIsRaised:
    def test_detects_unraised_error(self):
        errors = ("class Base(Exception):\n    pass\n"
                  "class Mid(Base):\n    pass\n"
                  "class Leaf(Mid):\n    pass\n"
                  "class Dead(Base):\n    pass\n"
                  "class Bare(Exception):\n    pass\n")
        source = ("def f(x):\n    if x:\n        raise Leaf('no')\n"
                  "    raise Bare\n")
        assert unraised_errors(errors, source) == ["Dead"]
        assert unraised_errors(errors) == ["Bare", "Base", "Dead", "Leaf",
                                           "Mid"]

    def test_runtime_modules(self):
        # an error class nothing raises is a branch no caller can take
        sources = [path.read_text(encoding="utf-8") for path in MODULES]
        errors = (SRC / "slipmil" / "errors.py").read_text(encoding="utf-8")
        assert unraised_errors(errors, *sources) == []


class TestBenchmarkSurface:
    """perfbench/ drives the package through the names below; they change
    only together with it."""

    def test_read_report_accepts_partial_report(self, tmp_path):
        # large-bag-scoring writes a config of encoder_seed and tau alone
        # and no metrics, then reads the context back itself
        from slipmil.io_formats import read_report, write_report
        path = tmp_path / "prompts.json"
        context = {"shared": True, "vectors": [[[0.5] * 16] * 4]}
        write_report(path, {"encoder_seed": 0, "tau": 0.01}, [[0, 0, 1.5]],
                     {}, ["a", "b"], ["t"], context=context)
        doc = read_report(path)
        assert doc["config"] == {"encoder_seed": 0, "tau": 0.01}
        assert doc["metrics"] == {} and doc["context"] == context

    def test_workload_attributes_exist(self):
        import slipmil
        from slipmil import cli, evaluation, io_formats
        modules = {"slipmil": slipmil, "cli": cli, "evaluation": evaluation,
                   "io_formats": io_formats}
        tree = ast.parse((PERFBENCH / "workloads.py").read_text(
            encoding="utf-8"))
        read = {(node.value.id, node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules}
        assert ("io_formats", "read_report") in read  # the walk sees reads
        assert sorted(f"{m}.{a}" for m, a in read
                      if not hasattr(modules[m], a)) == []

    @pytest.mark.parametrize("group", [None, 256], ids=["default", "256"])
    def test_large_bag_scoring_runs_in_process(self, tmp_path, monkeypatch,
                                               group):
        # one tiny pass of the workload's own code, its checks included:
        # they walk accessor chains such as pooling_classes().embeddings
        # .data and slide_feature(bag).columns that the names above miss.
        # At 256 patches a pass, its larger bags are streamed in blocks,
        # spread over the helper threads.
        from slipmil import pooling
        if group is not None:
            monkeypatch.setattr(pooling, "GROUP_PATCHES", group)
        streamed = []
        stream = pooling._streamed_slip
        monkeypatch.setattr(pooling, "_streamed_slip", lambda p, *a: (
            streamed.append(len(p)) or stream(p, *a)))
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads
        wl = workloads.LargeBagScoring(tmp_path, 0, True)
        wl.prepare()
        wl.setup()
        wl.begin_pass(0)
        records = []
        for op in wl.pass_ops(0):
            rec = workloads.Record(op, 0)
            wl.check(op, wl.run(op), rec)
            records.append(rec)
        wl.final_check(records)
        assert [r.error for r in records] == [None] * len(records)
        assert wl.problems == [] and wl.checks_run > 0
        assert bool(streamed) == (group is not None)


class TestTestOnlyDependencies:
    def test_import_leaves_out_mpmath(self):
        code = "import sys, slipmil; print('mpmath' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)}
                             ).stdout
        assert out.strip() == "False"

    def test_import_stays_light(self):
        # every benchmark workload times a fresh `import slipmil`
        heavy = ("concurrent.futures", "logging", "argparse", "json")
        code = (f"import sys, slipmil; "
                f"print([m for m in {heavy!r} if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)}
                             ).stdout
        assert out.strip() == "[]"

    def test_no_runtime_module_imports_mpmath(self):
        offenders = [path.name for path in MODULES
                     if "mpmath" in _imported_modules(path)]
        assert offenders == []


class TestTrainSettingsReachCli:
    def test_every_train_config_field_has_a_flag(self):
        # a TrainConfig field the CLI never sets is a knob only tests turn:
        # a non-default value on every train flag moves every field
        from slipmil.cli import _flag_config, build_parser
        from slipmil.trainer import TrainConfig
        args = build_parser().parse_args([
            "train", "--data", "d", "--tissues", "t", "--classes", "c",
            "--out", "o", "--tau", "0.5", "--lr", "0.5", "--epochs", "3",
            "--shots", "2", "--seed", "5", "--pooling", "topk",
            "--context-length", "2", "--dt", "8", "--encoder-seed", "1",
            "--topk-k", "3"])
        cfg, default = _flag_config(args), TrainConfig()
        assert sorted(f.name for f in dataclasses.fields(TrainConfig)
                      if getattr(cfg, f.name) == getattr(default, f.name)
                      ) == []

    def test_every_train_config_field_is_a_report_setting(self):
        # eval --report rebuilds the TrainConfig from these settings alone
        from slipmil.cli import REPORT_SETTINGS
        from slipmil.trainer import TrainConfig
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        stored = set(REPORT_SETTINGS.values())
        assert sorted(fields - stored) == []


TEXT_SIDE = ("from_descriptions", "encode_texts", "log_tissue_wsi_similarity")
MODEL_SIDE = ("Pipeline", "FrozenEncoderWeights.create")


def calls_outside(source: str, names, allowed=()) -> list[str]:
    """Calls of a function named in `names`, by its own name or as
    "Owner.name", reported as "name (line n)", outside the module-level
    functions and methods named in `allowed` ("function", "Class.method")."""
    tree = ast.parse(source)
    skipped = set()
    for node in tree.body:
        prefix, scopes = "", [node]
        if isinstance(node, ast.ClassDef):
            prefix, scopes = node.name + ".", node.body
        for scope in scopes:
            if (isinstance(scope, ast.FunctionDef)
                    and prefix + scope.name in allowed):
                skipped.update(map(id, ast.walk(scope)))
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in skipped:
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if isinstance(getattr(func, "value", None), ast.Name) \
                    and f"{func.value.id}.{name}" in names:
                name = f"{func.value.id}.{name}"
            if name in names:
                calls.append(f"{name} (line {node.lineno})")
    return sorted(calls)


class TestOneTextSide:
    """Tissue prompts, raw class prompts and S_wsi are built by the Pipeline
    in pooling.py, from tissues that only TrainConfig.pipeline encodes."""

    def test_detects_calls_outside_the_allowed_method(self):
        source = ("class A:\n    def ok(self):\n"
                  "        return T.from_descriptions(w, d)\n"
                  "def f():\n    return log_tissue_wsi_similarity(c, t, 1)\n"
                  "class B:\n    def ok(self):\n"
                  "        return encode_texts(w, n)\n")
        assert calls_outside(source, TEXT_SIDE, {"A.ok"}) == [
            "encode_texts (line 8)", "log_tissue_wsi_similarity (line 5)"]

    @pytest.mark.parametrize("path", [p for p in MODULES
                                      if p.name != "pooling.py"],
                             ids=lambda p: p.name)
    def test_runtime_module(self, path):
        source = path.read_text(encoding="utf-8")
        assert calls_outside(source, TEXT_SIDE, {"TrainConfig.pipeline"}) == []


class TestOneModelPath:
    """Every command, zero-shot included, builds its Pipeline and draws its
    encoder through TrainConfig.pipeline; only synth.generate draws an
    encoder of its own, for the archetypes."""

    def test_detects_calls_outside_the_allowed_function(self):
        source = ("def generate():\n"
                  "    return FrozenEncoderWeights.create(1)\n"
                  "def f(w):\n    return Pipeline(w), Other.create(2)\n"
                  "class C:\n    def g(self):\n"
                  "        return FrozenEncoderWeights.create(3)\n")
        assert calls_outside(source, MODEL_SIDE, {"generate"}) == [
            "FrozenEncoderWeights.create (line 7)", "Pipeline (line 4)"]

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_runtime_module(self, path):
        source = path.read_text(encoding="utf-8")
        assert calls_outside(source, MODEL_SIDE, {
            "TrainConfig.pipeline", "generate"}) == []


def _imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names
