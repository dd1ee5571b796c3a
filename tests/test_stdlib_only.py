"""The runtime imports nothing outside the standard library, and nothing on
every request's path that only one option needs."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import flagflow


def test_package_imports_only_the_standard_library():
    sources = sorted(Path(flagflow.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name}: {name}"


def test_only_the_cli_imports_json():
    # one JSON writer: the other modules hand exact values to it, or to errors.plain,
    # and encode nothing themselves
    sources = sorted(Path(flagflow.__file__).parent.glob("*.py"))
    importers = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if "json" in [name.split(".")[0] for name in names]:
                importers.append(path.name)
    assert importers == ["cli.py"]


def test_only_errors_and_the_cli_apply_the_digit_and_float_rules():
    # plain() writes exact values at any length and normal_float() is the one float rule;
    # the CLI lifts the digit limit itself only to read input and to write raw ints
    allowed = {"all_digits": {"cli.py", "errors.py"},
               "set_int_max_str_digits": {"cli.py", "errors.py"},
               "float_info": {"errors.py"}}
    mentioned = {}
    for path in sorted(Path(flagflow.__file__).parent.glob("*.py")):
        names = mentioned[path.name] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update({node.name.rsplit(".", 1)[-1], node.asname})
            elif isinstance(node, ast.FunctionDef):
                names.add(node.name)
    for name, files in allowed.items():
        found = {module for module, names in mentioned.items() if name in names}
        assert "errors.py" in found and found <= files, (name, sorted(found))


# a fresh process runs with -S: a site hook (a .pth file, sitecustomize) may import
# modules of its own before flagflow, and the guards below measure flagflow alone
FRESH = [sys.executable, "-S"]


def fresh_env() -> dict:
    src = str(Path(flagflow.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_out_csv():
    # csv served only --format csv; a fresh process shows what start-up imports
    code = "import sys, flagflow.cli; print('csv' in sys.modules)"
    out = subprocess.run([*FRESH, "-c", code], env=fresh_env(), capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "False\n"


def test_start_up_leaves_out_the_oracle_and_invariants():
    # describe and flow load neither the oracle, invariants nor dimcount: the flag
    # computes dim V(delta_P) itself. -X importtime names every module a fresh process
    # imports, at start-up or later
    a2 = ["--type", "A", "--rank", "2"]
    for args in (["-c", "import flagflow.cli"], ["-m", "flagflow.cli", "describe", *a2],
                 ["-m", "flagflow.cli", "flow", *a2, "--class", "1,2"]):
        err = subprocess.run([*FRESH, "-X", "importtime", *args], env=fresh_env(),
                             capture_output=True, text=True, timeout=60, check=True).stderr
        loaded = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()}
        assert "flagflow.flow" in loaded, err[-300:]
        assert not {"flagflow.oracle", "flagflow.invariants", "flagflow.dimcount"} & loaded


def test_no_command_loads_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, about 10 ms of every start-up;
    # FlowSolution builds its dataclass fields only when something reads them
    a2 = ["--type", "A", "--rank", "2"]
    for args in (["-c", "import flagflow.cli"], ["-m", "flagflow.cli", "describe", *a2],
                 ["-m", "flagflow.cli", "flow", *a2, "--class", "1,2"],
                 ["-m", "flagflow.cli", "invariants", *a2, "--divisor", "1,1", "--lct-m", "1"],
                 ["-m", "flagflow.cli", "check", "--seed", "0"]):
        err = subprocess.run([*FRESH, "-X", "importtime", *args], env=fresh_env(),
                             capture_output=True, text=True, timeout=120, check=True).stderr
        loaded = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()}
        assert "flagflow.flow" in loaded, err[-300:]
        assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & loaded, args


def test_flow_solution_is_the_only_dataclass_and_typing_stays_out():
    # each dataclass costs about 1.5 ms to create on every start-up, and importing typing
    # 5-25 ms; records read by field are namedtuples instead
    sources = sorted(Path(flagflow.__file__).parent.glob("*.py"))
    found = []
    for path in sources:
        module = importlib.import_module(f"flagflow.{path.stem}".removesuffix(".__init__"))
        found += [name for name, value in vars(module).items() if inspect.isclass(value)
                  and value.__module__ == module.__name__ and dataclasses.is_dataclass(value)]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "typing" not in [name.split(".")[0] for name in names], path.name
    assert found == ["FlowSolution"], (
        "only FlowSolution may be a dataclass, because the gate's negative controls "
        "(tests/test_acceptance.py) corrupt a trajectory with dataclasses.replace; "
        f"found {found}")
