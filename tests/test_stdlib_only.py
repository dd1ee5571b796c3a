"""The runtime imports nothing outside the standard library, and nothing on
every request's path that only one option needs."""

import ast
import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import flagflow
from test_cli import process_env

SOURCES = sorted(Path(flagflow.__file__).parent.glob("*.py"))


def imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each name a flagflow module imports: (module, None) for
    `import module`, and a relative module with its leading dots, as written."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found += [(module, alias.name) for alias in node.names]
    return found


def test_package_imports_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
        for module, _ in imports(path):
            if not module.startswith("."):
                assert module.split(".")[0] in sys.stdlib_module_names, f"{path.name}: {module}"


def test_only_the_cli_imports_json():
    # one JSON writer: the other modules hand it exact values, which it writes through
    # errors.plain, and encode nothing themselves
    importers = [path.name for path in SOURCES
                 if any(module.split(".")[0] == "json" for module, _ in imports(path))]
    assert importers == ["cli.py"]


def test_only_the_writer_and_the_symbolic_radius_name_plain():
    # plain is json.dumps' default in the CLI's one writer; invariants_of's "pi*p/q"
    # radius is the one text made in the library. The rest hand out exact values
    namers = [path.name for path in SOURCES if path.name != "errors.py"
              and any(name == "plain" for _, name in imports(path))]
    assert namers == ["cli.py", "invariants.py"]


def test_only_errors_and_the_cli_apply_the_digit_and_float_rules():
    # plain() writes rationals at any length and normal_float() is the one float rule;
    # the CLI lifts the digit limit itself only to read input and to write raw ints
    allowed = {"all_digits": {"cli.py", "errors.py"},
               "set_int_max_str_digits": {"cli.py", "errors.py"},
               "float_info": {"errors.py"}}
    mentioned = {}
    for path in SOURCES:
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


def test_a_brief_result_is_never_escaped_again():
    # brief() escapes a value once: repr() of its result, a !r conversion, or a list or
    # tuple of its results formatted by its repr() escapes that text a second time
    def called(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None)

    collections = (ast.List, ast.Tuple, ast.Set, ast.ListComp, ast.SetComp, ast.GeneratorExp)
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if called(node) != "brief":
                continue
            shown, outer = node, parent[node]
            if isinstance(outer, collections):
                shown, outer = outer, parent[outer]
                if called(outer) in ("list", "tuple", "set", "sorted"):
                    shown, outer = outer, parent[outer]
            formatted = isinstance(outer, ast.FormattedValue)
            as_repr = called(outer) in ("repr", "ascii") or (
                formatted and outer.conversion in (ord("r"), ord("a")))
            if as_repr or shown is not node and (formatted or called(outer) == "str"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], found


# a fresh process runs with -S: a site hook (a .pth file, sitecustomize) may import
# modules of its own before flagflow, and the guards below measure flagflow alone
FRESH = [sys.executable, "-S"]


def test_cli_import_leaves_out_csv():
    # csv served only --format csv; a fresh process shows what start-up imports
    code = "import sys, flagflow.cli; print('csv' in sys.modules)"
    out = subprocess.run([*FRESH, "-c", code], env=process_env(), capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "False\n"


def test_start_up_leaves_out_the_oracle_and_invariants():
    # describe and flow load neither the oracle, invariants nor dimcount: the flag
    # computes dim V(delta_P) itself. -X importtime names every module a fresh process
    # imports, at start-up or later
    a2 = ["--type", "A", "--rank", "2"]
    for args in (["-c", "import flagflow.cli"], ["-m", "flagflow.cli", "describe", *a2],
                 ["-m", "flagflow.cli", "flow", *a2, "--class", "1,2"]):
        err = subprocess.run([*FRESH, "-X", "importtime", *args], env=process_env(),
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
        err = subprocess.run([*FRESH, "-X", "importtime", *args], env=process_env(),
                             capture_output=True, text=True, timeout=120, check=True).stderr
        loaded = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()}
        assert "flagflow.flow" in loaded, err[-300:]
        assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & loaded, args


def test_flow_solution_is_the_only_dataclass_and_typing_stays_out():
    # each dataclass costs about 1.5 ms to create on every start-up, and importing typing
    # 5-25 ms; records read by field are namedtuples instead
    found = []
    for path in SOURCES:
        module = importlib.import_module(f"flagflow.{path.stem}".removesuffix(".__init__"))
        found += [name for name, value in vars(module).items() if inspect.isclass(value)
                  and value.__module__ == module.__name__ and dataclasses.is_dataclass(value)]
        assert "typing" not in [name.split(".")[0] for name, _ in imports(path)], path.name
    assert found == ["FlowSolution"], (
        "only FlowSolution may be a dataclass, because the gate's negative controls "
        "(tests/test_acceptance.py) corrupt a trajectory with dataclasses.replace; "
        f"found {found}")
