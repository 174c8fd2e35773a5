"""Package imports: no unused names, and no heavy module the package does not need."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "taperfwm"


def unused_imports(source: str) -> list[str]:
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
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detects_unused_import():
    assert unused_imports("import os\nfrom typing import Optional, Union\nx: Optional[int]\n") == [
        "Union (line 2)", "os (line 1)",
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def fresh_interpreter(probe: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


SCIPY_LOADED = "print(sorted({m for m in sys.modules if m.split('.')[0] == 'scipy'}))"


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.special is the one scipy module the CLI needs at import
    heavy = ["scipy.integrate", "scipy.interpolate", "scipy.linalg", "scipy.optimize",
             "scipy.sparse"]
    probe = f"import sys, taperfwm.cli; print([m for m in {heavy!r} if m in sys.modules])"
    assert fresh_interpreter(probe) == "[]"


@pytest.mark.parametrize("statement", ["import taperfwm", "import taperfwm.tags"])
def test_package_and_tags_import_no_scipy(statement):
    assert fresh_interpreter(f"import sys\n{statement}\n{SCIPY_LOADED}") == "[]"


def test_floattext_needs_no_scipy():
    probe = (
        "import sys, taperfwm._floattext as module\n"
        "assert module.format_rows([[1.5, -2e-300]]) == b'1.5,-2e-300\\n'\n"
        f"{SCIPY_LOADED}\n"
    )
    assert fresh_interpreter(probe) == "[]"


def test_only_module_level_scipy_import_is_special_in_dispersion():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] == "scipy"]
    assert found == [("dispersion.py", "scipy.special")]


def test_lazy_package_keeps_its_public_names():
    import taperfwm

    namespace = {}
    exec("from taperfwm import *", namespace)
    assert all(namespace[name] is getattr(taperfwm, name) for name in taperfwm.__all__)
    names = set(taperfwm.__all__) - {"__version__"}
    for name in names:
        owner = getattr(taperfwm, taperfwm._SUBMODULE_OF[name])
        assert getattr(taperfwm, name) is getattr(owner, name)
    expected = names | {"biphoton", "dispersion", "profile", "rates", "tags"}
    public = {name for name in dir(taperfwm) if not name.startswith("_")}
    assert expected <= public
    # beyond those, only submodules imported elsewhere (such as cli)
    assert all(isinstance(getattr(taperfwm, name), types.ModuleType) for name in public - expected)
    with pytest.raises(AttributeError, match="no_such_name"):
        taperfwm.no_such_name


def imported_modules(source: str) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_scipy_constants(module):
    # the two physical constants the package needs are exact SI literals
    assert "scipy.constants" not in imported_modules((PACKAGE / module).read_text(encoding="utf-8"))


def test_exact_constants_equal_scipy():
    import scipy.constants

    from taperfwm.dispersion import C_VAC
    from taperfwm.rates import HBAR

    assert C_VAC == scipy.constants.c
    assert HBAR == scipy.constants.hbar
