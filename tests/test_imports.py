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
        ) and isinstance(node.value, ast.List) and all(
            isinstance(item, ast.Constant) for item in node.value.elts
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


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names of ``sources`` (file name -> code) that none of them reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{name}: {d} (line {node.lineno})" for d in defined
                       if d.startswith("_") and not (d.startswith("__") and d.endswith("__"))
                       and d not in read]
    return sorted(unused)


def test_detects_unused_private_name():
    sources = {
        "a.py": "_KEPT = 1\n_DROPPED = 2\ndef _helper():\n    return _KEPT\n"
                "def __dir__():\n    pass\n",
        "b.py": "from a import _helper\nclass _Orphan:\n    pass\nvalue = _helper()\n",
    }
    assert unused_private_names(sources) == ["a.py: _DROPPED (line 2)", "b.py: _Orphan (line 2)"]


def test_every_private_name_is_used_in_the_package():
    # a helper that only tests call belongs in the tests
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


def fresh_interpreter(probe: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


SCIPY_LOADED = "print(sorted({m for m in sys.modules if m.split('.')[0] == 'scipy'}))"


def test_cli_import_leaves_scipy_integrate_unloaded():
    heavy = ["scipy.integrate", "scipy.interpolate", "scipy.linalg", "scipy.optimize",
             "scipy.sparse"]
    probe = f"import sys, taperfwm.cli; print([m for m in {heavy!r} if m in sys.modules])"
    assert fresh_interpreter(probe) == "[]"


def test_cli_import_leaves_concurrent_futures_unloaded():
    # cmd_jsi imports its thread pool itself, so the other commands do not pay for it
    assert fresh_interpreter("import sys, taperfwm.cli; print('concurrent.futures' in sys.modules)") == "False"


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


def test_cli_commands_load_no_scipy(tmp_path):
    # the mode solver's Bessel kernels are the package's own, so no command needs scipy
    tags = str(tmp_path / "tags.txt")
    runs = [
        ["modes", "--diameter_nm", "900", "--wavelength_points", "5",
         "--out_dir", str(tmp_path / "modes")],
        ["jsi", "--diameter_nm", "900", "--length_mm", "14", "--n_segments", "2",
         "--grid_points", "8", "--out_dir", str(tmp_path / "jsi")],
        ["tags", "simulate", "--duration_s", "0.001", "--tags_out", tags],
        ["tags", "coincidences", "--tags_in", tags, "--out_dir", str(tmp_path / "tags")],
        ["tags", "g2h", "--tags_in", tags, "--out_dir", str(tmp_path / "tags")],
    ]
    probe = (
        "import contextlib, io, sys\n"
        "from taperfwm.cli import main\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "seen = [scipy_modules()]\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    seen.append(scipy_modules())\n"
        "print(seen)\n"
    )
    assert fresh_interpreter(probe) == repr([[]] * (len(runs) + 1))


def test_package_imports_no_scipy():
    # every import node, so that one deferred into a function is found too
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def test_phase_matched_pair_loads_no_scipy_optimize():
    # the pair is found by the mode solver's own bracketed root finder
    probe = (
        "import sys, taperfwm as tf\n"
        "w = 2 * 3.141592653589793 * 299792458.0\n"
        "tf.phase_matched_pair(tf.CrossSection(885e-9), w / 1062e-9, (w / 950e-9, w / 850e-9))\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    assert fresh_interpreter(probe) == "False"


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
