import ast
import importlib
import inspect
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import typing
from pathlib import Path

import hietan
from hietan.cli import main


def test_star_import_resolves_all():
    namespace: dict = {}
    exec("from hietan import *", namespace)
    missing = [name for name in hietan.__all__ if name not in namespace]
    assert not missing
    assert len(set(hietan.__all__)) == len(hietan.__all__)


def test_no_package_attribute_shadows_a_submodule():
    """``hietan.<name>`` is the submodule ``<name>`` for every submodule, so
    ``import hietan.<name> as m`` gives the module, not a function that
    ``__init__`` re-exported under the same name."""
    names = [m.name for m in pkgutil.iter_modules(hietan.__path__) if m.name != "__main__"]
    assert "structure" in names
    shadowed = [
        name for name in names
        if importlib.import_module(f"hietan.{name}") is not getattr(hietan, name)
    ]
    assert not shadowed
    assert hietan.hie_mst is hietan.structure.hie_mst


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    """Only ``cv``'s statistics need ``scipy.stats``, which is slow to import,
    so no module imports it at load time."""
    code = "import sys, hietan.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_every_annotation_resolves():
    """``typing.get_type_hints`` resolves the annotations of every function,
    class and method that a ``hietan`` module defines, so each name an
    annotation uses is imported where it is written."""
    failed = []
    for info in pkgutil.iter_modules(hietan.__path__):
        module = importlib.import_module(f"hietan.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if inspect.isclass(obj):
                for member in vars(obj).values():
                    member = getattr(member, "__func__", member)  # static/class methods
                    members += [getattr(member, "fget", member)]  # properties
            for member in members:
                if inspect.isfunction(member) or inspect.isclass(member):
                    try:
                        typing.get_type_hints(member)
                    except NameError as exc:
                        failed.append(f"{member.__module__}.{member.__qualname__}: {exc}")
    assert not failed


SRC = Path(__file__).resolve().parents[1] / "src" / "hietan"


def _imports(path):
    """(module, names) of each import statement of a source file; a plain
    ``import`` names no members."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, []) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", [alias.name for alias in node.names]


def test_no_module_imports_decimal():
    """Ranking settles every score with integer arithmetic, so no module of
    the package imports ``decimal``. The sources are scanned, rather than
    ``sys.modules``, so NumPy's or SciPy's own imports do not count."""
    found = [
        f"{path.name}: {module}"
        for path in sorted(SRC.rglob("*.py"))
        for module, _ in _imports(path)
        if module.split(".")[0] == "decimal"
    ]
    assert not found


def test_ranking_calls_no_floating_point_log():
    """Ranking scores and keys every pair with integer log series, so no
    result depends on the C library's ``log``: ``mutual_info`` names no
    ``math.log*``, ``np.log*`` or ``numpy.log*``, nor imports one."""
    tree = ast.parse((SRC / "mutual_info.py").read_text(encoding="utf-8"))
    modules = {"math", "np", "numpy"}
    called = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("log")
        and isinstance(node.value, ast.Name) and node.value.id in modules
    ]
    imported = [
        f"{module}.{name}"
        for module, names in _imports(SRC / "mutual_info.py")
        for name in names
        if module.split(".")[0] in modules and name.startswith("log")
    ]
    assert (called, imported) == ([], [])


def test_cli_leaves_the_methods_to_evaluate():
    """``evaluate`` alone maps a method to its learner and trains, so the
    CLI imports no learner module, ``fit``, ``_ranked_pairs``,
    ``derive_seed`` or ``METHOD_*`` constant, and no string in it names a
    method or its ``--method`` flag: it reads them from the method table."""
    modules = {"structure"}
    names = {"fit", "_ranked_pairs", "derive_seed", "hie_mst", "hie_mst_lite",
             "learn_tan_structure"}
    found = [
        (module, imported)
        for module, imported in _imports(SRC / "cli.py")
        if module.split(".")[-1] in modules or (modules | names) & set(imported)
        or any(name.startswith("METHOD_") for name in imported)
    ]
    spelled = set(hietan.ALL_METHODS) | {m.replace("_", "-") for m in hietan.ALL_METHODS}
    constants = [
        node.value
        for node in ast.walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in spelled
    ]
    assert (found, constants) == ([], [])


def _where_named(name: str) -> list[str]:
    """Every "module.py:function" of ``src/`` whose code names ``name``, as
    a variable or an attribute, once per use; module-level code is
    "module.py:None"."""
    found = []

    def visit(node, path, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if name in (getattr(child, "id", None), getattr(child, "attr", None)):
                found.append(f"{path.name}:{where}")
            visit(child, path, where)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    return found


def test_lazy_scoring_is_named_only_in_the_per_row_path():
    """``evaluate._per_row`` is the one per-row path: no other function in
    ``src/`` names ``_lazy_predict``, so a new per-row caller reuses that
    path instead of copying its loop and its scoring."""
    assert _where_named("_lazy_predict") == ["evaluate.py:_per_row"]


def test_closure_is_enumerated_only_by_build_dag():
    """``hierarchy.build_dag`` walks the ancestor bits once, through
    ``_closure_arrays``, and keeps the (feature, ancestor) pairs on the
    ``FeatureDag``; ``dataset._violations`` is the one function that reads
    them. No other function in ``src/`` unpacks bits or takes the lowest set
    bit off an int (``x & -x``), and no dense closure matrix comes back, so a
    second enumeration of the closure cannot."""
    assert _where_named("_closure_arrays") == ["hierarchy.py:build_dag"]
    assert _where_named("unpackbits") == ["hierarchy.py:_closure_arrays"]
    for field in ("closure_features", "closure_ancestors"):
        # hierarchy.py:None is the field's declaration.
        assert _where_named(field) == ["dataset.py:_violations", "hierarchy.py:None"]
    lowest_bit = [
        path.name
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitAnd)
        and isinstance(node.right, ast.UnaryOp)
        and isinstance(node.right.op, ast.USub)
    ]
    assert lowest_bit == []
    for gone in ("_iter_bits", "_closure_pairs"):
        assert _where_named(gone) == []
    assert _where_named("_closure_matrix") == []


def test_hierarchy_keeps_one_bitset_closure():
    """The learners, the generator and ``sink_features`` read every
    relation off ``ancestor_bits``; no descendant bitsets are built or kept
    beside them."""
    assert _where_named("descendant_bits") == []


def test_dataset_files_are_not_read_whole():
    """``hierarchy.read_utf8_bytes`` is the one reader of a whole file: a
    dataset's body is streamed a block at a time, and only the part after
    its canonical rows is read in one piece, so a loader that slurps the
    file again shows here."""
    assert _where_named("read_bytes") == ["hierarchy.py:read_utf8_bytes"]


def test_ranking_keeps_no_per_pair_array_or_cache():
    """Only ``mutual_info``'s full read builds every pair's indices: a
    ranking read in part streams its keys from Gram row blocks and keeps
    the best few n. ``mutual_info`` caches nothing that outlives a run."""
    assert _where_named("triu_indices") == ["mutual_info.py:_pair_indices"]
    for name in ("functools", "lru_cache", "cache"):
        assert [w for w in _where_named(name) if w.startswith("mutual_info.py:")] == []


def test_readme_cli_commands_run(tmp_path, monkeypatch, capsys):
    """Every ``hietan`` command of README.md's ```bash blocks, lines ending
    in a backslash joined, exits 0 when run in order in an empty directory."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```bash\n(.*?)^```$", readme, flags=re.M | re.S)
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("hietan ")
    ]
    assert commands
    monkeypatch.chdir(tmp_path)
    for args in commands:
        assert main(args) == 0, args
    assert (tmp_path / "results.json").exists() and (tmp_path / "preds.csv").exists()


def test_readme_python_blocks_run(capsys):
    """Every ```python block of README.md runs as written, each on its own."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_version_is_read_from_the_package():
    """``pyproject.toml`` takes the version from ``hietan.__version__``, a
    literal setuptools reads without importing, rather than repeating it.
    The file is read as text: Python 3.10 has no ``tomllib``."""
    root = Path(__file__).resolve().parents[1]
    text = (root / "pyproject.toml").read_text(encoding="utf-8")
    tables = dict(re.findall(r"^\[([^\]\n]+)\]\n(.*?)(?=^\[|\Z)", text, flags=re.M | re.S))
    assert re.search(r'^dynamic = \["version"\]$', tables["project"], flags=re.M)
    assert not re.search(r"^version\b", tables["project"], flags=re.M)
    assert re.search(r'^version = \{attr = "hietan\.__version__"\}$',
                     tables["tool.setuptools.dynamic"], flags=re.M)
    init = (SRC / "__init__.py").read_text(encoding="utf-8")
    assert re.search(rf'^__version__ = "{re.escape(hietan.__version__)}"$', init, flags=re.M)
