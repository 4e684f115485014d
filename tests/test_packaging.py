import ast
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_runtime_dependencies_match_the_imports():
    """``[project] dependencies`` names exactly the third-party packages that
    ``src/fedsynth`` imports, so neither a missing nor an unused one ships."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in declared}
    imported = set()
    for path in sorted((ROOT / "src" / "fedsynth").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"fedsynth"} == names


def test_public_names_resolve_and_are_the_imported_names():
    """``fedsynth.__all__`` lists each name ``__init__.py`` imports, once,
    and nothing else, so a deleted export cannot linger in either."""
    import fedsynth
    tree = ast.parse((ROOT / "src" / "fedsynth" / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert all(hasattr(fedsynth, name) for name in fedsynth.__all__)
    assert sorted(fedsynth.__all__) == sorted(imported)


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_read_json_call_is_inside_a_reading_block():
    """Outside ``store.py``, each ``read_json(...)`` call sits in the body of
    a ``with reading(...)`` block, so a run file that cannot be read, is not
    JSON or is malformed is one error naming it, not a traceback."""
    guarded, unguarded = [], []

    def visit(node, inside, where):
        if isinstance(node, ast.With) and any(
                isinstance(item.context_expr, ast.Call)
                and _called_name(item.context_expr) == "reading" for item in node.items):
            inside = True
        if isinstance(node, ast.Call) and _called_name(node) == "read_json":
            (guarded if inside else unguarded).append(f"{where}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside, where)

    for path in sorted((ROOT / "src" / "fedsynth").glob("*.py")):
        if path.name != "store.py":
            visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), False, path.name)
    assert guarded and unguarded == []


def test_every_file_written_outside_store_goes_through_replacing():
    """Each ``open(...)`` under ``src/`` whose literal mode writes (contains
    "w") is in ``store.py``, where ``replacing`` puts a file in place only
    once it is whole. The audit log's "a" append is the only other write."""
    modes = []
    for path in sorted((ROOT / "src" / "fedsynth").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call) and _called_name(node) == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (kw.value for kw in node.keywords if kw.arg == "mode"), None)
                modes.append((path.name, mode.value if isinstance(mode, ast.Constant) else ""))
    assert {name for name, mode in modes if "w" in mode} == {"store.py"}
    assert [name for name, mode in modes if "a" in mode] == ["experiment.py"]


def test_readme_run_files_table_is_the_run_files_table():
    """The README's "Run files" rows say what ``experiment.RUN_FILES`` says:
    each file's name, the command that writes it and whether it is released."""
    from fedsynth.experiment import RUN_FILES
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Run files\n", 1)[1]
    table = next(block for block in section.split("\n\n") if block.startswith("| file |"))
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.splitlines()[2:]]
    kinds = {"released": True, "operator-only": False}
    assert {name.strip("`"): (command.strip("`"), kinds[kind])
            for name, command, kind, _ in rows} == RUN_FILES
    assert len(rows) == len(RUN_FILES)


def test_readme_config_table_lists_every_key_and_its_default():
    """The README's config table names each key of the config's JSON form
    once (``sweep`` whole, sub-configs by dotted key), and the first code
    span of each default, read as JSON, is that key's default."""
    from fedsynth.experiment import ExperimentConfig
    defaults = {}
    for key, value in ExperimentConfig().to_dict().items():
        if isinstance(value, dict) and key != "sweep":
            defaults.update({f"{key}.{sub}": item for sub, item in value.items()})
        else:
            defaults[key] = value
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("These are all the config keys.", 1)[1]
    table = next(block for block in section.split("\n\n") if block.startswith("| key |"))
    documented = {}
    for line in table.splitlines()[2:]:
        keys, default, _ = (cell.strip() for cell in line.strip("|").split("|"))
        value = json.loads(re.search(r"`([^`]*)`", default).group(1))
        for key in re.findall(r"`([^`]*)`", keys):
            assert key not in documented, key
            documented[key] = value
    assert documented == defaults
