"""The names the package exports and the names README.md cites exist, and
each exported name has a reader."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import qyt

README = Path(__file__).resolve().parent.parent / "README.md"

# `qyt.<module>`, `qyt.<module>.<name>` or a call such as `qyt.<module>.<name>(x)`
_CITED = re.compile(r"`qyt\.(\w+)((?:\.\w+)*)[`(]")


def test_every_exported_name_resolves():
    assert [name for name in qyt.__all__ if not hasattr(qyt, name)] == []


def test_every_exported_name_is_its_defining_modules_object():
    # what `import qyt` binds on first use is the object its module defines
    for name in qyt.__all__:
        assert name in dir(qyt)
        obj = getattr(qyt, name)
        if inspect.ismodule(obj):
            assert obj is importlib.import_module(f"qyt.{name}")
        else:
            home = qyt._HOME[name]
            assert obj is getattr(importlib.import_module(f"qyt.{home}"), name)
            assert getattr(obj, "__module__", f"qyt.{home}") == f"qyt.{home}"


def test_every_name_the_readme_cites_resolves():
    cited = _CITED.findall(README.read_text(encoding="utf-8"))
    assert cited  # the module table alone cites every module
    missing = []
    for module, attrs in cited:
        obj = importlib.import_module(f"qyt.{module}")
        for attr in attrs.split(".")[1:]:
            if not hasattr(obj, attr):
                missing.append(f"qyt.{module}{attrs}")
                break
            obj = getattr(obj, attr)
    assert missing == []


SRC = Path(qyt.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

#: Exported names that nothing in `src/qyt` or the acceptance criteria
#: reads, each with the reason it is still exported.
_UNREAD = {
    "SuiteReport": "the type every suite returns; the CLI reads its fields, not its name",
    "des": "the descent count of a word, for library callers",
    "maj": "the major index of a word, for library callers",
    "inverse": "the inverse of a permutation, for library callers",
    "des_maj_counts": "(des, maj) of one shape's standard fillings, read off the walk",
    "signature_of": "the sign word of a word or filling, the input of ribbon_rows",
    "foulkes_multiplicity": "one Foulkes count; the foulkes suite reads a shape's counts at once",
    "polya_dimension_check": "one (n, m) of the polya identity; the suite shares work across m",
}


def _reads(path):
    """(module, name) for each name the file at `path` imports from qyt
    or reads as an attribute of a qyt module or of qyt itself; a bare
    identifier is not a read."""
    modules = {}  # local name -> qyt module it is bound to ("" for qyt)
    reads = set()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qyt":
                    modules[alias.asname or "qyt"] = alias.name[4:] if alias.asname else ""
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "qyt":
                    continue
                module = module[4:]
            for alias in node.names:
                if module or alias.name in qyt._HOME:
                    reads.add((module or qyt._HOME[alias.name], alias.name))
                else:  # a submodule, such as `from . import _kernels`
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in modules:
                module = modules[owner.id]
            elif (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                  and modules.get(owner.value.id) == ""):
                module = owner.attr
            else:
                continue
            reads.add((module or qyt._HOME.get(node.attr, ""), node.attr))
    return reads


def test_every_exported_name_has_a_reader():
    # a name that no command, suite or acceptance criterion reads is a
    # second copy of something, or dead: delete it or give the reason
    reads = set().union(*map(_reads, [*sorted(SRC.glob("*.py")), ACCEPTANCE]))
    unread = {name for name, module in qyt._HOME.items() if (module, name) not in reads}
    assert sorted(unread - _UNREAD.keys()) == []
    assert sorted(_UNREAD.keys() - unread) == []
