"""The names the package exports and the names README.md cites exist, and
each exported name, and each public method of an exported class, has a
reader."""

import ast
import importlib
import inspect
import re
from pathlib import Path
from types import FunctionType

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

#: Exported names, and "Class.method" for public methods of exported
#: classes, that nothing in `src/qyt` or the acceptance criteria reads,
#: each with the reason it is still kept.
_UNREAD = {
    "SuiteReport": "the type every suite returns; the CLI reads its fields, not its name",
    "Tableau.is_quasi_yamanouchi": "the paper's definition of its objects, which qyt counts",
    "Tableau.destandardize": "the paper's bijection from standard fillings onto its objects",
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
    kept = {name for name in _UNREAD if "." not in name}
    assert sorted(unread - kept) == []
    assert sorted(kept - unread) == []


#: The exported classes, by name.
_CLASSES = {name: obj for name in qyt.__all__ if inspect.isclass(obj := getattr(qyt, name))}

#: "Class.method" for each public method and property an exported class defines.
_METHODS = {f"{name}.{attr}" for name, cls in _CLASSES.items()
            for attr, value in vars(cls).items() if not attr.startswith("_")
            and isinstance(value, (FunctionType, classmethod, staticmethod, property))}


def _method_reads(path):
    """The names in _METHODS that the file at `path` reads: "C.m" for each
    attribute read `.m` outside the body of m itself, for every exported
    class C that defines m.  A read qualified by an exported class reads
    only that class's method: `Partition.size` is no read of
    `Tableau.size`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = set()  # the reads of a method inside its own body
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in _CLASSES:
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    own.update(id(sub) for sub in ast.walk(fn)
                               if isinstance(sub, ast.Attribute) and sub.attr == fn.name)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in own:
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            reads.update(f"{name}.{node.attr}" for name in _CLASSES
                         if owner not in _CLASSES or owner == name)
    return reads & _METHODS


def test_every_public_method_has_a_reader():
    # a method that nothing in `src/qyt` or the acceptance criteria reads
    # is dead library surface: delete it or give the reason
    reads = set().union(*map(_method_reads, [*sorted(SRC.glob("*.py")), ACCEPTANCE]))
    unread = _METHODS - reads
    kept = {name for name in _UNREAD if "." in name}
    assert sorted(unread - kept) == []
    assert sorted(kept - unread) == []
