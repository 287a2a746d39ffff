"""The names the package exports and the names README.md cites exist."""

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
