"""The package's module boundary: a module reads only the public names of another.

Each ``src/mcmr/*.py`` is parsed, not imported.  A read of another mcmr
module's underscore-prefixed name, as ``module._name`` or by
``from .module import _name``, is a fault; so is any import of
:mod:`mcmr.rb` by :mod:`mcmr.micromotion`, whose depump fit shares only
:mod:`mcmr.varpro` with the benchmarking fits.
"""

import ast
from pathlib import Path

import mcmr

SRC = Path(mcmr.__file__).resolve().parent
MODULES = frozenset(p.stem for p in SRC.glob("*.py")) - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _boundary(source: str, stem: str, filename: str = "<source>") -> tuple[set, list]:
    """The mcmr modules that module ``stem`` imports, and each read of another
    mcmr module's private name, as ``"filename:line module._name"``."""
    tree = ast.parse(source, filename)
    imported, aliases, faults = set(), {}, []

    def read(owner: str, name: str, node) -> None:
        if owner != stem and _private(name):
            faults.append(f"{filename}:{node.lineno} {owner}.{name}")

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, owner = alias.name.partition(".")
                if package == "mcmr" and owner in MODULES:
                    imported.add(owner)
                    if alias.asname:
                        aliases[alias.asname] = owner
        elif isinstance(node, ast.ImportFrom):
            package, _, owner = ".".join(
                filter(None, ("mcmr" if node.level else "", node.module))).partition(".")
            if package != "mcmr":
                continue
            for alias in node.names:
                if not owner and alias.name in MODULES:  # from . import rb
                    imported.add(alias.name)
                    aliases[alias.asname or alias.name] = alias.name
                elif owner in MODULES:  # from .channels import expm
                    imported.add(owner)
                    read(owner, alias.name, node)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in aliases:
            read(aliases[value.id], node.attr, node)
        elif (isinstance(value, ast.Attribute) and value.attr in MODULES
              and isinstance(value.value, ast.Name) and value.value.id == "mcmr"):
            read(value.attr, node.attr, node)  # mcmr.rb._name
    return imported, faults


def _scan(path: Path) -> tuple[set, list]:
    return _boundary(path.read_text(), path.stem, f"{path.parent.name}/{path.name}")


def test_the_scan_flags_every_form_of_private_read():
    source = ("from . import rb, channels as ch\nimport mcmr.liouville\n"
              "from mcmr.clifford import _TABLE, compose\nfrom .errors import FitError\n"
              "rb._LAWS, ch.expm, ch._expm, mcmr.liouville._BASIS, rb.__name__\n")
    imported, faults = _boundary(source, "rb")
    assert imported == {"rb", "channels", "liouville", "clifford", "errors"}
    assert sorted(faults) == ["<source>:3 clifford._TABLE", "<source>:5 channels._expm",
                              "<source>:5 liouville._BASIS"]
    assert sorted(_boundary(source, "micromotion")[1]) == sorted(faults + ["<source>:5 rb._LAWS"])


def test_no_module_reads_another_modules_private_names():
    faults = [fault for path in sorted(SRC.glob("*.py")) for fault in _scan(path)[1]]
    assert not faults, "private names read across modules:\n" + "\n".join(faults)


def test_micromotion_does_not_import_rb():
    assert "rb" not in _scan(SRC / "micromotion.py")[0]
