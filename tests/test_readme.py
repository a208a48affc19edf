"""The README names only what the package exports: every identifier in its
"## Modules" list and in the library example's import list resolves as an
attribute of ``chaos_bounds`` and is listed in ``__all__``."""
import functools
import importlib
import re
from pathlib import Path

import chaos_bounds

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_names_are_exported():
    modules = section("Modules")
    names = []
    for token in re.findall(r"`([A-Za-z][A-Za-z0-9_.]*)`", modules):
        head, *rest = token.split(".")
        if head == "chaos_bounds":  # a module path
            importlib.import_module(token)
        else:  # a name, or an attribute of one
            names.append(head)
            functools.reduce(getattr, rest, getattr(chaos_bounds, head))
    example = section("Library example")
    imports = re.search(r"from chaos_bounds import \(([^)]*)\)", example).group(1)
    names += re.findall(r"[A-Za-z_][A-Za-z0-9_]*", imports)
    assert "cluster_bounds_for_law" in names and "verify_gaussian_bound" in names
    missing = [n for n in names if not hasattr(chaos_bounds, n) or n not in chaos_bounds.__all__]
    assert not missing
