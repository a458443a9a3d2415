"""README's "Public API" section against the names the package exports."""

import re
import types
from pathlib import Path

import amplecones

README = Path(__file__).resolve().parents[1] / "README.md"


def listed_names() -> dict:
    """{module: names} read off the bullets of README's Public API section."""
    section = README.read_text(encoding="utf-8").split("\n## Public API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    listed = {}
    for bullet in section.split("\n- ")[1:]:
        module, names = bullet.split(":", 1)
        listed[module.strip("`")] = re.findall(r"`(\w+)`", names)
    return listed


def test_readme_lists_every_public_name_once():
    public = [
        name
        for name, value in vars(amplecones).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    listed = [name for names in listed_names().values() for name in names]
    assert sorted(listed) == sorted(public)


def test_each_name_is_listed_under_the_module_that_defines_it():
    for module, names in listed_names().items():
        for name in names:
            assert getattr(amplecones, name).__module__ == module, (module, name)
