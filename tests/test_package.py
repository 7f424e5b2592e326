"""The package namespace: public names resolve on first use (PEP 562)."""

import subprocess
import sys
from pathlib import Path

import pytest

import telespline


@pytest.mark.parametrize("name", telespline.__all__)
def test_every_public_name_resolves_to_its_definition(name):
    value = getattr(telespline, name)
    assert value.__name__ == name
    assert value.__module__.startswith("telespline.")
    assert vars(telespline)[name] is value  # later lookups skip __getattr__


def test_dir_lists_every_public_name():
    assert set(telespline.__all__) <= set(dir(telespline))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from telespline import *", namespace)
    assert {name: namespace[name] for name in telespline.__all__} == {
        name: getattr(telespline, name) for name in telespline.__all__
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'telespline' has no attribute 'solve_fast'"):
        telespline.solve_fast
    assert not hasattr(telespline, "stability_report")


def test_import_loads_no_submodule():
    source = Path(telespline.__file__).resolve().parents[1]
    probe = "import sys, telespline; print(sorted(m for m in sys.modules if m.startswith('telespline.')))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=source,
        timeout=60,
    )
    assert result.stdout.strip() == "[]"
