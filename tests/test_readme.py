"""README's Quick start runs as written, its list of public names is the package's,
and every package name it quotes with its module exists."""

import importlib
import pkgutil
import re
import warnings
from pathlib import Path

import magnonsteer

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The text of README's ``## title`` section, up to the next heading of that level."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def test_quick_start_runs_with_warnings_as_errors(capsys):
    quick = section("Quick start")
    (code,) = re.findall(r"```python\n(.*?)```", quick, flags=re.DOTALL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md#quick-start", "exec"), {})
    assert capsys.readouterr().out


def test_all_is_the_list_of_public_names():
    quick = section("Quick start")
    listed = quick[quick.index("The package's top level holds"):quick.index("Every other helper")]
    names = re.findall(r"`([A-Za-z_]+)`", listed)
    assert len(names) == len(set(names))
    assert f"these {len(names)} names" in listed
    assert sorted(magnonsteer.__all__) == sorted(names)
    assert all(hasattr(magnonsteer, name) for name in names)


def test_quoted_module_names_exist():
    # a backticked `module.name` of a package module, such as `gaussian._gate`,
    # names an attribute of that module, so a deleted helper does not linger here
    modules = {info.name for info in pkgutil.iter_modules(magnonsteer.__path__)}
    quoted = {(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)`", README)
              if module in modules}
    assert len(quoted) >= 10
    missing = [f"{module}.{name}" for module, name in sorted(quoted)
               if not hasattr(importlib.import_module(f"magnonsteer.{module}"), name)]
    assert missing == []
