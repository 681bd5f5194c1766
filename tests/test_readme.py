"""README's Quick start runs as written, and its list of public names is the package's."""

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
