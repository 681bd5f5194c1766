"""README's Quick start runs as written, its list of public names is the package's,
and every package name it quotes, with its module or bare, exists."""

import dataclasses
import importlib
import itertools
import json
import pkgutil
import re
import warnings
from pathlib import Path

import magnonsteer
from magnonsteer.measures import MEASURE_KEYS, MODE_LABELS, classify_steering
from magnonsteer.model import DEFAULT_DOCUMENT, DIFFUSION_MODES, DerivedQuantities, SystemParams
from magnonsteer.sweep import CorrelationReport, PointResult

import _oracles

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")

# Symbols of the model's mathematics that README quotes as code
MATH_SYMBOLS = {"Q_x", "V_x", "V_p", "V_ij", "nu_min", "nu_max", "a_in"}


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


def template_fills(name: str):
    """The measure keys a README template such as `G_i_to_jk` stands for.

    Its placeholder letters (a, b, i, j, k), in the parts after the kind that
    hold nothing else, are replaced by distinct mode labels in every way.
    """
    kind, *parts = name.split("_")
    slot = [set(part) <= set("abijk") for part in parts]
    letters = sorted({c for part, placeholder in zip(parts, slot) if placeholder for c in part})
    for labels in itertools.permutations(MODE_LABELS, len(letters)):
        fill = str.maketrans(dict(zip(letters, labels)))
        yield "_".join([kind] + [part.translate(fill) if placeholder else part
                                 for part, placeholder in zip(parts, slot)])


def known_names() -> set[str]:
    modules = [importlib.import_module(f"magnonsteer.{info.name}")
               for info in pkgutil.iter_modules(magnonsteer.__path__)]
    names = {name for module in [magnonsteer, _oracles, *modules] for name in dir(module)}
    names |= set(MEASURE_KEYS) | set(DEFAULT_DOCUMENT) | set(DIFFUSION_MODES) | MATH_SYMBOLS
    names |= {f.name for cls in (SystemParams, PointResult, CorrelationReport)
              for f in dataclasses.fields(cls)}
    names |= set(DerivedQuantities._fields)
    names |= {classify_steering(*pair) for pair in [(0, 0), (1, 0), (0, 1), (1, 1), (1, 2)]}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return names | {workload["name"] for workload in benchmark["workloads"]}


def bare_names(text: str) -> set[str]:
    """The backticked bare snake_case names of ``text``."""
    return {name for name in re.findall(r"`([A-Za-z_]\w*)`", text) if "_" in name}


def unresolved(text: str) -> list[str]:
    """The backticked bare snake_case names of ``text`` that name nothing known."""
    known = known_names()
    return sorted(name for name in bare_names(text)
                  if name not in known and not any(fill in MEASURE_KEYS for fill in template_fills(name)))


def test_quoted_bare_names_exist():
    # a backticked name such as `block_gate` names something the package, the
    # test oracles, a parameter document, a result or the benchmark still has
    assert len(bare_names(README)) >= 80
    assert unresolved(README) == []


def test_quoted_bare_names_catch_a_deleted_helper():
    stale = README + "\n`block_gate` is the same rule for a stack of `Q_x` alone.\n"
    assert unresolved(stale) == ["block_gate"]
    assert unresolved("`G_i_to_jk` and `LN_i_jk`, not `G_i_to_jkl` or `LN_x_yz`") == [
        "G_i_to_jkl", "LN_x_yz"]
