"""The README's code examples run and print what the README says, and
every library name it writes in backticks exists."""

import builtins
import cmath
import contextlib
import importlib
import inspect
import io
import math
import pathlib
import pkgutil
import re

import numpy as np

import qspeedup

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block of the README's Library section."""
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_the_documented_energy():
    code = library_example()
    documented = re.search(r"\.energy\)\s*# (\S+)", code).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines()[0] == documented


# a README span ending in one of these names a file, not a library attribute
FILE_SUFFIXES = {"csv", "json", "md", "py", "svg", "toml"}


def library_namespace() -> tuple[dict, set]:
    """The heads a dotted README name may start from (the package, its
    modules and classes, math, cmath and numpy) and the flat set of every
    name those and the builtins define, class attributes and dataclass
    fields included."""
    heads = {"qspeedup": qspeedup, "math": math, "cmath": cmath, "numpy": np, "np": np}
    for info in pkgutil.iter_modules(qspeedup.__path__):
        module = importlib.import_module(f"qspeedup.{info.name}")
        heads[info.name] = module
        heads.update((name, value) for name, value in vars(module).items()
                     if inspect.isclass(value) and value.__module__ == module.__name__)
    names = set(heads) | set(dir(builtins)) | set(dir(np.ndarray))
    for value in list(heads.values()):
        names.update(dir(value), getattr(value, "__dataclass_fields__", ()))
    return heads, names


def resolves(chain: str, heads: dict) -> bool:
    """module.name or Class.attribute, looked up one dot at a time."""
    head, *rest = chain.split(".")
    if head not in heads:
        return False
    value = heads[head]
    for part in rest:
        if part in getattr(value, "__dataclass_fields__", ()):
            return True  # a field holds no class attribute to descend into
        if not hasattr(value, part):
            return False
        value = getattr(value, part)
    return True


def call_keywords(span: str, start: int) -> list[str]:
    """The name= keywords at the top level of the call whose argument list
    starts at span[start]."""
    depth, top = 0, []
    for ch in span[start:]:
        depth += (ch in "([{") - (ch in ")]}")
        if depth < 0:
            break
        top.append(ch if depth == 0 else " ")
    return re.findall(r"(?<![\w.=!<>])([A-Za-z_]\w*)=(?!=)", "".join(top))


def accepts(chain: str, keyword: str, heads: dict) -> bool:
    """Whether a callable that chain may name takes keyword; True when the
    chain names nothing (reported as unknown) or has no signature."""
    *path, name = chain.split(".")
    if path and path[0] not in heads:
        return True
    owners = [heads[path[0]]] if path else [builtins, *heads.values()]
    for part in path[1:]:
        owners = [getattr(owner, part, None) for owner in owners]
    targets = [getattr(owner, name) for owner in owners if hasattr(owner, name)]
    for target in targets:
        try:
            params = inspect.signature(target).parameters.values()
        except (TypeError, ValueError):
            return True
        if any(p.name == keyword or p.kind is p.VAR_KEYWORD for p in params):
            return True
    return not targets


def unknown_readme_names(text: str) -> list[str]:
    """Backticked names in text that no library name, builtin, math, cmath
    or numpy name matches: every dotted name (module.name,
    Class.attribute), every name called as name( or written in CamelCase,
    and every span that is one snake_case name (test names excepted).  A
    keyword written as name= in a call the callable does not take is
    listed as chain(name=)."""
    heads, names = library_namespace()
    unknown = []
    for span in re.findall(r"(?<!`)`([^`\n]+)`(?!`)", text):
        whole = re.fullmatch(r"[A-Za-z_]\w*", span)
        for match in re.finditer(r"(?<![\w.\-/])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(\()?",
                                 span):
            chain = match.group(0).rstrip("(")
            if match.group(1):
                unknown += [f"{chain}({keyword}=)" for keyword in call_keywords(span, match.end())
                            if not accepts(chain, keyword, heads)]
            if "." in chain:
                if not (chain.rsplit(".", 1)[1] in FILE_SUFFIXES or resolves(chain, heads)):
                    unknown.append(chain)
            elif (match.group(1) or re.fullmatch(r"[A-Z]\w*[a-z]\w*", chain)
                  or (whole and "_" in chain and not chain.startswith("test_"))):
                if chain not in names:
                    unknown.append(chain)
    return unknown


def test_unknown_name_reader_sees_every_token_form():
    text = ("`SweepRow` `SweepTable.rows()` `propagate_two_level(t, a, params)` "
            "`qsl_three_level` `measures.gone` `fig2.csv` `test_04_x` `gamma0` "
            "`ModelParams` `ChannelColumns.of([params])` `math.expm1` `len(table)` "
            "`tolist()` `spectral.ReservoirIntegral.unit` `SweepTable.curves` "
            "`n_atoms_list` `--lambda 1e-310` `dynamics.amplitude(t, params, initial=None)` "
            "`trajectory(params, tau, steps=8)` `np.linspace(0, 1, num=round(x, ndigits=2))` "
            "`len(a, b=1)` `atan(|d|/lam) = tau` `evaluate_point(p, tau=5, x==1)`")
    assert unknown_readme_names(text) == ["SweepRow", "SweepTable.rows",
                                          "propagate_two_level", "qsl_three_level",
                                          "measures.gone", "dynamics.amplitude(initial=)",
                                          "len(b=)"]


def test_readme_names_only_existing_library_names():
    assert unknown_readme_names(README.read_text(encoding="utf-8")) == []
