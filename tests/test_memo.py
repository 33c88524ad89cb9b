"""The one memo rule: ``algebra.memoized`` keys every per-module answer by
the arguments after the module, with defaults applied, stores nothing when
the call raises, and is the only code that reads or writes the memos."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from finmod.algebra import FiniteModule, ModuleAnalysis, regular_module, triangular_ring
from finmod.config import DEFAULT_CAPS, Caps, CapExceeded
from finmod.lattice import Submodule, all_submodules
from finmod.product import is_locally_nilpotent, is_nil_submodule

SRC = Path(__file__).resolve().parent.parent / "src" / "finmod"
KEPT = {"memos", "submodules"}


def fresh_t2():
    """T2(Z2) as a module over itself, with an analysis of its own."""
    m = FiniteModule(*regular_module(triangular_ring(2, 2)))
    m.analysis = ModuleAnalysis()
    return m


def memoized_functions():
    """(module name, qualified name) of every function decorated with
    ``memoized`` in the library."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            inside = isinstance(node, ast.ClassDef)
            for fn in node.body if inside else [node]:
                if isinstance(fn, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id == "memoized" for d in fn.decorator_list):
                    found.append((path.stem, f"{node.name}.{fn.name}" if inside else fn.name))
    return found


def resolve(module_name, qualname):
    obj = importlib.import_module(f"finmod.{module_name}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def test_positional_keyword_and_default_calls_share_one_entry():
    m = fresh_t2()
    line = all_submodules(m)[1]
    calls = [
        lambda: is_locally_nilpotent(m, line),
        lambda: is_locally_nilpotent(m, line, DEFAULT_CAPS),
        lambda: is_locally_nilpotent(m, line, caps=DEFAULT_CAPS),
        lambda: is_locally_nilpotent(m, caps=DEFAULT_CAPS, sub=line),
    ]
    assert len({id(call()) for call in calls}) == 1
    assert list(m.analysis.memos[is_locally_nilpotent]) == [(line, DEFAULT_CAPS)]
    verdict = is_nil_submodule(m, line)
    assert is_nil_submodule(m, sub=line) is is_nil_submodule(m, line, caps=DEFAULT_CAPS) is verdict
    assert m.analysis.memos[is_nil_submodule] == {(line, DEFAULT_CAPS): verdict}
    assert Submodule.zero(m) is Submodule.zero(module=m)
    assert m.analysis.memos[Submodule.zero] == {(): Submodule.zero(m)}
    with pytest.raises(TypeError):
        is_nil_submodule(m, line, bogus=1)


def test_memoized_refuses_parameters_it_cannot_key():
    from finmod.algebra import memoized

    for fn in (lambda module, *rest: None, lambda module, **extra: None,
               lambda module, *, caps=None: None, lambda module, memo: None):
        with pytest.raises(TypeError):
            memoized(fn)


def test_every_memoized_function_is_found():
    names = {q for _, q in memoized_functions()}
    assert {"Submodule.zero", "_direct_sum", "_hom_group", "_opposite_end_regular",
            "is_locally_nilpotent", "prime_radical"} <= names
    assert len(names) == 29


def test_a_capped_call_stores_nothing():
    # every memoized function that takes caps, called under caps of 1 with
    # the whole module for each submodule argument, meets a cap and stores
    # nothing
    tiny = Caps(max_module_order=1, max_lattice=1)
    raised = set()
    for module_name, qualname in memoized_functions():
        fn = resolve(module_name, qualname)
        params = list(inspect.signature(fn).parameters)
        if "caps" not in params:
            continue
        m = fresh_t2()
        full = Submodule.full(m)
        fill = {"caps": tiny, "sub": full, "p": full, "base": full}
        with pytest.raises(CapExceeded):
            fn(m, *(fill[p] for p in params[1:]))
        assert not m.analysis.memos[fn], qualname
        raised.add(qualname)
    assert len(raised) == 15


class _AnalysisUses(ast.NodeVisitor):
    """Reads or writes of ``.analysis.memos`` outside ``memoized``, and any
    use of an analysis attribute that ``ModuleAnalysis`` no longer keeps,
    directly (``m.analysis.x``) or through a name bound to an analysis."""

    def __init__(self):
        self.scopes, self.aliases, self.found = [], [set()], []

    def visit_FunctionDef(self, node):
        self.scopes.append(node.name)
        self.aliases.append(set(self.aliases[-1]))
        self.generic_visit(node)
        self.scopes.pop()
        self.aliases.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Assign(self, node):
        if isinstance(node.value, ast.Attribute) and node.value.attr == "analysis":
            self.aliases[-1].update(t.id for t in node.targets if isinstance(t, ast.Name))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        owner = node.value
        if ((isinstance(owner, ast.Attribute) and owner.attr == "analysis")
                or (isinstance(owner, ast.Name) and owner.id in self.aliases[-1])):
            if node.attr not in KEPT or (node.attr == "memos" and "memoized" not in self.scopes):
                self.found.append(f"{'.'.join(self.scopes)} uses .analysis.{node.attr} "
                                  f"(line {node.lineno})")
        self.generic_visit(node)


def analysis_violations(source: str) -> list[str]:
    scan = _AnalysisUses()
    scan.visit(ast.parse(source))
    return scan.found


def test_scan_sees_each_kind_of_use():
    source = (
        "def memoized(fn):\n    return m.analysis.memos\n"
        "def f(m):\n    m.analysis.memos[f] = 1\n"
        "def g(m):\n    info = m.analysis\n    return info.lattice, info.summands, m.analysis.free\n"
        "def h(m):\n    m.analysis.covers = {}\n"
    )
    assert analysis_violations(source) == [
        "f uses .analysis.memos (line 4)",
        "g uses .analysis.lattice (line 7)",
        "g uses .analysis.summands (line 7)",
        "g uses .analysis.free (line 7)",
        "h uses .analysis.covers (line 9)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_memoized_reads_the_memos(path):
    assert analysis_violations(path.read_text()) == []


def test_the_analysis_keeps_two_fields():
    init = next(n for n in ast.walk(ast.parse((SRC / "algebra.py").read_text()))
                if isinstance(n, ast.ClassDef) and n.name == "ModuleAnalysis")
    assigned = {t.attr for n in ast.walk(init) if isinstance(n, ast.Assign)
                for t in n.targets if isinstance(t, ast.Attribute)}
    assert assigned == KEPT == set(ModuleAnalysis.__slots__)
