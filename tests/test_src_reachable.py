"""Every ``repro`` module is used by code that is not a test.

The scan parses every ``.py`` file of the program and its entry points
(``src/``, ``jobs/``, ``benchmarks/``, ``perfbench/``) and collects the
modules they import: absolute, relative and function-local imports, plus
the ``"repro.x:fn"`` target strings that perfbench resolves at run time.
A module that only ``tests/`` import is either wired into the program or
deleted; this test makes ``pytest tests/`` fail first. The same holds
per function and class: each one that ``src/repro`` defines is named
somewhere in the program (comments and docstrings do not count). The
same parse also checks that the tuners reach the engine through one
path, that no module but ``graphs/dag.py`` changes a DAG after it is
built, that only ``HistoryRecord.to_row`` serialises a DAG, that no
module branches on an engine's name, that no module but the catalogue
names a job, that the tuners read no simulator ground truth, and that
only Algorithm 1's module reads the source throttle.
"""
import ast
import re
from dataclasses import fields
from pathlib import Path

from repro.sim.engine import OpMetrics
from repro.sim.workloads import SOURCE_RATE_UNITS, full_catalogue

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"
_PROGRAM = (_SRC, _ROOT / "jobs", _ROOT / "benchmarks", _ROOT / "perfbench")
_TARGET = re.compile(r"(repro(?:\.\w+)*):[\w.]+")


def _module_name(path: Path, base: Path) -> str:
    parts = list(path.relative_to(base).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _imported(path: Path, base: Path) -> set[str]:
    """Modules that ``path`` imports; ``from m import x`` also counts
    ``m.x`` in case ``x`` is a submodule."""
    name = _module_name(path, base)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    out: set[str] = set()
    for node in _nodes(path):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                mod = package.rsplit(".", node.level - 1)[0]
                mod += f".{node.module}" if node.module else ""
            else:
                mod = node.module
            out.add(mod)
            out.update(f"{mod}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if m := _TARGET.fullmatch(node.value):
                out.add(m.group(1))
    return out


def _program_imports() -> set[str]:
    out: set[str] = set()
    for base in _PROGRAM:
        for path in base.rglob("*.py"):
            out |= _imported(path, _SRC if base == _SRC else _ROOT)
    return out


def test_every_repro_module_is_imported_by_the_program():
    modules = {_module_name(p, _SRC) for p in (_SRC / "repro").rglob("*.py")}
    used = _program_imports()
    unused = sorted(
        m for m in modules
        if not any(u == m or u.startswith(m + ".") for u in used)
    )
    assert not unused, f"imported only by tests (wire in or delete): {unused}"


def _uses(tree) -> set[str]:
    """Every name ``tree`` uses: ``Name`` ids, ``Attribute`` attrs, import
    aliases and the parts of perfbench's ``"repro.x:a.b"`` targets."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _TARGET.fullmatch(node.value):
                out.update(re.split(r"[.:]", node.value))
    return out


def _unused_defs(tree, used: set[str]) -> list[str]:
    """Non-dunder functions and classes ``tree`` defines that ``used`` lacks."""
    return sorted(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    )


def test_every_repro_symbol_is_used_by_the_program():
    trees = {p: ast.parse(p.read_text()) for base in _PROGRAM for p in base.rglob("*.py")}
    used = set().union(*map(_uses, trees.values()))
    unused = {
        _module_name(p, _SRC): names
        for p, tree in trees.items()
        if p.is_relative_to(_SRC / "repro") and (names := _unused_defs(tree, used))
    }
    assert not unused, f"defined but named only by tests (wire in or delete): {unused}"


def test_symbol_scan_sees_uses():
    src = '''
import numpy.linalg as la
from m import imported
class Used:
    """Mentions orphan() and Orphan, which does not count."""
    def method(self):
        return helper()  # orphan
    def __repr__(self):
        return ""
    def unread(self):
        pass
def helper():
    def inner():
        pass
    return inner
def orphan():
    pass
class Orphan:
    pass
def target():
    pass
def imported():
    pass
def linalg():
    pass
x = Used().method
spec = "repro.m:target.sub"
'''
    tree = ast.parse(src)
    assert _unused_defs(tree, _uses(tree)) == ["Orphan", "orphan", "unread"]


def test_scan_resolves_relative_imports():
    # graphs/similarity.py reaches graphs/ged.py only through ``from .ged``.
    path = _SRC / "repro" / "graphs" / "similarity.py"
    assert "repro.graphs.ged" in _imported(path, _SRC)


def _calls(path: Path, fn: str) -> bool:
    """True when ``path`` calls ``fn`` by name or as an attribute."""
    return any(
        isinstance(node, ast.Call)
        and fn in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in _nodes(path)
    )


def test_tuners_reach_the_engine_only_through_the_deployer():
    # Every tuner deploys through ``core.tuner.Deployer``, so all four see
    # the same simulated system and are counted by one rule; besides the
    # engine itself only the offline history sweep calls ``simulate``.
    allowed = {"repro.sim.engine", "repro.history", "repro.core.tuner"}
    callers = {
        _module_name(p, _SRC) for p in (_SRC / "repro").rglob("*.py") if _calls(p, "simulate")
    }
    assert callers <= allowed, f"call simulate outside the Deployer: {sorted(callers - allowed)}"


#: The fields a ``DataflowDAG`` derives its memoised structure from, and
#: the methods that change a list or dict in place.
_DAG_FIELDS = {"operators", "edges", "sources"}
_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse",
    "update", "setdefault", "popitem",
}


def _dag_field(node) -> bool:
    """True when ``node`` is ``x.operators``/``.edges``/``.sources`` or an
    item of one."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in _DAG_FIELDS


def _dag_field_writes(tree) -> list[int]:
    """Lines of ``tree`` that assign to, delete from or mutate in place a
    DAG field."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            hit = isinstance(node.ctx, (ast.Store, ast.Del)) and _dag_field(node)
        elif isinstance(node, ast.Call):
            f = node.func
            hit = (isinstance(f, ast.Attribute) and f.attr in _MUTATORS and _dag_field(f.value)) or (
                getattr(f, "id", None) in ("setattr", "delattr")
                and len(node.args) > 1
                and getattr(node.args[1], "value", None) in _DAG_FIELDS
            )
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_dag_fields_change_only_in_the_dag_module():
    # ``DataflowDAG`` derives its operator map, adjacency, topological
    # order and canonical key once, so a DAG changed after construction
    # would answer from stale structure.
    own = _SRC / "repro" / "graphs" / "dag.py"
    writes = {
        _module_name(p, _SRC): lines
        for p in (_SRC / "repro").rglob("*.py")
        if p != own and (lines := _dag_field_writes(ast.parse(p.read_text())))
    }
    assert not writes, f"change a DAG after construction: {writes}"


def test_dag_field_scan_sees_writes():
    src = """
dag.edges = []
dag.sources["s"] = "bids"
del g.operators[0]
dag.edges += [("a", "b")]
x.a, dag.sources = 1, {}
dag.edges.append(("a", "b"))
dag.sources.update(s="bids")
dag.operators.sort(key=str)
setattr(dag, "edges", [])
ok = dag.edges[0] + list(dag.sources)
dag.other.append(1)
"""
    assert _dag_field_writes(ast.parse(src)) == list(range(2, 11))


#: The only scope outside ``graphs/dag.py`` that serialises a DAG: the
#: ``dag_json`` key of a record's row form.
_WIRE_SITES = ("repro.history.HistoryRecord.to_row",)


def _json_calls(tree, module: str) -> set[str]:
    """Qualified scope (``module.Class.fn.inner``) of every ``.to_json(``
    and ``.from_json(`` call in ``tree``."""
    out: set[str] = set()

    def visit(node, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
            "to_json", "from_json",
        ):
            out.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return out


def test_only_to_row_serialises_a_dag():
    # History records carry their ``DataflowDAG``, and the Spark fan-outs
    # send their workers an index into inputs pickled with the worker
    # function, so a DAG has no JSON form but ``to_row``'s; any other
    # module parsing or dumping a DAG is a second copy of it (or a dump and
    # re-parse per record).
    own = _SRC / "repro" / "graphs" / "dag.py"
    sites = set().union(*(
        _json_calls(ast.parse(p.read_text()), _module_name(p, _SRC))
        for p in (_SRC / "repro").rglob("*.py")
        if p != own
    ))
    stray = sorted(
        s for s in sites if not any(s == w or s.startswith(w + ".") for w in _WIRE_SITES)
    )
    assert not stray, f"DAG JSON outside HistoryRecord.to_row: {stray}"


def test_json_call_scan_sees_calls():
    src = """
d = DataflowDAG.from_json(s)
class R:
    def to_row(self):
        return {"dag_json": self.dag.to_json()}
def outer():
    def inner(b):
        return [D.from_json(x) for x in b]
    return json.dumps(x), to_json(y)
"""
    assert _json_calls(ast.parse(src), "m") == {"m", "m.R.to_row", "m.outer.inner"}


#: Engine names, which only ``sim.engine.PROFILES`` may key on.
_ENGINES = {"flink", "timely"}


def _engine_name_tests(tree) -> list[int]:
    """Lines of ``tree`` that compare a value with an engine name."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(x, ast.Constant) and x.value in _ENGINES
            for x in (node.left, *node.comparators)
        )
    )


def test_no_module_branches_on_an_engine_name():
    # Every difference between the engines is a field of its
    # ``SystemProfile``; a rule that tests the name instead would be a
    # second place that knows it.
    hits = {
        _module_name(p, _SRC): lines
        for p in (_SRC / "repro").rglob("*.py")
        if (lines := _engine_name_tests(ast.parse(p.read_text())))
    }
    assert not hits, f"branch on an engine name, read its SystemProfile instead: {hits}"


def test_engine_name_scan_sees_comparisons():
    src = """
if system == "flink": pass
ok = "timely" != wl.system
assert "flink" < name
PROFILES = {"flink": 1, "timely": 2}
cat = full_catalogue("flink")
same = system == other
"""
    assert _engine_name_tests(ast.parse(src)) == [2, 3, 4]


#: Catalogue job names and Table II keys: which jobs exist and which
#: column reports each is stated once, in ``sim/workloads.py``.
_LAYOUT = {key for key, _ in SOURCE_RATE_UNITS} | set(full_catalogue("flink")) | set(
    full_catalogue("timely")
)


def _layout_names(tree) -> set[str]:
    """String constants of ``tree`` equal to a job name or Table II key;
    exact values only, so docstrings and comments that mention one do not
    count."""
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in _LAYOUT
    }


def test_only_the_catalogue_names_jobs():
    # Every other module takes a filtered view of the catalogue (by
    # ``Workload.group``); a job name or Table II key spelled elsewhere is
    # a second copy of the evaluation layout.
    own = _SRC / "repro" / "sim" / "workloads.py"
    hits = {
        _module_name(p, _SRC): sorted(names)
        for p in (_SRC / "repro").rglob("*.py")
        if p != own and (names := _layout_names(ast.parse(p.read_text())))
    }
    assert not hits, f"name catalogue jobs outside sim/workloads.py, filter by group instead: {hits}"


def test_layout_scan_sees_names():
    src = '''
"""Evaluates nexmark_q1 and pqp_linear."""
BY_COL = {"Q1": "nexmark_q1", "Linear": "pqp_linear"}
wl = cat["pqp_3way_31"]
name = f"pqp_linear_{i}"
key = ("pqp_2way", system)
ok = wl.group == "Q1"
'''
    assert _layout_names(ast.parse(src)) == {"nexmark_q1", "pqp_linear", "pqp_3way_31", "pqp_2way"}


#: Simulator ground truth on ``OpMetrics``: values no real Flink or
#: Timely job exposes to a tuner.
_GROUND_TRUTH = {
    "busy", "backpressured", "idle", "is_bottleneck_cause", "pa",
    "input_rate", "processed_rate", "output_rate",
}
#: What a real job reports: the backpressure flag and noisy useful time,
#: CPU and processing rate.
_OBSERVED = {"under_backpressure", "observed_busy", "observed_cpu", "observed_rate"}


def test_every_metric_is_classified():
    # A new engine field is either observable or ground truth; one in
    # neither set would slip past the scan below unchecked.
    assert {f.name for f in fields(OpMetrics)} == _GROUND_TRUTH | _OBSERVED


def _ground_truth_reads(tree, module: str) -> set[tuple[str, str, str]]:
    """``(module, innermost function, field)`` for every load of a
    ground-truth field in ``tree``."""
    out: set[tuple[str, str, str]] = set()

    def visit(node, fn: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in _GROUND_TRUTH
        ):
            out.add((module, fn, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, "<module>")
    return out


def test_tuners_read_no_ground_truth():
    # The tuners and Algorithm 1 tune from what a real DSPS exposes: the
    # observed fields of ``OpMetrics`` and the job-level flags.
    repro = _SRC / "repro"
    paths = [repro / "core" / "tuner.py", repro / "core" / "bottleneck.py",
             *sorted((repro / "baselines").glob("*.py"))]
    reads = set().union(*(_ground_truth_reads(ast.parse(p.read_text()), p.stem) for p in paths))
    assert reads == set()


def test_ground_truth_scan_sees_reads():
    src = """
def f(res):
    def g(m):
        return m.busy > 0.9 or m.observed_busy
    m.pa = 1.0
    return [m.input_rate for m in res.metrics.values()]
x = r.idle
"""
    assert _ground_truth_reads(ast.parse(src), "mod") == {
        ("mod", "g", "busy"), ("mod", "f", "input_rate"), ("mod", "<module>", "idle"),
    }


def _throttle_reads(tree) -> list[int]:
    """Lines of ``tree`` that load a ``.throttle`` attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "throttle" and isinstance(node.ctx, ast.Load)
    )


def test_only_bottleneck_reads_the_throttle():
    # ``SimResult.throttle`` is Flink's source throttle α. The engine only
    # sets it; the rules that read it (saturation labels, the detection
    # edge) live in ``core/bottleneck.py``, so no tuner keeps its own copy.
    own = _SRC / "repro" / "core" / "bottleneck.py"
    hits = {
        _module_name(p, _SRC): lines
        for p in (_SRC / "repro").rglob("*.py")
        if p != own and (lines := _throttle_reads(ast.parse(p.read_text())))
    }
    assert not hits, f"read SimResult.throttle outside core/bottleneck.py: {hits}"


def test_throttle_scan_sees_reads():
    src = """
ok = res.throttle < 0.95
a = r.metrics, self.last.throttle
res.throttle = 1.0
SimResult(system="x", metrics={}, job_backpressure=False, throttle=alpha)
throttle = 0.5
f(getattr(res, "other"), x.throttle)
"""
    assert _throttle_reads(ast.parse(src)) == [2, 3, 7]
