"""Static checks on the package source (no linter is a dependency)."""

import ast
import importlib
from pathlib import Path

import pytest

import hardedge

SOURCES = sorted(Path(hardedge.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def unused_imports(source: str) -> list:
    """Names a module imports but never reads; names in __all__ count as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import math\nimport os.path\nfrom x import y as z, w\n__all__ = ['w']\nos.sep\n"
    assert unused_imports(source) == ["math", "z"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unbounded_caches(source: str) -> list:
    """Lines that memoize without an integer bound: an lru_cache not called
    with an int maxsize (bare, maxsize=None, or maxsize left to its
    default), and functools.cache, imported by name or read as an attribute."""
    def name(node):
        return getattr(node, "id", getattr(node, "attr", None))

    tree = ast.parse(source)
    bounded = set()  # the lru_cache of each call with an int maxsize
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name(node.func) == "lru_cache":
            sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            if sizes and all(isinstance(size, ast.Constant) and type(size.value) is int
                             for size in sizes):
                bounded.add(id(node.func))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found.update(node.lineno for alias in node.names if alias.name == "cache")
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and name(node.value) == "functools"):
            found.add(node.lineno)
        elif name(node) == "lru_cache" and id(node) not in bounded:
            found.add(node.lineno)
    return sorted(found)


def test_unbounded_caches_are_found():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=128)\ndef f(x):\n    pass\n"
        "@functools.lru_cache(64)\ndef g(x):\n    pass\n"
        "@lru_cache\ndef h(x):\n    pass\n"
        "@lru_cache(maxsize=None)\ndef i(x):\n    pass\n"
        "@functools.cache\ndef j(x):\n    pass\n"
        "@lru_cache(typed=True)\ndef k(x):\n    pass\n"
        "memo = functools.lru_cache(None)(f)\n"
    )
    assert unbounded_caches(source) == [2, 9, 12, 15, 18, 21]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_caches_are_bounded(path):
    # a memo table lives as long as the process, so each holds a fixed
    # number of entries
    assert unbounded_caches(path.read_text()) == []


def z_max_products(source: str, exempt=None) -> list:
    """Lines that multiply Z_MAX (as a name or an attribute), apart from the
    value of a module-level assignment to the name `exempt`."""
    tree = ast.parse(source)
    allowed = {
        id(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == [exempt]
    }

    def is_z_max(node) -> bool:
        return getattr(node, "id", getattr(node, "attr", None)) == "Z_MAX"

    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        and (is_z_max(node.left) or is_z_max(node.right)) and id(node) not in allowed
    )


def test_z_max_products_are_found():
    source = (
        "S_MAX = 4.0 * Z_MAX\nx = S_MAX + Z_MAX\nif y > Z_MAX * 4:\n"
        "    T = 2 * specfun.Z_MAX\nS_MAX = 4.0 * Z_MAX\n"
    )
    assert z_max_products(source) == [1, 3, 4, 5]
    assert z_max_products(source, exempt="S_MAX") == [3, 4]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_s_bound_is_one_constant(path):
    # the s bound 4 Z_MAX is written out once, as specfun.S_MAX
    exempt = "S_MAX" if path.name == "specfun.py" else None
    assert z_max_products(path.read_text(), exempt) == []


def unused_private_helpers(sources: dict) -> list:
    """Module-level functions and classes named _name (dunders aside) that no
    module in `sources` ({module: source}) reads, as "module.name"."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            (module, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
        ]
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_unused_private_helpers_are_found():
    sources = {
        "a": "def _used():\n    pass\n\ndef _orphan():\n    _orphan = 1\n\n"
             "class _Base:\n    pass\n\nclass Child(_Base):\n    pass\n\n"
             "def __getattr__(name):\n    pass\n\n_used()\n",
        "b": "from . import a\n\ndef _via_attribute():\n    pass\n\n"
             "def _unread():\n    pass\n\nx = a._via_attribute\n"
             "def outer():\n    def _inner():\n        pass\n",
    }
    assert unused_private_helpers(sources) == ["a._orphan", "b._unread"]


def test_no_unused_private_helpers():
    assert unused_private_helpers({path.stem: path.read_text() for path in SOURCES}) == []


def unread_members(library: dict, readers: dict) -> list:
    """"module.Class.name" for each method and property (dunders aside) of a
    class in `library` ({module: source}) that no source of `library` or
    `readers` reads as an attribute outside the member's own definition.
    `self.name` is a read for the class it is read in alone, and
    `args.name`, a parsed command-line flag, is a read for none."""
    members, reads = [], []
    for module, source in {**readers, **library}.items():
        tree = ast.parse(source)
        owner = {}  # id of each attribute node -> the innermost class it is in
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                owner.update((id(inner), node.name) for inner in ast.walk(node))
                members += [
                    (module, node.name, item.name, item.lineno, item.end_lineno)
                    for item in node.body if module in library
                    and isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
        reads += [
            (module, node.lineno, node.attr,
             owner.get(id(node)) if getattr(node.value, "id", None) == "self" else None)
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and getattr(node.value, "id", None) != "args"
        ]
    return sorted(
        f"{module}.{cls}.{name}" for module, cls, name, first, last in members
        if not any(attr == name and at_class in (None, cls)
                   and not (at_module == module and first <= line <= last)
                   for at_module, line, attr, at_class in reads)
    )


def test_unread_members_are_found():
    library = {
        "a": "class Rule:\n    @property\n    def m(self):\n        return self.m\n\n"
             "    def integrate(self, v):\n        return v\n\n"
             "    def __call__(self):\n        pass\n\n"
             "class Values:\n    def total(self):\n        return self.m + self.scale\n\n"
             "    @property\n    def scale(self):\n        return 1.0\n\n"
             "class Read:\n    def used(self):\n        pass\n\n"
             "def main(args):\n    return args.integrate\n",
        "b": "from .a import Values\n\nValues().total()\n",
    }
    readers = {"bench": "def run(rule):\n    return rule.used()\n\n"
                        "class Own:\n    def unchecked(self):\n        pass\n"}
    assert unread_members(library, readers) == ["a.Rule.integrate", "a.Rule.m"]


def test_no_unread_members():
    # a member that only the tests call is code the library keeps for no caller
    readers = {f"perfbench.{path.stem}": path.read_text() for path in PERFBENCH.glob("*.py")}
    assert unread_members({path.stem: path.read_text() for path in SOURCES}, readers) == []


# The private names of fredholm that other modules may import: the one
# evaluation entry and the s and m checks.  Every per-s value is read from
# the records _batch returns, not through wrappers around it.
FREDHOLM_SURFACE = {"_batch", "_check_interval", "_check_m"}


def private_fredholm_imports(sources: dict) -> list:
    """"module.name" for each private name outside FREDHOLM_SURFACE that a
    module of `sources` ({module: source}) other than fredholm imports from
    fredholm, relatively or as hardedge.fredholm."""
    found = []
    for module, source in sources.items():
        if module == "fredholm":
            continue
        found += [
            f"{module}.{alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module in ("fredholm", "hardedge.fredholm")
            for alias in node.names
            if alias.name.startswith("_") and alias.name not in FREDHOLM_SURFACE
        ]
    return sorted(found)


def test_private_fredholm_imports_are_found():
    sources = {
        "fredholm": "from .fredholm import _own\n",
        "a": "from .fredholm import _batch, _det_value, nystrom_det\n",
        "b": "def f():\n    from hardedge.fredholm import _check_m, _estimates\n",
        "c": "from .kernels import _kernel_blocks\nfrom . import fredholm\n",
    }
    assert private_fredholm_imports(sources) == ["a._det_value", "b._estimates"]


def test_fredholm_exports_only_its_surface():
    assert private_fredholm_imports({path.stem: path.read_text() for path in SOURCES}) == []


def linalg_reads(source: str) -> list:
    """Lines that name numpy.linalg: an attribute `.linalg`, an import of
    numpy.linalg or of a name from it, or `from numpy import linalg`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.add(node.lineno)
        elif isinstance(node, ast.Import) and any(
                alias.name.startswith("numpy.linalg") for alias in node.names):
            found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.linalg")
                or node.module == "numpy" and any(alias.name == "linalg" for alias in node.names)):
            found.add(node.lineno)
    return sorted(found)


def test_linalg_reads_are_found():
    source = (
        "import numpy as np\nnp.linalg.svd(x)\nimport numpy.linalg\n"
        "from numpy.linalg import eigh\nfrom numpy import linalg as la\n"
        "from numpy import sqrt\nlinalg = 1\nx.linalg_free\n"
    )
    assert linalg_reads(source) == [2, 3, 4, 5]


def test_sampler_takes_no_linear_algebra():
    # every sample's lambda_min comes from the qd solve over its drawn
    # squares; a per-block LAPACK call would cost several times that solve
    assert linalg_reads((Path(hardedge.__file__).parent / "montecarlo.py").read_text()) == []


def hardedge_reads(source: str) -> list:
    """Dotted hardedge paths a source reads: every name of a `from hardedge...
    import`, and every attribute read of a name that a module-level import
    binds to hardedge or to a name in it, such as `he.limit_cdf` after
    `import hardedge as he` (a function-level import binds a local name,
    which may be reused elsewhere for something else)."""
    tree = ast.parse(source)
    bound, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hardedge":
            reads.update(f"{node.module}.{alias.name}" for alias in node.names)
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((alias.asname or "hardedge", alias.name if alias.asname else "hardedge")
                         for alias in node.names if alias.name.split(".")[0] == "hardedge")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hardedge":
            bound.update((alias.asname or alias.name, f"{node.module}.{alias.name}")
                         for alias in node.names)
    reads.update(
        f"{bound[node.value.id]}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in bound
    )
    return sorted(reads)


def resolve(dotted: str):
    """The object a dotted path names, importing submodules on the way;
    ImportError if it names nothing."""
    parts = dotted.split(".")
    target = importlib.import_module(parts[0])
    for end, part in enumerate(parts[1:], 2):
        target = getattr(target, part, None) or importlib.import_module(".".join(parts[:end]))
    return target


def test_hardedge_reads_are_found():
    source = (
        "import numpy as np\nimport hardedge as he\nfrom hardedge import expansion, cli as c\n"
        "he.limit_cdf(np.log(2))\nexpansion.rate_report\nc.main\nhe.gone\n"
        "def f():\n    from hardedge import fredholm\n    fredholm = {}\n    fredholm.values()\n"
    )
    assert hardedge_reads(source) == [
        "hardedge.cli", "hardedge.cli.main", "hardedge.expansion", "hardedge.expansion.rate_report",
        "hardedge.fredholm", "hardedge.gone", "hardedge.limit_cdf"]
    assert resolve("hardedge.cli.main") is importlib.import_module("hardedge.cli").main
    with pytest.raises(ImportError):
        resolve("hardedge.gone")


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda path: path.name)
def test_benchmark_reads_exist(path):
    # the benchmark runs hardedge through these names; a deletion that
    # breaks it fails here, not only when the benchmark runs
    missing = []
    for dotted in hardedge_reads(path.read_text()):
        try:
            resolve(dotted)
        except ImportError:
            missing.append(dotted)
    assert missing == []


def test_traced_modules_exist():
    # the benchmark's tracer wraps the functions of these modules by name
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    [modules] = [
        ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["MODULES"]
    ]
    assert modules
    for name in modules:
        importlib.import_module(f"hardedge.{name}")
