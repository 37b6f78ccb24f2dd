"""Source hygiene: no module of the package imports a name it never uses,
no module-level function or class goes unreferenced, scipy stays off
the import path of the checks that build no graph, and no product is
written with a conjugate call on its right.

`ast` scans, so they need no linter.  An imported name is used when it
appears as an `ast.Name` anywhere in the module; an import statement
carrying `# noqa: F401` on one of its lines is a deliberate re-export and
is skipped.  A function or class defined at module level in the package
is an orphan when no file of `src/`, `perfbench/` or the acceptance suite
`tests/test_acceptance.py` refers to it: as a name, an attribute, an
imported name, or a string that spells it (`getattr(checks, name)`,
`monkeypatch.setattr(mod, "name", ...)`, the tracer's dotted span names).
References from the unit tests do not count: library surface that only
they exercise is dead weight, and a unit test that needs such a helper
keeps its own copy.  A stricter scan follows references inside the
package alone: every module-level function and class must be reached by a
chain of references from a definition in `cli` or `checks`, or from
module-level code, so surface that only a test or a traced span name
keeps alive is dead; the few definitions that wait for a pipeline are
listed by name with the reason.  A `RandersSpec` checks itself when it is built, so
only `randers` names the validity check, and only `__post_init__` calls
it.  Only `geodesy` builds graphs, so only it may import
scipy, and `checks` imports it inside the two graph checks alone: an
import statement inside a function body runs when the function is called.
For `x * np.conj(y)` numpy reuses the conjugate's temporary once it
reaches 256 KiB and computes `conj(y) * x` in it, which rounds
differently, so a stacked result would depend on the stack's size; the
package binds such a conjugate to a name first, which numpy never reuses.
Every random stream is seeded through one function, `matrixcore._generators`,
which the cross-checks against numpy's SeedSequence cover: it alone may
build a `np.random.Generator` or `np.random.PCG64`, and no module builds a
`default_rng`, `SeedSequence` or `RandomState`.  Those cross-checks cover
the two ways a stream is seeded, a lone `RngStream.gen` and a
`StreamBlock.generators()`, so only those two call `_generators`.  Every
Haar draw of U(n) is the Q factor of one stacked QR with
the phase fix on R's diagonal, so only `matrixcore._haar_qr` calls a `qr`.
Each spectral quantity is computed one way: only
`matrixcore.unitary_phases` calls `eigvals`, only `flows._eig1_distances`
calls `svd` (the distance min |lambda - 1|), and only the shared-eigenvector
step of `flows.commutator_eig1_persistence` calls `eig`.
The oracle's scipy kernels stay where they are: `dijkstra` in the raw
searches and the corridor groups, `csr_matrix` in the build and the
groups, `cKDTree` in the build and the corridors, so that no search bound
adds a call that the tests and the traced benchmark count as work.
Package code runs on the calling thread alone: perfbench's `Tracer` keeps
one span stack for all threads and appends spans without a lock, so a
traced call made on another thread would mis-nest or duplicate spans.  So
`ThreadPoolExecutor` has one call site, `geodesy.build_graph`, no module
imports `threading` or `multiprocessing`, and the one callable handed to a
pool is a KD-tree's `query`: a scipy method the tracer does not wrap, which
releases the GIL and writes only its own outputs.
The geodesy kernels that price edges and arcs sum over coordinates only
through `_row_sum`, which adds left to right: a numpy reduction, a dot
product or a matrix product would add in its own order and move a weight
by an ulp.  The sp pairing there works on real coordinate columns and
builds no complex value.
`checks` owns every pass/fail threshold of the README's "passes when"
table and forms every verdict: outside it no module of the package
defines, imports or names one of those thresholds, except to read it as
`checks.NAME`, or writes the verdict literals "constant" and
"non-constant".  The kernels return measurements.
The `verify` flag table tells the truth: each check's run, given parsed
arguments that log what is read from them and a stub for every check
function, reads exactly the flags `cli._CHECKS` declares for it, so a
declared flag that changes nothing and a read of an undeclared one (which
would fail, as its parser lacks it) both fail here.
"""

import ast
import pathlib

import pytest

from cwspheres import cli
from cwspheres.matrixcore import RngStream

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cwspheres"


def unused_imports(text):
    """(line, name) of each name imported by `text` and never used."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_names_and_honours_noqa():
    text = ("from __future__ import annotations\n"
            "import math\n"
            "import numpy as np\n"
            "from os import (path,\n"
            "                sep)\n"
            "from .flows import phase_bound_check  # noqa: F401\n"
            "x = np.pi + len(sep)\n")
    assert unused_imports(text) == [(2, "math"), (4, "path")]


def defined_names(text):
    """Names of the functions and classes defined at module level."""
    return [node.name for node in ast.parse(text).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def referenced_names(text):
    """Every identifier that `text` refers to (see the module docstring)."""
    return names_in(ast.parse(text))


def names_in(tree):
    """Every identifier that the syntax tree `tree` refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and all(part.isidentifier() for part in node.value.split(".")):
            names.update(node.value.split("."))
    return names


def orphans(package_texts, other_texts):
    """Functions and classes defined in `package_texts` that no text refers to."""
    used = set().union(*map(referenced_names, [*package_texts, *other_texts]))
    return sorted(name for text in package_texts for name in defined_names(text)
                  if name not in used)


def package_orphans(root):
    """Orphans of the package under `root`, counting references from the
    package, the benchmark harness and the acceptance suite only."""
    package = sorted((root / "src" / "cwspheres").glob("*.py"))
    callers = [root / "tests" / "test_acceptance.py",
               *sorted((root / "perfbench").rglob("*.py"))]
    return orphans([path.read_text() for path in package],
                   [path.read_text() for path in callers])


def test_no_orphan_functions_or_classes():
    assert package_orphans(ROOT) == []


def test_orphan_scan_flags_a_planted_orphan():
    module = ('import numpy as np\n'
              'def used(x):\n'
              '    return helper(x)\n'
              'def helper(x):\n'
              '    return np.abs(x)\n'
              'def by_name():\n'
              '    pass\n'
              'def orphan():\n'
              '    """orphan() is named only in its own docstring"""\n'
              'class Lonely:\n'
              '    def orphan(self):\n'
              '        pass\n')
    caller = ('from pkg.mod import used\n'
              'getattr(mod, "by_name")\n'
              'used(1)\n')
    assert orphans([module], [caller]) == ["Lonely", "orphan"]
    assert orphans([module], [caller + "mod.orphan\nx: Lonely\n"]) == []


def test_orphan_scan_ignores_unit_test_references(tmp_path):
    files = {"src/cwspheres/mod.py": ("def for_acceptance():\n    pass\n"
                                      "def for_bench():\n    pass\n"
                                      "def for_unit_test():\n    pass\n"),
             "tests/test_acceptance.py": "from cwspheres.mod import for_acceptance\n",
             "tests/test_mod.py": "from cwspheres.mod import for_unit_test\n",
             "perfbench/run.py": "import cwspheres.mod\ncwspheres.mod.for_bench()\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert package_orphans(tmp_path) == ["for_unit_test"]


# Defined in the package, reached by no pipeline yet: the closed-form CW
# translation check of ROADMAP item 2 gives each of them its caller.
AWAITING_A_PIPELINE = {
    "central_kvf_phases": "the phases phi+- of a two-eigenvalue CW translation (item 2)",
    "NotKvfAdmissible": "raised by central_kvf_phases on a kappa != 1 spec (item 2)",
}


def unreachable(texts, roots=("cli.py", "checks.py")):
    """Functions and classes defined at module level in `texts` (file name ->
    package module source) that no chain of references reaches from the
    pipelines: every definition of the `roots` modules, and every name
    that module-level code outside imports and definitions refers to.  A
    reached definition reaches each name its body and signature refer to
    (`referenced_names`), and a name reaches every definition so named,
    in any module.  Import statements reach nothing."""
    defs, reached, todo = {}, set(), []

    def refer(nodes):
        for node in nodes:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo.extend(names_in(node))
    for name, text in texts.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
                if name in roots:
                    todo.append(node.name)
            else:
                refer([node])
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            refer(defs[name])
    return sorted(set(defs) - reached)


def test_every_definition_is_reached_from_a_pipeline():
    texts = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert unreachable(texts) == sorted(AWAITING_A_PIPELINE)


def test_reachability_scan_flags_planted_dead_surface():
    texts = {"cli.py": ("from .checks import run\n"
                        "def main():\n"
                        "    return run()\n"),
             "checks.py": ("from . import core\n"
                           "from .core import used, imported_only\n"
                           "def run():\n"
                           "    return used() + getattr(core, 'by_name')()\n"),
             "core.py": ("from .checks import run\n"
                         "TABLE = {'x': at_import}\n"
                         "def used():\n"
                         "    return chain()\n"
                         "def chain():\n"
                         "    return Base\n"
                         "class Base:\n"
                         "    pass\n"
                         "def at_import():\n"
                         "    pass\n"
                         "def by_name():\n"
                         "    pass\n"
                         "def imported_only():\n"
                         "    pass\n"
                         "def dead():\n"
                         "    return dead_too()\n"
                         "def dead_too():\n"
                         "    pass\n"
                         "class Dead:\n"
                         "    def method(self):\n"
                         "        return used()\n")}
    assert unreachable(texts) == ["Dead", "dead", "dead_too", "imported_only"]


VALIDITY_NAMES = {"_validate_spec", "validate_spec", "require_valid"}


def files_naming(names, texts):
    """Keys of `texts` (file name -> source) whose source refers to one of
    `names`."""
    return sorted(key for key, text in texts.items() if referenced_names(text) & names)


def callers(text, name):
    """Names of the functions of `text` whose bodies call `name`, bare or as
    an attribute."""
    return sorted({fn.name for fn in ast.walk(ast.parse(text))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, ast.Call)
                   and name in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None))})


def test_spec_validity_is_checked_at_construction_alone():
    texts = {str(path.relative_to(ROOT)): path.read_text()
             for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]}
    assert files_naming(VALIDITY_NAMES, texts) == ["src/cwspheres/randers.py"]
    assert callers(texts["src/cwspheres/randers.py"], "_validate_spec") == ["__post_init__"]


def test_validity_scan_flags_crafted_references():
    texts = {"checks.py": "from .randers import require_valid\n",
             "flows.py": "x = 1\n",
             "geodesy.py": 'getattr(randers, "_validate_spec")\n',
             "randers.py": ("class RandersSpec:\n"
                            "    def __post_init__(self):\n"
                            "        _validate_spec(self)\n"
                            "def norm(s):\n"
                            "    return randers._validate_spec(s) or _validate_spec(s)\n")}
    assert files_naming(VALIDITY_NAMES, texts) == ["checks.py", "geodesy.py", "randers.py"]
    assert callers(texts["randers.py"], "_validate_spec") == ["__post_init__", "norm"]


def imported_names(text, at_import_time=False):
    """(line, dotted name) of each module or name that `text` imports, a
    relative import with its leading dots (`from . import geodesy` gives
    `.geodesy`).  With `at_import_time`, only the import statements outside
    function bodies: those run when the module itself is imported."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if at_import_time and isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = "." * child.level + (child.module or "")
                sep = "" if base.endswith(".") else "."
                found.extend((child.lineno, base + sep + alias.name)
                             for alias in child.names)
            visit(child)
    visit(ast.parse(text))
    return found


def scipy_path_violations(texts):
    """(file, line, name) of each import of scipy outside geodesy.py, and of
    each import of geodesy that runs when checks.py is imported; `texts`
    maps a module's file name to its source."""
    out = []
    for name, text in texts.items():
        if name != "geodesy.py":
            out += [(name, line, mod) for line, mod in imported_names(text)
                    if mod.split(".")[0] == "scipy"]
        if name == "checks.py":
            out += [(name, line, mod)
                    for line, mod in imported_names(text, at_import_time=True)
                    if "geodesy" in mod.split(".")]
    return sorted(out)


def test_scipy_is_imported_by_geodesy_alone():
    texts = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert scipy_path_violations(texts) == []


def test_scipy_scan_flags_crafted_imports():
    texts = {"flows.py": ("import numpy as np\n"
                          "from scipy.spatial.distance import cdist\n"),
             "cosets.py": ("def project(x):\n"
                           "    import scipy.linalg as sl\n"
                           "    return sl.qr(x)\n"),
             "geodesy.py": "from scipy.sparse import csr_matrix\n",
             "checks.py": ("from . import geodesy\n"
                           "class Report:\n"
                           "    from .geodesy import build_graph\n"
                           "def oracle():\n"
                           "    from . import geodesy\n"
                           "    return geodesy\n")}
    assert scipy_path_violations(texts) == [
        ("checks.py", 1, ".geodesy"), ("checks.py", 3, ".geodesy.build_graph"),
        ("cosets.py", 2, "scipy.linalg"), ("flows.py", 2, "scipy.spatial.distance.cdist")]


CONJ_CALLS = {"conj", "conjugate"}


def conj_product_violations(text):
    """(line, source) of each `*` in `text` whose right operand is a call
    of `np.conj` or `np.conjugate` (numpy imported as `np` or `numpy`)."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
                and isinstance(node.right, ast.Call) \
                and isinstance(node.right.func, ast.Attribute) \
                and node.right.func.attr in CONJ_CALLS \
                and getattr(node.right.func.value, "id", None) in ("np", "numpy"):
            out.append((node.lineno, ast.get_source_segment(text, node)))
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_product_with_a_conjugate_call_on_the_right(path):
    assert conj_product_violations(path.read_text()) == []


def test_conj_product_scan_flags_crafted_products():
    text = ("import numpy as np\n"
            "a = x * np.conj(y)\n"
            "b = np.conj(x) * y\n"
            "c = np.multiply(x, np.conj(y))\n"
            "d = x * np.conj(y)[:, None]\n"
            "e = (x1 * y1\n"
            "     - x2 * numpy.conjugate(y2))\n"
            "f = x @ np.conj(y)\n"
            "g = x * (np.conj(y))\n"
            "cy = np.conj(y)\n"
            "h = x * cy\n")
    assert conj_product_violations(text) == [
        (2, "x * np.conj(y)"), (7, "x2 * numpy.conjugate(y2)"), (9, "x * (np.conj(y))")]


RNG_BUILDERS = {"Generator", "PCG64", "default_rng", "SeedSequence", "RandomState"}


def rng_builder_calls(texts):
    """(file, function, name) of each call of a numpy.random builder in
    RNG_BUILDERS, `function` being the innermost enclosing function or
    `<module>`: as `np.random.X(...)`, `numpy.random.X(...)`, or a bare
    `X(...)` imported from numpy.random; `texts` maps file names to
    sources."""
    out = set()
    for name, text in texts.items():
        tree = ast.parse(text)
        bare = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "numpy.random"
                for alias in node.names if alias.name in RNG_BUILDERS}

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, (ast.FunctionDef,
                                                         ast.AsyncFunctionDef)) else where
                if isinstance(child, ast.Call):
                    f = child.func
                    if isinstance(f, ast.Attribute) and f.attr in RNG_BUILDERS \
                            and isinstance(f.value, ast.Attribute) and f.value.attr == "random" \
                            and getattr(f.value.value, "id", None) in ("np", "numpy"):
                        out.add((name, where, f.attr))
                    elif isinstance(f, ast.Name) and f.id in bare:
                        out.add((name, where, f.id))
                visit(child, inner)
        visit(tree, "<module>")
    return sorted(out)


def test_every_generator_is_built_by_one_function():
    texts = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert rng_builder_calls(texts) == [("matrixcore.py", "_generators", "Generator"),
                                        ("matrixcore.py", "_generators", "PCG64")]


def test_rng_builder_scan_flags_crafted_calls():
    texts = {"matrixcore.py": ("import numpy as np\n"
                               "def _generators(states):\n"
                               "    return [np.random.Generator(np.random.PCG64(s))\n"
                               "            for s in states]\n"
                               "class Stream:\n"
                               "    def gen(self):\n"
                               "        return np.random.default_rng(self.seed)\n"),
             "flows.py": ("import numpy\n"
                          "from numpy.random import SeedSequence as SS, PCG64\n"
                          "GEN = numpy.random.Generator(PCG64(SS(0)))\n"
                          "def probe(x):\n"
                          "    return x.random.Generator(x)\n"),
             "checks.py": "import numpy as np\nrng = np.random.RandomState\n"}
    assert rng_builder_calls(texts) == [
        ("flows.py", "<module>", "Generator"), ("flows.py", "<module>", "PCG64"),
        ("flows.py", "<module>", "SS"),
        ("matrixcore.py", "_generators", "Generator"), ("matrixcore.py", "_generators", "PCG64"),
        ("matrixcore.py", "gen", "default_rng")]


def call_sites(texts, target):
    """(file, function) of each call of the function named `target`, the
    function dotted with its class (`RngStream.gen`) or `<module>`: as
    `target(...)` or `x.target(...)`, or under a name it was imported as;
    `texts` maps file names to sources."""
    out = set()
    for name, text in texts.items():
        tree = ast.parse(text)
        bare = {target} | {alias.asname or alias.name for node in ast.walk(tree)
                           if isinstance(node, ast.ImportFrom)
                           for alias in node.names if alias.name == target}

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                inner = where
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = child.name if where == "<module>" else f"{where}.{child.name}"
                if isinstance(child, ast.Call):
                    f = child.func
                    if isinstance(f, ast.Name) and f.id in bare or \
                            isinstance(f, ast.Attribute) and f.attr == target:
                        out.add((name, where))
                visit(child, inner)
        visit(tree, "<module>")
    return sorted(out)


def test_only_the_two_seeding_paths_call_generators():
    texts = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert call_sites(texts, "_generators") == [("matrixcore.py", "RngStream.gen"),
                                         ("matrixcore.py", "StreamBlock.generators")]


def test_generators_caller_scan_flags_a_third_caller():
    texts = {"matrixcore.py": ("class RngStream:\n"
                               "    @property\n"
                               "    def gen(self):\n"
                               "        return _generators(self.seed, self._key, 1)[0]\n"
                               "def seed_all(streams):\n"
                               "    return [_generators(s.seed, s._key, 1) for s in streams]\n"),
             "checks.py": ("from . import matrixcore\n"
                           "from .matrixcore import _generators as build\n"
                           "GENS = build(0, (), 3)\n"
                           "def witness(rng):\n"
                           "    return matrixcore._generators(rng.seed, (1,), 1)\n")}
    assert call_sites(texts, "_generators") == [
        ("checks.py", "<module>"), ("checks.py", "witness"),
        ("matrixcore.py", "RngStream.gen"), ("matrixcore.py", "seed_all")]


def test_only_the_haar_kernel_calls_qr():
    texts = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert call_sites(texts, "qr") == [("matrixcore.py", "_haar_qr")]


def test_qr_caller_scan_flags_a_second_caller():
    texts = {"matrixcore.py": ("import numpy as np\n"
                               "def _haar_qr(m):\n"
                               "    return np.linalg.qr(m)\n"
                               "def haar_symplectic(n, rngs):\n"
                               "    return numpy.linalg.qr(_ginibre(rngs, n, n))\n"),
             "flows.py": ("from numpy.linalg import qr as factor\n"
                          "class Probe:\n"
                          "    def draw(self, m):\n"
                          "        return factor(m)\n")}
    assert call_sites(texts, "qr") == [("flows.py", "Probe.draw"),
                                       ("matrixcore.py", "_haar_qr"),
                                       ("matrixcore.py", "haar_symplectic")]


# Each spectral quantity has one kernel: phases of unitaries come from
# `eigvals` in `matrixcore.unitary_phases`, the distance min |lambda - 1|
# from the least singular value in `flows._eig1_distances`, and the one
# eigenvector solve is the commutator check's shared-eigenvector step.
SPECTRAL_SITES = {"eigvals": [("matrixcore.py", "unitary_phases")],
                  "eig": [("flows.py", "commutator_eig1_persistence")],
                  "svd": [("flows.py", "_eig1_distances")]}


def spectral_site_changes(texts):
    """Per solver of `SPECTRAL_SITES` whose call sites in `texts` differ
    from the listed ones: its call sites."""
    out = {}
    for target, where in SPECTRAL_SITES.items():
        sites = call_sites(texts, target)
        if sites != where:
            out[target] = sites
    return out


def test_each_spectral_quantity_has_one_solver_call_site():
    texts = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert spectral_site_changes(texts) == {}


def test_spectral_site_scan_flags_planted_callers():
    texts = {"matrixcore.py": ("import numpy as np\n"
                               "def unitary_phases(u):\n"
                               "    return np.angle(np.linalg.eigvals(u))\n"),
             "flows.py": ("import numpy as np\n"
                          "from numpy.linalg import eigvals as spectrum\n"
                          "def _eig1_distances(a, b):\n"
                          "    return np.linalg.svd(a - b, compute_uv=False)[..., -1]\n"
                          "def commutator_eig1_persistence(u, l, m):\n"
                          "    return np.linalg.eig(u)\n"
                          "def geodesic_nonintersection_probe(m):\n"
                          "    return np.abs(spectrum(m) - 1.0).min()\n")}
    assert spectral_site_changes(texts) == {
        "eigvals": [("flows.py", "geodesic_nonintersection_probe"),
                    ("matrixcore.py", "unitary_phases")]}
    texts["checks.py"] = ("import numpy\n"
                          "class Probe:\n"
                          "    def vector(self, m):\n"
                          "        return numpy.linalg.eig(m)[1]\n")
    assert spectral_site_changes(texts)["eig"] == [
        ("checks.py", "Probe.vector"), ("flows.py", "commutator_eig1_persistence")]
    del texts["matrixcore.py"]
    assert spectral_site_changes(texts)["eigvals"] == [
        ("flows.py", "geodesic_nonintersection_probe")]


# Where geodesy calls the scipy graph kernels: the traced benchmark reads
# `dijkstra`, `csr_matrix` and `cKDTree` spans inside queries as raw
# searches, corridor arcs and corridor KD-trees, and the oracle tests count
# those calls, so a search bound must be priced without them.
GEODESY_SCIPY_SITES = {"dijkstra": ["_raw_paths", "_refine_group"],     # sorted callers
                       "csr_matrix": ["_refine_group", "build_graph"],
                       "cKDTree": ["_corridor", "build_graph"]}


def scipy_site_changes(text):
    """Per scipy kernel of `GEODESY_SCIPY_SITES` whose callers in the
    geodesy source `text` differ from the listed ones: its callers."""
    texts = {"geodesy.py": text}
    out = {}
    for target, where in GEODESY_SCIPY_SITES.items():
        sites = [function for _, function in call_sites(texts, target)]
        if sites != where:
            out[target] = sites
    return out


def test_geodesy_scipy_calls_stay_where_they_are():
    assert scipy_site_changes((SRC / "geodesy.py").read_text()) == {}


def test_scipy_site_scan_flags_a_new_caller():
    text = ("from scipy.sparse import csr_matrix\n"
            "from scipy.sparse.csgraph import dijkstra as search\n"
            "from scipy.spatial import cKDTree\n"
            "def build_graph(pts, data):\n"
            "    return cKDTree(pts), csr_matrix(data)\n"
            "def _raw_paths(m):\n"
            "    return search(m)\n"
            "def _walk_limits(m, pts):\n"
            "    return search(m, limit=1.0), cKDTree(pts)\n"
            "def _corridor(pts):\n"
            "    return cKDTree(pts)\n"
            "def _refine_group(m, data):\n"
            "    return search(csr_matrix(data))\n")
    assert scipy_site_changes(text) == {
        "dijkstra": ["_raw_paths", "_refine_group", "_walk_limits"],
        "cKDTree": ["_corridor", "_walk_limits", "build_graph"]}


POOL_SITES = [("geodesy.py", "build_graph")]
THREAD_MODULES = {"threading", "_thread", "multiprocessing"}


def thread_violations(texts):
    """What in `texts` (file name -> source) could run package code off the
    calling thread: the call sites of `ThreadPoolExecutor` unless they are
    `POOL_SITES`; each import of a module in `THREAD_MODULES` or of a
    `ProcessPoolExecutor`; and each callable handed to a `submit` or `map`
    other than the `query` method of a name bound to a `cKDTree(...)`."""
    out = {}
    sites = call_sites(texts, "ThreadPoolExecutor")
    if sites != POOL_SITES:
        out["pool_sites"] = sites
    for name, text in sorted(texts.items()):
        imports = [(name, line, mod) for line, mod in imported_names(text)
                   if mod.lstrip(".").split(".")[0] in THREAD_MODULES
                   or mod.endswith("ProcessPoolExecutor")]
        tree = ast.parse(text)
        trees = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Call)
                 and "cKDTree" in (getattr(node.value.func, "id", None),
                                   getattr(node.value.func, "attr", None))
                 for target in node.targets if isinstance(target, ast.Name)}
        handed = [(name, node.lineno, ast.get_source_segment(text, node.args[0]))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("submit", "map") and node.args
                  and not (isinstance(node.args[0], ast.Attribute)
                           and node.args[0].attr == "query"
                           and getattr(node.args[0].value, "id", None) in trees)]
        for key, found in (("imports", imports), ("handed", handed)):
            if found:
                out.setdefault(key, []).extend(sorted(found))
    return out


def test_package_code_runs_on_the_calling_thread():
    texts = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert thread_violations(texts) == {}


def test_thread_scan_flags_a_second_pool_and_what_it_runs():
    texts = {"geodesy.py": ("from concurrent.futures import ThreadPoolExecutor\n"
                            "from scipy.spatial import cKDTree\n"
                            "def build_graph(pts):\n"
                            "    tree = cKDTree(pts)\n"
                            "    with ThreadPoolExecutor(2) as pool:\n"
                            "        near = pool.submit(tree.query, pts, k=3)\n"
                            "        pool.submit(_edge_costs, pts)\n"
                            "        return list(pool.map(graph.query, [pts]))\n"),
             "flows.py": ("import threading\n"
                          "from concurrent import futures\n"
                          "from concurrent.futures import ProcessPoolExecutor\n"
                          "def apply_all(xs):\n"
                          "    with futures.ThreadPoolExecutor() as pool:\n"
                          "        return list(pool.map(lambda x: x, xs))\n"),
             "checks.py": "from multiprocessing.pool import ThreadPool\n"}
    assert thread_violations(texts) == {
        "pool_sites": [("flows.py", "apply_all"), ("geodesy.py", "build_graph")],
        "imports": [("checks.py", 1, "multiprocessing.pool.ThreadPool"),
                    ("flows.py", 1, "threading"),
                    ("flows.py", 3, "concurrent.futures.ProcessPoolExecutor")],
        "handed": [("flows.py", 6, "lambda x: x"), ("geodesy.py", 7, "_edge_costs"),
                   ("geodesy.py", 8, "graph.query")]}


# The kernels whose coordinate sums fix the graph weights and arc costs
SUM_KERNELS = ("_tangent_parts", "_tangent_chords", "_edge_costs", "_arc_costs",
               "build_graph")
SUM_CALLS = {"sum", "einsum", "dot", "vdot", "inner", "matmul", "tensordot", "norm",
             "reduce"}
COMPLEX_NAMES = {"complex", "complex64", "complex128", "conj", "conjugate", "real",
                 "imag"}


def kernel_sum_violations(text):
    """(function, line, source) of each coordinate sum in the `SUM_KERNELS`
    of the geodesy source `text` made other than by `_row_sum`: a call of a
    function or method named in `SUM_CALLS` (`np.sum`, `x.sum()`,
    `np.linalg.norm`, `np.add.reduce`, ...) or a matrix product `@`; each
    complex literal or name of `COMPLEX_NAMES` in `_tangent_parts`; and each
    kernel `text` does not define, with line 0."""
    functions = {node.name: node for node in ast.parse(text).body
                 if isinstance(node, ast.FunctionDef)}
    out = []
    for name in SUM_KERNELS:
        if name not in functions:
            out.append((name, 0, "missing"))
            continue
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call):
                called = node.func.attr if isinstance(node.func, ast.Attribute) \
                    else getattr(node.func, "id", None)
                found = called in SUM_CALLS
            elif isinstance(node, (ast.BinOp, ast.AugAssign)):
                found = isinstance(node.op, ast.MatMult)
            elif name == "_tangent_parts":
                found = (isinstance(node, ast.Constant) and isinstance(node.value, complex)
                         or getattr(node, "attr", getattr(node, "id", None)) in COMPLEX_NAMES)
            else:
                found = False
            if found:
                out.append((name, node.lineno, ast.get_source_segment(text, node)))
    return sorted(out)


def test_geodesy_kernels_sum_coordinates_through_row_sum():
    assert kernel_sum_violations((SRC / "geodesy.py").read_text()) == []


def test_kernel_sum_scan_flags_planted_sums():
    text = ("import numpy as np\n"
            "def _row_sum(cols):\n"
            "    return np.sum(cols, axis=0)\n"
            "def _tangent_parts(family, pts, vecs):\n"
            "    z = pts[0] + 1j * pts[1]\n"
            "    return np.conj(z).imag, _row_sum(vecs * vecs)\n"
            "def _tangent_chords(pts, targets):\n"
            "    return targets - np.einsum('ij,ij->j', pts, targets) * pts\n"
            "def _edge_costs(spec, pts, vecs):\n"
            "    return (pts * vecs).sum(axis=1) + pts @ vecs.T + np.dot(pts, vecs)\n"
            "def _arc_costs(spec, starts, ends):\n"
            "    def norm(x):\n"
            "        return np.sqrt(np.add.reduce(x * x))\n"
            "    return np.linalg.norm(ends - starts, axis=1), norm(ends), np.real(ends)\n")
    assert kernel_sum_violations(text) == [
        ("_arc_costs", 13, "np.add.reduce(x * x)"),
        ("_arc_costs", 14, "norm(ends)"),
        ("_arc_costs", 14, "np.linalg.norm(ends - starts, axis=1)"),
        ("_edge_costs", 10, "(pts * vecs).sum(axis=1)"),
        ("_edge_costs", 10, "np.dot(pts, vecs)"),
        ("_edge_costs", 10, "pts @ vecs.T"),
        ("_tangent_chords", 8, "np.einsum('ij,ij->j', pts, targets)"),
        ("_tangent_parts", 5, "1j"),
        ("_tangent_parts", 6, "np.conj"),
        ("_tangent_parts", 6, "np.conj(z).imag"),
        ("build_graph", 0, "missing")]


# The thresholds of the README's "passes when" table, each defined once in
# checks.py, and the verdicts the length and displacement checks print.
THRESHOLDS = {"IDENTITY_RESIDUAL_TOL", "CONSTANT_TOL_FACTOR", "SHARED_VECTOR_TOL",
              "NONINTERSECTION_MIN_DIST", "ENDPOINT_SPREAD_TOL", "ENDPOINT_IDENTITY_TOL",
              "WITNESS_GAP_TOL", "ANTIPODE_REL_TOL", "SYMMETRY_REL_TOL",
              "DISPLACEMENT_REL_TOL"}
VERDICT_LITERALS = {"constant", "non-constant"}


def threshold_owner_violations(texts):
    """(file, line, what) of each verdict literal of `VERDICT_LITERALS` and
    each name of `THRESHOLDS` in `texts` (file name -> package source)
    outside checks.py, as a name, an imported name or an attribute, other
    than a read `checks.NAME`; and of each threshold that checks.py does not
    assign once at module level, with line 0."""
    out = []
    for name, text in sorted(texts.items()):
        tree = ast.parse(text)
        if name == "checks.py":
            assigned = [target.id for node in tree.body if isinstance(node, ast.Assign)
                        for target in node.targets if isinstance(target, ast.Name)]
            out += [(name, 0, t) for t in sorted(THRESHOLDS) if assigned.count(t) != 1]
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in VERDICT_LITERALS:
                out.append((name, node.lineno, node.value))
            elif isinstance(node, ast.Name) and node.id in THRESHOLDS:
                out.append((name, node.lineno, node.id))
            elif isinstance(node, ast.alias) and node.name in THRESHOLDS:
                out.append((name, node.lineno, node.name))
            elif isinstance(node, ast.Attribute) and node.attr in THRESHOLDS \
                    and getattr(node.value, "id", None) != "checks":
                out.append((name, node.lineno, node.attr))
    return sorted(out)


def test_checks_alone_owns_thresholds_and_verdicts():
    texts = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert threshold_owner_violations(texts) == []


def test_threshold_owner_scan_flags_planted_thresholds_and_verdicts():
    defined = "".join(f"{name} = 1.0\n" for name in sorted(THRESHOLDS - {"SHARED_VECTOR_TOL"}))
    texts = {"checks.py": defined + "SYMMETRY_REL_TOL = 0.02\n",
             "cli.py": ("from . import checks, flows\n"
                        "from .flows import SHARED_VECTOR_TOL as tol\n"
                        "ok = x <= checks.IDENTITY_RESIDUAL_TOL\n"
                        "bad = x <= flows.CONSTANT_TOL_FACTOR\n"),
             "geodesy.py": ("DISPLACEMENT_REL_TOL = 0.07\n"
                            "def profile(rel):\n"
                            "    \"\"\"The verdict is constant or non-constant.\"\"\"\n"
                            "    return 'constant' if rel else \"non-constant\"\n")}
    assert threshold_owner_violations(texts) == [
        ("checks.py", 0, "SHARED_VECTOR_TOL"), ("checks.py", 0, "SYMMETRY_REL_TOL"),
        ("cli.py", 2, "SHARED_VECTOR_TOL"), ("cli.py", 4, "CONSTANT_TOL_FACTOR"),
        ("geodesy.py", 1, "DISPLACEMENT_REL_TOL"), ("geodesy.py", 4, "constant"),
        ("geodesy.py", 4, "non-constant")]


class _StubChecks:
    """Stands in for `cli.checks`: every check function returns None."""

    def __getattr__(self, name):
        return lambda *args: None


def flag_table_mismatches(table, monkeypatch):
    """(check, declared flags never read, flags read but not declared) for
    each entry of a `cli._CHECKS`-shaped table whose run, on every flag's
    default with the check functions stubbed, reads other flags than it
    declares; a flag `--n-points` is read as `n_points`."""
    defaults = {name.replace("-", "_"): spec["default"] for name, spec in cli._FLAGS.items()}
    monkeypatch.setattr(cli, "checks", _StubChecks())
    out = []
    for check, (flags, run) in sorted(table.items()):
        reads = set()

        class Args:
            def __getattr__(self, name):
                reads.add(name)
                return defaults.get(name)
        run(Args(), RngStream(0))
        declared = {flag.replace("-", "_") for flag in flags}
        if reads != declared:
            out.append((check, sorted(declared - reads), sorted(reads - declared)))
    return out


def test_every_check_reads_exactly_its_declared_flags(monkeypatch):
    assert flag_table_mismatches(cli._CHECKS, monkeypatch) == []


def test_flag_table_scan_flags_unread_and_undeclared_flags(monkeypatch):
    table = {"unread": (("trials", "n-points"), lambda a, rng: a.trials),
             "undeclared": (("k",), lambda a, rng: (a.k, a.n_points, a.t)),
             "exact": (("config", "n-points"), lambda a, rng: (a.config, a.n_points))}
    assert flag_table_mismatches(table, monkeypatch) == [
        ("undeclared", [], ["n_points", "t"]), ("unread", ["n_points"], [])]
