"""Guards on the source tree itself, read with ast and tokenize: every public
top-level function and public method in src/nimspec has a caller, no check
there is a bare assert (python -O strips those), no module outgrows the
parser's first token block, the suites read kernels through their modules,
and no lower bound on an integer is checked outside `errors.require_int`."""

import ast
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nimspec"

# Public functions that stay without a caller, each for the reason given at
# its definition.
NO_CALLER_YET = {
    ("series", "molien_abelian_det"),           # the tests' reference Molien route
}

# Public methods that stay without a caller, each for the reason given.
METHODS_WITHOUT_CALLER = {
    # the float route to a graph's radius, which the tests check on Dynkin,
    # affine and truncated graphs; a graph built without eigendata reads it
    ("graphs", "Graph", "spectral_radius"),
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _modules():
    return {p.stem: _parse(p) for p in sorted(SRC.glob("*.py"))}


def _public_functions(modules):
    return {(mod, node.name) for mod, tree in modules.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _references(tree: ast.Module, mod: str):
    """The (module, name) pairs that tree's code refers to: an attribute
    `m.name`, a bare name in mod itself outside the def of that name, and a
    bare name after `from ...m import name`."""
    imported = {alias.name: (node.module or "").split(".")[-1]
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                yield node.value.id, node.attr
            elif isinstance(node, ast.Name) and node.id in imported:
                yield imported[node.id], node.id
            elif isinstance(node, ast.Name) and node.id != owner:
                yield mod, node.id


def _uncalled(modules, others):
    exported = {(node.module, alias.name) for node in modules["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    called = {ref for mod, tree in list(modules.items()) + others
              for ref in _references(tree, mod)}
    return _public_functions(modules) - called - exported


def test_every_public_function_has_a_caller():
    others = [(p.stem, _parse(p)) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert _uncalled(_modules(), others) == NO_CALLER_YET


def _public_methods(modules):
    return {(mod, cls.name, node.name) for mod, tree in modules.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _attribute_names(trees):
    """The names read as an attribute `x.name` of any object in the trees,
    not counting reads inside the body of a function of that name."""
    uses = Counter()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                uses[node.attr] += 1
            elif isinstance(node, ast.FunctionDef):
                uses.subtract(inner.attr for inner in ast.walk(node)
                              if isinstance(inner, ast.Attribute) and inner.attr == node.name)
    return {name for name, count in uses.items() if count > 0}


def test_every_public_method_has_a_caller():
    """A method is matched by name alone: any `x.name` in the library or
    perfbench counts as a caller of every public method so named."""
    modules = _modules()
    trees = list(modules.values()) + [_parse(p) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    used = _attribute_names(trees)
    assert {m for m in _public_methods(modules) if m[2] not in used} == METHODS_WITHOUT_CALLER


def test_no_bare_assert_in_the_library():
    found = [f"{mod}.py:{node.lineno}" for mod, tree in _modules().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


# CPython 3.11's parser allocates its tokens in blocks that double in size.
# A module of more than 8192 tokens (the parser's tokens: not COMMENT or NL,
# which it never sees) takes the next block, and each benchmark worker, which
# compiles nimspec from source, then peaks about 0.5 MB higher at import.
# Split a module before it crosses the limit.
TOKEN_LIMIT = 8192


def _parser_tokens(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline)
                   if tok.type not in (tokenize.ENCODING, tokenize.COMMENT, tokenize.NL))


def test_every_module_fits_in_the_parsers_first_token_block():
    sizes = {p.name: _parser_tokens(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: n for name, n in sizes.items() if n > TOKEN_LIMIT} == {}


def test_the_suites_import_modules_not_kernel_names():
    """`from .paths import moments` would bind a second name in suites, which a
    patch on paths.moments misses: suites.py imports nimspec modules, and
    names from errors alone."""
    modules = {p.stem for p in SRC.glob("*.py")}
    bound = [(node.module, alias.name) for node in ast.walk(_parse(SRC / "suites.py"))
             if isinstance(node, ast.ImportFrom) and node.level for alias in node.names]
    assert bound and [(mod, name) for mod, name in bound
                      if mod != "errors" and not (mod is None and name in modules)] == []


def _is_int_bound(test: ast.expr) -> bool:
    """test is `x < c` or `c < x` for an int constant c, or such compares
    joined by `or`."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        return all(map(_is_int_bound, test.values))
    return (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Lt)
            and any(isinstance(side, ast.Constant) and type(side.value) is int
                    for side in (test.left, test.comparators[0])))


def _raises_invalid_parameter(body) -> bool:
    return any(isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
               and isinstance(node.exc.func, ast.Name)
               and node.exc.func.id == "InvalidParameterError"
               for stmt in body for node in ast.walk(stmt))


def test_integer_bounds_are_checked_by_require_int_alone():
    """A lower bound on an integer argument is `errors.require_int`'s `least`,
    so every route accepts and rejects the same values: no hand-written
    `if x < c: raise InvalidParameterError(...)` outside errors.py."""
    found = [f"{mod}.py:{node.lineno}" for mod, tree in _modules().items() if mod != "errors"
             for node in ast.walk(tree)
             if isinstance(node, ast.If) and _is_int_bound(node.test)
             and _raises_invalid_parameter(node.body)]
    assert found == []
