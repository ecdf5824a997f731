"""No dead exports: every exported function is used outside its own module.

A function listed in a module's ``__all__`` must be referenced, as a whole
word, from another ``ocdm_radar`` module or from the test suite.  A helper
that only its own module calls belongs out of ``__all__`` (and private).
Stdlib only: the modules are parsed, not imported.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ocdm_radar"
TESTS = Path(__file__).resolve().parent


def _exported_functions(tree: ast.Module) -> list[str]:
    exported = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = ast.literal_eval(node.value)
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    return [name for name in exported if name in functions]


def test_every_exported_function_is_used_elsewhere():
    modules = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    tests = [path.read_text() for path in sorted(TESTS.glob("*.py"))]
    unused = []
    for path, source in modules.items():
        others = [text for other, text in modules.items() if other != path] + tests
        for name in _exported_functions(ast.parse(source)):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in others):
                unused.append(f"{path.stem}.{name}")
    assert unused == [], f"exported but used only in their own module: {unused}"


def test_fresnel_transforms_run_in_one_place_each():
    # framing.modulate is the only inverse DFnT and rxproc.receive_frame the only forward
    # one; fresnel defines them and selftest checks their theorems.
    allowed = {"idfnt_fast": {"framing"}, "dfnt_fast": {"rxproc"}}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("fresnel", "selftest"):
            continue
        for name, homes in allowed.items():
            if path.stem not in homes and re.search(rf"\b{name}\b", path.read_text()):
                found.append(f"{path.stem} uses {name}")
    assert found == [], found


def test_channels_share_one_echo_pass():
    # The shift and comm channels are paths through channel._echoes: one IDFT call and
    # one loop over blocks of CHANNEL_BLOCK symbols in the module.
    tree = ast.parse((PACKAGE / "channel.py").read_text())
    idfts = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.fft.ifft"]
    loops = [node for node in ast.walk(tree) if isinstance(node, ast.For) and "CHANNEL_BLOCK" in ast.unparse(node.iter)]
    assert (len(idfts), len(loops)) == (1, 1)


def test_csv_is_written_in_one_place():
    # rxproc.write_csv writes every CSV; it produces the bytes np.savetxt would.
    found = [path.stem for path in sorted(PACKAGE.glob("*.py")) if "savetxt" in path.read_text()]
    assert found == [], found


def test_payload_is_mapped_in_one_place():
    # framing.build_radcom_frame scales the QPSK payload by sqrt(symbol_energy); every other
    # module passes bits.  The CLI's config key rc["symbol_energy"] is a subscript, not a read.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "framing":
            continue
        tree = ast.parse(path.read_text())
        if any(isinstance(node, ast.Attribute) and node.attr == "symbol_energy" for node in ast.walk(tree)):
            found.append(path.stem)
    assert found == [], found


# _csvwrite is rxproc's CSV writer, kept in a module of its own only so that rxproc.write_csv
# can import it on the first write: imported with the package, its code shifted the
# import-time heap layout enough to raise a later command's peak RSS.  It shares rxproc's
# row window as the rest of rxproc does.
PRIVATE_NAME_EXCEPTIONS = {("_csvwrite", "_RowWindow")}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_names_bound(tree: ast.Module) -> set[str]:
    """Private names a module defines: functions, classes, assigned names and attributes."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            bound.add(node.attr)
    return {name for name in bound if _is_private(name)}


def test_no_module_uses_another_modules_private_names():
    # A name with a leading underscore belongs to the module that defines it: no package
    # module imports one from another, or reads one off another module's object.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    own = {stem: _private_names_bound(tree) for stem, tree in trees.items()}
    found = []
    for stem, tree in trees.items():
        elsewhere = set().union(*(names for other, names in own.items() if other != stem)) - own[stem]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ocdm_radar")):
                found += [(stem, alias.name) for alias in node.names if _is_private(alias.name)]
            elif isinstance(node, ast.Attribute) and node.attr in elsewhere:
                found.append((stem, node.attr))
    leaks = sorted(set(found) - PRIVATE_NAME_EXCEPTIONS)
    assert leaks == [], leaks
