"""No dead exports: every exported function is used outside its own module.

A function listed in a module's ``__all__`` must be referenced, as a whole
word, from another ``ocdm_radar`` module; the tests do not count, and neither
does ``selftest``, which checks code rather than running it.  A helper that
only its own module calls belongs out of ``__all__``, and code that only tests
or checks call belongs in ``tests/reference.py``.  Stdlib only: the modules
are parsed, not imported.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ocdm_radar"


def _exported_functions(tree: ast.Module) -> list[str]:
    exported = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = ast.literal_eval(node.value)
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    return [name for name in exported if name in functions]


# The one export only selftest uses: the O(N^2) oracle it checks the fast transform against.
SELFTEST_REFERENCES = {"dfnt_direct"}


def test_every_exported_function_is_used_elsewhere():
    modules = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for path, source in modules.items():
        for name in _exported_functions(ast.parse(source)):
            skipped = {path.stem} if name in SELFTEST_REFERENCES else {path.stem, "selftest"}
            others = [text for other, text in modules.items() if other.stem not in skipped]
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in others):
                unused.append(f"{path.stem}.{name}")
    assert unused == [], f"exported but used by no other module (selftest aside): {unused}"


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


def test_cli_runs_no_transform_chain_of_its_own():
    # The radar chain is analysis.radar_image; the RadCom comm leg applies the comm channel
    # to the Fresnel frame itself (the DFnT commutes with it), so cli neither modulates nor
    # runs the receive DFnT.  It keeps rxproc's receive_frame bound, uncalled, because the
    # perfbench tracer test checks that binding.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    called = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert imported & {"modulate", "from_stream"} == set()
    assert called & {"modulate", "receive_frame"} == set()


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
    assert found == [], found


def test_no_function_imports():
    # Every package import runs at module level.  A module split out only to be imported
    # lazily is a memory workaround: measure peak RSS before adding one.
    found = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(inner, (ast.Import, ast.ImportFrom)) for inner in ast.walk(node))
    ]
    assert found == [], f"imports inside functions (measure peak RSS before splitting a module out to import lazily): {found}"
