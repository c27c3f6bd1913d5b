import ast
import re
from pathlib import Path

import kittensim


def test_package_exports_every_name_the_benchmark_uses():
    # perfbench drives the package through `ks.<name>`; a name it uses must not be removed
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    names = {
        name
        for path in sorted(bench.glob("*.py"))
        for name in re.findall(r"\bks\.(\w+)", path.read_text(encoding="utf-8"))
    }
    # the scan workload reconstructs through these two; the regex must see them
    assert {"mle_reconstruct", "reconstruct_with_angles"} <= names
    assert sorted(n for n in names if not hasattr(kittensim, n)) == []


# Exported names that nothing in src/ or perfbench/ calls, each kept for a reason
KEPT_WITHOUT_A_CALLER = {
    "marginal_pdf": "the reference density the sampler's draws are tested against",
    "fidelity": "the pure-state overlap that state_fidelity is tested against",
    "cat_fidelity": "the one-alpha overlap that fidelity(rho, cat_state(...)) is tested against",
    "periodogram": "the estimate synthesized trace spectra are tested against",
    "principal_mode": "acceptance criterion 4, the planted-mode overlap",
    "cat_state": "the traced benchmark sums its span into fock.prepare_s",
    "extract_quadrature": "the traced benchmark sums its span into temporal.extract_s",
}


def test_every_exported_name_has_a_caller_outside_the_tests():
    # a public name that only its own tests call is dead weight; keeping one needs a reason here
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "kittensim"
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    used = set()
    for path in sources + sorted((root / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(exported - used - KEPT_WITHOUT_A_CALLER.keys()) == []
    # a kept name that gains a caller, or leaves the package, leaves this list too
    assert sorted(KEPT_WITHOUT_A_CALLER.keys() & used) == []
    assert sorted(KEPT_WITHOUT_A_CALLER.keys() - exported) == []
