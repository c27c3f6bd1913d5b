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
