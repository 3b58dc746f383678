"""The package imports only the standard library at run time."""
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Site .pth files may import third-party modules at start-up, so only the
# modules that importing the package adds count.
PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import phylokmer, phylokmer.cli
assert phylokmer.__file__.startswith(sys.argv[1]), phylokmer.__file__
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_package_imports_only_the_standard_library():
    added = subprocess.run(
        [sys.executable, "-B", "-c", PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "phylokmer.cli" in added
    foreign = [
        name
        for name in added
        if name != "phylokmer"
        and not name.startswith("phylokmer.")
        and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
