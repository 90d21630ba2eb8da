import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# records the modules that importing the package and its CLI adds; the
# interpreter may preload third-party modules at startup, so only the
# difference counts
PROBE = """
import sys
before = set(sys.modules)
import chebykan, chebykan.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_package_loads_only_numpy_and_the_stdlib():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True)
    added = done.stdout.split()
    assert "chebykan" in added and "numpy" in added
    allowed = sys.stdlib_module_names | {"numpy", "chebykan"}
    foreign = [m for m in added if m.partition(".")[0] not in allowed]
    assert not foreign, f"importing chebykan loaded {foreign}"
