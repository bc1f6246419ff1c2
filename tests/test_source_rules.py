"""Rules that live in one module of the package, enforced on its source text."""

from pathlib import Path

import pytest

import framerep

SOURCES = sorted(Path(framerep.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("pattern, homes", [
    # the entrywise and spectral norms are linalg.euclidean_norm and operator_norm
    ("np.linalg.norm", {"linalg.py"}),
    # operand agreement goes through linalg.require_shape; io checks file contents
    ("raise DimensionMismatch", {"linalg.py", "io.py"}),
    # every array a frame, operator or representation keeps is frozen by linalg.frozen
    ("setflags(", {"linalg.py"}),
    # a scale is split off in binary only by linalg.power_of_two_below
    ("frexp", {"linalg.py"}),
    ("ldexp", {"linalg.py"}),
    # no result depends on the environment: settings come from arguments only
    ("os.environ", set()),
    # LAPACK is reached through linalg's wrappers, which name a failed step;
    # the QR of a frame or of a section's rows is taken where its factor is kept
    ("np.linalg.svd", {"linalg.py"}),
    ("np.linalg.inv", {"linalg.py"}),
    ("np.linalg.solve", {"linalg.py"}),
    ("np.linalg.pinv", {"linalg.py"}),
    ("np.linalg.eig", {"linalg.py"}),
    ("np.linalg.qr", {"frames.py", "solve.py"}),
    # the frame's R is inverted only where its inverse is kept; the leading
    # space keeps solve_with_inverse( from matching
    (" inverse(", {"linalg.py", "frames.py"}),
    # the library stays silent: only the command line writes to stdout or stderr
    ("print(", {"cli.py"}),
    ("sys.stdout", {"cli.py"}),
    ("sys.stderr", {"cli.py"}),
], ids=["norm", "dimension_check", "freeze", "frexp", "ldexp", "environ", "svd", "inv",
        "solve", "pinv", "eig", "qr", "inverse", "print", "stdout", "stderr"])
def test_rule_has_one_home(pattern, homes):
    assert SOURCES
    strays = [path.name for path in SOURCES if path.name not in homes
              and pattern in path.read_text(encoding="utf-8")]
    assert strays == [], f"{pattern!r} outside {sorted(homes)}"
