"""Rules that live in one module of the package, enforced on its source text."""

from pathlib import Path

import pytest

import framerep

SOURCES = sorted(Path(framerep.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("pattern, homes", [
    # the entrywise and spectral norms are linalg.euclidean_norm and operator_norm
    ("np.linalg.norm", {"linalg.py"}),
    # the solver takes no norm of its own: both residuals are linalg.product_norm_ratio
    ("euclidean_norm(", {"linalg.py", "frames.py", "represent.py"}),
    # operand agreement goes through linalg.require_shape; io checks file contents
    ("raise DimensionMismatch", {"linalg.py", "io.py"}),
    # every array a frame, operator or representation keeps is frozen by linalg.frozen
    ("setflags(", {"linalg.py"}),
    # a scale is split off in binary only by linalg's one exponent split
    ("frexp", {"linalg.py"}),
    ("ldexp", {"linalg.py"}),
    # a product leaves the float range only through finite_product's exponent
    # ledger, so solve splits no scale of its own
    ("split_exponent(", {"linalg.py", "frames.py", "represent.py"}),
    # the frame and the solver check a range only through finite_product
    ("require_finite(", {"linalg.py", "represent.py"}),
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
    # space matches a call of linalg.inverse, not of a name ending in inverse
    (" inverse(", {"linalg.py", "frames.py"}),
    # a frame's cached layers are read and written only by the frame; linalg
    # builds an object around an array without its constructor
    ("__dict__", {"frames.py", "linalg.py"}),
    # the QR's Q is applied by the frame alone, in Frame._project and the canonical dual
    ("_orthonormal_factor", {"frames.py"}),
    # the solver multiplies only through finite_product's exponent ledger
    (" @ ", {path.name for path in SOURCES} - {"solve.py"}),
    # the exponent ledger's one band, [2^-969, 2^960), is stated only in linalg
    ("2.0**-969", {"linalg.py"}),
    ("2.0**960", {"linalg.py"}),
    # the library stays silent: only the command line writes to stdout or stderr
    ("print(", {"cli.py"}),
    ("sys.stdout", {"cli.py"}),
    ("sys.stderr", {"cli.py"}),
], ids=["norm", "euclidean_norm", "dimension_check", "freeze", "frexp", "ldexp",
        "split_exponent", "require_finite", "environ", "svd", "inv", "solve", "pinv", "eig", "qr",
        "inverse", "dict", "q_factor", "raw_product", "ledger_floor", "ledger_ceiling", "print",
        "stdout", "stderr"])
def test_rule_has_one_home(pattern, homes):
    assert SOURCES
    strays = [path.name for path in SOURCES if path.name not in homes
              and pattern in path.read_text(encoding="utf-8")]
    assert strays == [], f"{pattern!r} outside {sorted(homes)}"
