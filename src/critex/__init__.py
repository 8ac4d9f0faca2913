"""critex: blow-up vs global existence for a forced semilinear heat equation."""

# No module of the package calls kernels any more; loading it here keeps
# critex.kernels.backend_name() available to the benchmark's run record.
from . import kernels  # noqa: F401

__version__ = "0.1.0"
