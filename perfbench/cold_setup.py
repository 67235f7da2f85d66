"""One cold set-up in a fresh process, timed from its first statement.

    python3 perfbench/cold_setup.py <workload> <seed>

Imports ``fdmimo`` (and with it numpy), compiling the package from its
source even when a bytecode cache exists, builds the workload's inputs and
prints the seconds this took.  ``harness.py`` runs it several times, one
process after the other, and reports the median as ``setup_s``.
"""

import time

T0 = time.perf_counter()

import importlib.machinery  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class CompilingLoader(importlib.machinery.SourceFileLoader):
    """Compiles the module from source, never from cached bytecode."""

    def get_code(self, fullname):
        return self.source_to_code(self.get_data(self.path), self.path)


class FdmimoFromSource:
    """Meta-path finder that loads the ``fdmimo`` modules with CompilingLoader,
    so the package's compile cost is part of every cold set-up."""

    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] != "fdmimo":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None and isinstance(spec.loader,
                                           importlib.machinery.SourceFileLoader):
            spec.loader = CompilingLoader(spec.name, spec.origin)
        return spec


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path[:0] = [str(SRC), str(HERE)]
    sys.meta_path.insert(0, FdmimoFromSource)
    import fdmimo
    from workloads import WORKLOADS

    WORKLOADS[workload].setup(fdmimo, seed)
    print(f"{time.perf_counter() - T0:.9f}")


if __name__ == "__main__":
    main()
