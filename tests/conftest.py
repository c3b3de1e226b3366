"""The tests run under the CLI's thread policy: fuchswave.cli, imported here
before any test module loads numpy, defaults BLAS and OpenMP to one thread
per process, as the forked shares of modal._fork_map expect."""

import fuchswave.cli  # noqa: F401
