"""Execution backends for batch partial-bitstream generation.

Public surface of the backend subsystem (see :mod:`repro.exec.backend`
for the strategy classes and :mod:`repro.exec.pool` for the warm worker
pool)::

    from repro.exec import default_workers, get_backend

    engine = BatchJpg("XCV100", base, backend="warm")
    report = engine.run(items)      # byte-identical to backend="serial"
    engine.close()                  # stops the pool's workers
"""

from ..errors import ExecError
from .backend import (
    BACKEND_NAMES,
    MAX_DEFAULT_WORKERS,
    Backend,
    SerialBackend,
    default_workers,
    get_backend,
    in_worker_process,
    mark_worker_process,
)
from .pool import WarmPool

__all__ = [
    "BACKEND_NAMES",
    "MAX_DEFAULT_WORKERS",
    "Backend",
    "ExecError",
    "SerialBackend",
    "WarmPool",
    "default_workers",
    "get_backend",
    "in_worker_process",
    "mark_worker_process",
]
