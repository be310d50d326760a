"""Execution-backend names still accepted by :class:`~repro.core.config.NovaConfig`.

Phase III runs as one serial pass (:meth:`repro.core.packing.PackingEngine.pack`);
there are no worker pools. ``NovaConfig.execution_backend`` survives only
so existing callers that pass these names keep working.
"""

BACKEND_SERIAL = "serial"
BACKEND_THREAD = "thread"
BACKENDS = (BACKEND_SERIAL, BACKEND_THREAD)
