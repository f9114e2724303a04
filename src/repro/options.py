"""The engine and cost-model names, defined once.

The CLI's ``--engine``/``--model`` choices and the service's request
checks read them from here at startup, without importing the runtime or
the optimizer that resolve them (:func:`repro.runtime.resolve_engine`,
:func:`repro.optimize.model.resolve_model`).
"""

#: Execution engines, in oracle-to-fastest order.
ENGINE_NAMES = ("interpreter", "compiled", "vectorized")

#: Cost models gating speculative admission in model-guided search.
MODEL_NAMES = ("evidence", "static")
