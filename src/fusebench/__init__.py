"""Decision-level multi-modal fusion and tracking-benchmark evaluation.

The toolkit operates purely on annotations, predictions and confidence
scores -- no pixel data is ever loaded. It provides:

* an evaluation engine for success/precision curves and AUC with explicit
  target-absence semantics (:mod:`fusebench.metrics`);
* a confidence-gated mixture-of-experts decision layer and its selection
  statistics (:mod:`fusebench.fusion`);
* a deterministic simulator for studying when fusing modalities helps and
  when it hurts (:mod:`fusebench.simulate`);
* parsers/writers for benchmark file layouts (:mod:`fusebench.io`);
* subset evaluation (:mod:`fusebench.analysis`), and benchmark-balance
  indicators and report export (:mod:`fusebench.report`);
* a thin CLI over all of the above (``fusebench`` / ``python -m fusebench``).
"""

import importlib

__version__ = "0.1.0"

# Each module's ``__all__`` is the one declaration of its public names. A
# name is looked up on first use, in this order, so ``import fusebench``
# loads no module and the numpy-free ``errors`` and ``report`` load no numpy.
_MODULES = ("errors", "report", "model", "metrics", "fusion", "simulate", "analysis")


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    for module in map(__getattr__, _MODULES):
        if name in module.__all__:
            globals()[name] = value = getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *(n for m in map(__getattr__, _MODULES) for n in m.__all__)})
