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
* subset evaluation, benchmark-balance indicators and report export
  (:mod:`fusebench.analysis`);
* a thin CLI over all of the above (``fusebench`` / ``python -m fusebench``).
"""

# Each module's ``__all__`` is the one declaration of its public names
# (``errors`` has no ``__all__``: every name it defines is a public class).
from .errors import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .fusion import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403

__version__ = "0.1.0"
