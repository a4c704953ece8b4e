"""Memory-centric image classifier.

Local and global associative-memory retrieval with iterative refinement
in place of attention, plus a training harness and analysis tooling.
"""

__version__ = "0.1.0"

from .config import RunConfig, config_from_dict, load_config
from .memory import MemoryBank
from .model import Model, load_checkpoint, save_checkpoint
from .retrieval import variance_probe

__all__ = [
    "RunConfig", "config_from_dict", "load_config", "MemoryBank", "Model",
    "load_checkpoint", "save_checkpoint", "variance_probe", "__version__",
]
