"""facegraph: facial-attribute graphs from landmarks plus a GCN classifier.

Builds per-image graphs whose nodes are facial landmarks and whose edges
combine appearance similarity with spatial proximity, trains a graph
convolutional classifier on them, and ships the evaluation metrics, synthetic
data, file formats and sweep harness needed to study threshold and patch-size
choices.
"""

from .errors import *
from .graphs import *
from .features import *
from .gcn import *
from .metrics import *
from .data import *

__version__ = "0.1.0"
