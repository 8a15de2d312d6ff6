"""Knowledge-enhanced graph attention pipeline for commonsense
validation/explanation, with a synthetic desk-scale benchmark."""

from .kgstore import (DEFAULT_BLOCKLIST, Edge, KnowledgeGraph, load_graph,
                      neighbors, top_neighbors)
from .linker import TokenSpan, extract_entities, tokenize
from .kemb import (InjectedSequence, InjectedTree, Template, build_tree,
                   default_templates, flatten, realize_triple)
from .vocab import Vocab
from .model import KegatModel, ModelConfig
from .harness import (ComveInstance, convert, evaluate, generate_augmented,
                      load_comve, synth_benchmark)
from .trainkit import (OptimizerState, ParamStore, Schedule, adam_step,
                       compute_gradients, load_checkpoint, save_checkpoint,
                       two_phase_train)

__version__ = "0.1.0"
