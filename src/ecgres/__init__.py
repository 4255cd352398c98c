"""Five-class MIT-BIH heartbeat classification with a from-scratch residual 1D CNN."""

from .wfdb_io import BeatClass, EcgRecord, Selection, load_record, select_dataset
from .segment import Beats, build_split, segment_record_beats
from .model import Model, ModelConfig, TrainConfig, build_model, train
from .metrics import compute_metrics, confusion

__all__ = [
    "BeatClass", "EcgRecord", "Selection", "load_record", "select_dataset",
    "Beats", "build_split", "segment_record_beats",
    "Model", "ModelConfig", "TrainConfig", "build_model", "train",
    "compute_metrics", "confusion",
]

__version__ = "0.1.0"
