"""Channel-aware transformer representations for multivariate time series.

The package provides a small float64 autodiff core, a two-tower
cross-attending encoder that summarizes each channel of a series into one
feature row, self-supervised pretraining via next-trend prediction and
temperature-scaled contextual similarity over augmented batches, and a
frozen-encoder linear-probe harness for downstream classification.
"""

__version__ = "0.1.0"

from .augment import AugmentConfig, async_permute, interval_adjust, sync_permute
from .checkpoint import load_encoder, save_encoder
from .data import (
    MtsDataset,
    NormStats,
    batches,
    load_dataset,
    make_synthetic_fixture,
    parse_csv,
    parse_ts,
    serialize_ts,
    subsample,
    train_test_split,
    znormalize,
)
from .encoder import (
    CatParams,
    Encoder,
    EncoderConfig,
    aggregate,
    co_layer,
    embed,
    encode,
    init_cat_params,
)
from .errors import ChantsError, CheckpointError, ConfigError, DataError, ShapeError
from .harness import (
    Metrics,
    TrainConfig,
    compute_metrics,
    fewshot_sweep,
    linear_probe,
    load_pretrained,
    pretrain,
    supervised_baseline,
)
from .optim import AdamState, adam_step, init_adam_state
from .pretext import (
    CsBatch,
    LossWeights,
    PretextHeads,
    build_cs_batch,
    combined_loss,
    cs_loss,
    init_pretext_heads,
    make_ntp_instances,
    ntp_loss,
    nvp_loss,
)
from .tensor import (
    AttnWeights,
    Tensor,
    cross_entropy,
    flop_estimate,
    layer_norm,
    matmul,
    multi_head_attention,
    no_grad,
    softmax,
)
