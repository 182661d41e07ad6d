"""Low-degree communication policies for decentralized multi-agent planning.

Pipeline: train a full-communication attention policy on a differentiable
simulator, cache its per-step behavior, synthesize a small rule program that
imitates it while minimizing the maximum communication degree, then retrain
the networks under the program's hardened attention.
"""

from .autodiff import ParamStore, Tape, Tensor, adam_step, backward
from .dsl import (
    CommGraph,
    DetRule,
    FeatureMap,
    Program,
    RandRule,
    degree_stats,
    eval_program,
    eval_program_batch,
    parse_program,
    print_program,
)
from .env import (
    GlobalAction,
    GlobalState,
    RewardParams,
    TaskConfig,
    Trajectory,
    apply_link_failure,
    rollout,
    sample_initial,
    simulate,
    world_step,
)
from .harness import Metrics, RunManifest, evaluate, evaluate_many, report, sweep
from .policy import (
    CombinedPolicy,
    DistMaskPolicy,
    NoCommPolicy,
    TfFullPolicy,
    TopKAttnPolicy,
    make_policy,
)
from .synth import (
    SynthConfig,
    SynthDataset,
    collect_dataset,
    mcmc_synthesize,
    propose,
    synthesize_multiround,
)
from .training import TrainConfig, retrain, train_oracle
from .transformer import (
    TransformerParams,
    forward_policy,
    forward_round,
    harden_rows,
    init_for_task,
    init_transformer,
    squash_action,
)

__version__ = "0.1.0"
