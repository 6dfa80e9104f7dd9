"""Associative constructive evolution: metaheuristic explorers coupled
with a learned transition model that consolidates successful operation
patterns and feeds them back as sampling bias and macro operations."""

from .chain import ChainDomain, ChainSpec, brute_force_optimum, chain_fitness
from .ea import EaExplorer, EaParams, crossover, mutate, select
from .errors import (
    AceError,
    ConfigError,
    DomainError,
    InsufficientDataError,
    InternalError,
    ParseError,
    UndefinedEffectError,
)
from .gca import (
    GcaModel,
    GcaParams,
    MacroOperation,
    apply_exploration_floor,
    deserialize_model,
    load_model,
    save_model,
    serialize_model,
)
from .loop import (
    ExperimentConfig,
    GenerationResult,
    PairEvent,
    RunRecord,
    Trajectory,
    TrajectoryEvent,
    path_efficiency,
    run_ace,
    run_standard,
)
from .maze import Maze, MazeDomain, bfs_shortest_path, generate_maze, maze_to_text
from .pso import Particle, PsoExplorer, PsoParams, construct_path
from .stats import (
    PairedSample,
    cohens_d,
    sign_test_one_sided,
    summarize,
    wilcoxon_signed_rank,
)

__version__ = "0.1.0"
