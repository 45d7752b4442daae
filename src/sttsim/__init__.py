"""Trace-driven simulation of multicore processors whose L1 data caches use
relaxed-retention STT-RAM, plus the runtime that predicts and schedules the
best core per application under DVFS and performance constraints."""

from .cache import (AccessOutcome, CacheState, CacheStats, HIT, MISS,
                    MISS_EXPIRATION, MISS_NONE, MISS_OTHER)
from .config import (CacheGeometry, CoreSpec, DvfsRange, MemTechnology, SRAM,
                     STT_10US, STT_26_5US, STT_75US, STT_400US, System,
                     TECHNOLOGIES, access_cycles, voltage_for_frequency)
from .configfile import (ConfigError, ExperimentConfig, default_config,
                         default_system, load_config, parse_config)
from .constraints import (BEST_PERF, Constraint, FEATURE_SETS, KINDS,
                          NO_CONSTRAINT, SLACK10, SLACK20)
from .engine import (PowerModel, RunResult, SweepResult, cache_energy, edp,
                     exhaustive_sweep, pareto_flags, processor_energy,
                     select_best, simulate_run)
from .features import FeatureVector, features_from_run, profile_application
from .predictor import (CorePredictor, TrainingSet, dump_tree, gini,
                        label_oracle, load_model, load_tree, save_model,
                        train_tree)
from .scheduler import (AppPlacement, HistoryTable, ScheduleDecision,
                        Scheduler, WorkloadAssignment)
from .trace import (BimodalGaps, SynthParams, Trace, TraceEvent,
                    TraceParseError, UniformGaps, gen_synthetic, load_trace,
                    parse_trace, serialize_trace, write_trace)

__version__ = "0.1.0"
