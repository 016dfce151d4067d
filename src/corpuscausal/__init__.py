"""Causal effect estimation for corpus statistics behind factual LM predictions.

The package estimates, from observational data alone, how much
training-corpus statistics (exact-utterance storage, pattern-object
co-occurrence, subject-object co-occurrence) drive a model's factual
predictions: encode the assumed causal graph, verify backdoor adjustment
sets, build matched population tables from a knowledge base plus corpus
index, and estimate average treatment effects per hypothesis.
"""

from . import errors
from .corpus import (
    BIN_EDGES,
    BIN_LABELS,
    CorpusIndex,
    bin_count,
    build_index,
    instantiate,
    normalize_text,
    ranked_objects,
    segment_sentences,
)
from .estimator import (
    DoEstimate,
    ObservationTable,
    ate,
    cate,
    exact_joint_do,
    interventional_prob,
    read_table,
)
from .graph import (
    CANONICAL_ADJUSTMENTS,
    CausalGraph,
    build_graph,
    is_d_separated,
    is_d_separated_by_enumeration,
    reference_graph,
    satisfies_backdoor,
)
from .kb import (
    KnowledgeBase,
    PatternSpec,
    Triplet,
    load_kb,
    load_knowledge_base,
    load_patterns,
)
from .pipeline import (
    EffectReport,
    RunConfig,
    emit_report,
    load_config,
    load_report,
    run_build_population,
    run_dynamics,
    run_estimate,
)
from .population import (
    MatchedPopulation,
    PopulationRow,
    build_structure,
    build_table,
    population_observation_table,
    read_population,
    score_population,
    write_population,
)
from .predictions import (
    PredictionSet,
    baseline_predict,
    load_predictions,
    outcome_flag,
    save_predictions,
)

__version__ = "0.1.0"
