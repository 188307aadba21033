"""Composable message-passing flows with LLM backends, a code-judging
sandbox, and an evaluation harness for competitive-coding experiments.
"""

from . import ccflows, compose, llm, sandbox  # noqa: F401  (register flow kinds)
from .backends import (
    BackendRequest,
    ChatTurn,
    RemoteBackend,
    ResponseCache,
    ResponseRule,
    ScriptedBackend,
    cached_complete,
    render_template,
)
from .ccflows import (
    CODE_PARTS,
    DEFAULT_VARIANTS,
    PLAN_PARTS,
    FlowVariant,
    VariantSettings,
    build_prompt_vars,
    build_variant,
    detect_final_answer,
    extract_code,
    oracle_plan,
    parse_variant,
    problem_payload,
)
from .compose import KeyMapping, TerminationPredicate
from .core import (
    FlowConfig,
    FlowInstance,
    FlowState,
    Message,
    RunContext,
    create_flow,
    load_flow_config,
    package_input,
    register_flow_kind,
    registered_kinds,
    reset_state,
    run,
    save_flow_config,
    snapshot_states,
    walk_instances,
)
from .dataset import (
    DEFAULT_CUTOFF,
    Problem,
    bucket_key,
    load_problem_file,
    load_problems,
)
from .errors import (
    AuthError,
    BackendError,
    ConfigError,
    DatasetError,
    FlowError,
    MalformedCompletionError,
    MissingInputKeysError,
    NestflowError,
    ReplayDivergenceError,
    RetryBudgetExhaustedError,
    SandboxEnvironmentError,
    ScriptExhaustedError,
    TemplateError,
    TransientBackendError,
)
from .evalharness import (
    EvalSettings,
    RunRecord,
    SolveRate,
    WindowPoint,
    bootstrap_ci,
    evaluate_grid,
    pass_at_1,
    read_records,
    read_temporal_csv,
    render_results_table,
    replay_pair,
    results_table_csv,
    sliding_window,
    solve_rate,
    stats_from_records,
    write_report,
    write_temporal_csv,
)
from .sandbox import (
    ExecutionLimits,
    Failure,
    TestCase,
    TestReport,
    Verdict,
    compare_output,
    format_report,
    run_tests,
)
from .trace import (
    EVENT_KINDS,
    TRACE_FORMAT_VERSION,
    TraceEvent,
    TraceSink,
    normalize_trace,
    read_trace,
)

__version__ = "0.1.0"
