#![warn(missing_docs)]
//! PaRSEC-equivalent task runtime.
//!
//! PaRSEC executes algorithms expressed as parameterized task graphs: tasks
//! are vertices, dataflow is edges, and the runtime (a) schedules ready
//! tasks onto cores, (b) ships data between address spaces implied by the
//! edges, and (c) overlaps both. This crate reproduces the three layers the
//! paper's contributions live in:
//!
//! * [`graph`] — the task-graph representation (the unrolled equivalent of
//!   a PTG/JDF program), with dataflow annotations used for communication
//!   accounting. DAG trimming manifests here as *not inserting* tasks.
//! * [`engine`] — the unified execution engines: one shared-memory
//!   work-stealing [`engine::Engine`] (crossbeam deques, real numerical
//!   kernels, validates every configuration at laptop scale) and one
//!   distributed [`engine::DistEngine`] (deterministic virtual-time
//!   message-passing emulation with an optional fault layer), each
//!   driven by a config of composable capability hooks.
//! * [`des`] — a discrete-event simulator of distributed execution: `P`
//!   processes × `cores` each, binomial-tree broadcasts, a latency/
//!   bandwidth link model and per-task runtime overheads. This is the
//!   substitute for the paper's Shaheen II / Fugaku runs (see DESIGN.md §2)
//!   and is driven by the same task graphs the executor runs.
//! * [`machine`] — calibrated machine models for the two supercomputers.
//! * [`critical_path`] — the longest-path "roofline" bound of §VIII-G.
//! * [`trace`] — execution traces and per-class time breakdowns (Fig. 11).
//! * [`obs`] — observability: Chrome-trace (Perfetto) export, JSON/CSV
//!   metrics dumps, structured crash/recovery events, and the always-on
//!   metrics registry. Per-task span capture ([`ExecObs`]) is opt-in per
//!   run; an untraced run passes no observer and pays nothing for it.

pub mod critical_path;
pub mod des;
pub mod engine;
pub mod fault;
pub mod graph;
pub mod machine;
pub mod obs;
pub mod ptg;
pub mod scheduler;
pub mod trace;

pub use des::{
    simulate, simulate_with_faults, simulate_with_scheduler, DesConfig, DesCorrupt, DesCrash,
    DesReport, FaultSchedule,
};
pub use engine::{
    Cancel, DistConfig, DistEngine, DistOutcome, Engine, EngineConfig, EngineError, ExecObs,
    ExecReport, IntegrityHooks, NoCancel, NoObserve, Observe, RankCtx, TaskPanic,
};
pub use fault::{
    fault_bits, fault_unit, CorruptAt, CrashAt, FaultPlan, FaultStats, FtConfig, FtError,
    IntegrityError, RetryConfig,
};
pub use graph::{DataRef, TaskClass, TaskGraph, TaskId, TaskSpec};
pub use machine::MachineModel;
pub use scheduler::{
    dist_priority_order, queue_keys, upward_rank_comm_keys, CommCosts, CostModel,
    LookaheadScheduler, RankProfile, SchedPlan, SchedPolicy, Scheduler, StaticScheduler,
};
pub use obs::registry::{Counter, Gauge, Registry, RegistrySnapshot};
pub use obs::{chrome_trace_json, chrome_trace_json_with_events, RunEvent, RunMetrics};
pub use trace::{ClassBreakdown, Trace};
