//! # sa-platform
//!
//! A miniature distributed stream-processing engine reproducing the
//! design space of the paper's Table 2 and the Lambda Architecture of
//! its Figure 1, on a single machine: worker threads stand in for
//! cluster nodes and batched channels for network links (DESIGN.md §2
//! documents why this preserves the semantics under study).
//!
//! What maps to what:
//!
//! * **Storm** — [`topology`]'s spout/bolt DAG with stream groupings,
//!   and [`acker`]'s XOR-ack protocol giving at-least-once delivery
//!   with replay.
//! * **Heron** — [`Scheduling::ThreadPerTask`]: one task per thread
//!   over bounded inboxes with backpressure, vs. Storm's tasks
//!   multiplexed over shared workers and unbounded queues
//!   ([`Scheduling::WorkStealing`] with fewer workers than tasks) — the
//!   debuggability/isolation redesign the paper describes, benchmarked
//!   in t18. Both are drivers over one runtime ([`executor`]).
//! * **MillWheel** — [`checkpoint`]'s versioned store with atomic
//!   per-key commits and dedup tokens: exactly-once state updates.
//! * **Samza / Kafka** — [`log`]'s durable partitioned log with offsets,
//!   retention ([`log::Log::trim`]) and replayable consumers.
//! * **The operator layer** — [`operator`]: [`operator::SynopsisBolt`]
//!   runs any `sa_core::Synopsis` with checkpointed exactly-once state,
//!   [`operator::LogSpout`] replays the log after a crash, and
//!   [`operator::MergeBolt`] merges partition-local sketches into a
//!   global view.
//! * **Figure 1 (Lambda)** — [`lambda`]: immutable master dataset,
//!   batch views, serving-layer index, speed layer, merged queries.
//!
//! §3's platform requirements are exercised by tests: resilience to
//! out-of-order/missing data (event-time windows + watermarks via
//! `sa-windows`), predictable outcomes (exactly-once test), availability
//! under failures (failure-injection tests), and incremental scale-out
//! (parallelism sweeps in t18).

pub mod acker;
pub mod alloc_stats;
pub mod channel;
pub mod checkpoint;
pub mod executor;
pub mod frame;
pub mod lambda;
pub mod log;
pub mod metrics;
pub mod operator;
pub mod query;
pub mod rescale;
pub mod serving;
pub mod storage;
pub mod supervise;
pub mod time;
pub mod topology;
pub mod tuple;
pub mod window;

pub use channel::LinkStats;
pub use checkpoint::{CheckpointStore, DurableConfig};
pub use executor::{run_topology, run_topology_with, ExecutorConfig, RunResult, Semantics};
pub use frame::Frame;
pub use log::{Consumer, Log, Record};
pub use metrics::{
    CounterHandle, GaugeHandle, HistogramHandle, HistogramSummary, LinkSnapshot, Metrics,
    MetricsSnapshot, Sampler, SchedCounters,
};
pub use operator::{
    decode_checkpoint, frontier_offset, replay_offset, Checkpointed, LogSpout, MergeBolt,
    OperatorConfig, OperatorState, SynopsisBolt, SynopsisState,
};
pub use query::{
    session, sliding, tumbling, CompiledQuery, ContinuousQuery, Parallelism, Query, ViewEntry,
    ViewHandle,
};
pub use rescale::{
    group_key, group_of_hash, key_group, task_of_group, AutoPolicy, AutoTick, Autoscaler,
    RescaleController, Shard, ShardTable, KEY_GROUPS,
};
pub use serving::{EpochData, Layer, QueryHandle, QueryResult, ServingView, Staleness, ViewRead};
pub use storage::{
    DiskStorage, FaultyStorage, MemStorage, Storage, StorageFaults, StorageStats, SyncPolicy,
};
pub use supervise::{panic_message, FaultPlan, RestartDecision, RestartPolicy, RestartTracker};
pub use time::{WatermarkConfig, WatermarkGen, WatermarkMerger};
pub use topology::{
    vec_spout, Bolt, BoltBuilder, BoltFactory, BoltHandle, Grouping, IntoBoltFactory,
    OutputCollector, Scheduling, Spout, SpoutHandle, TopologyBuilder, VecSpout,
};
pub use tuple::{tuple_of, Batch, Tuple, Value};
pub use window::{WindowBolt, WindowConfig, WindowSpec, WindowState};
