//! # streaming-analytics
//!
//! A from-scratch Rust reproduction of **"Real Time Analytics:
//! Algorithms and Systems"** (Kejariwal, Kulkarni, Ramasamy — VLDB 2015
//! tutorial): every algorithm family of the paper's Table 1, a
//! miniature stream-processing platform spanning the design space of
//! its Table 2 (Storm/Heron/MillWheel/Samza semantics), and the Lambda
//! Architecture of its Figure 1.
//!
//! This façade crate re-exports the workspace. Start with the examples:
//!
//! * `examples/quickstart.rs` — a tour of the sketch toolbox.
//! * `examples/trending_hashtags.rs` — heavy hitters on a Zipf tweet
//!   stream, standalone and as a platform topology.
//! * `examples/site_audience.rs` — cardinality estimation across
//!   distributed partitions.
//! * `examples/sensor_pipeline.rs` — anomaly detection + Kalman
//!   imputation over a sensor stream.
//! * `examples/lambda_wordcount.rs` — the Figure-1 Lambda Architecture
//!   end to end.
//! * `examples/observability.rs` — the platform watching itself:
//!   GK-sketch latency histograms, queue-depth gauges, backpressure
//!   stalls.
//! * `examples/supervised.rs` — an exact word count surviving injected
//!   panics, link drops, and a poison record under supervision.
//!
//! Per-module guides live in each crate:
//! [`sketches`], [`sampling`], [`windows`], [`timeseries`],
//! [`clustering`], [`graph`], [`sequences`], [`histograms`],
//! [`platform`], with shared plumbing in [`core`].

pub use sa_clustering as clustering;
pub use sa_core as core;
pub use sa_graph as graph;
pub use sa_histograms as histograms;
pub use sa_platform as platform;
pub use sa_sampling as sampling;
pub use sa_sequences as sequences;
pub use sa_sketches as sketches;
pub use sa_timeseries as timeseries;
pub use sa_windows as windows;

/// One-stop import for applications: the cross-crate summary traits and
/// the platform's public surface. The platform has one runtime;
/// `ExecutorConfig::scheduling` ([`prelude::Scheduling`]) picks the
/// driver that maps its tasks onto threads — a thread per task over
/// bounded inboxes (default), or a work-stealing pool.
///
/// ```
/// use streaming_analytics::prelude::*;
///
/// let mut tb = TopologyBuilder::new();
/// tb.set_spout("words", vec![vec_spout(vec![tuple_of(["a"]), tuple_of(["b"])])]);
/// tb.set_bolt("echo", vec![Box::new(|t: &Tuple, out: &mut OutputCollector| {
///     out.emit(t.clone());
/// }) as Box<dyn Bolt>])
///   .shuffle("words");
/// let result = run_topology(tb, ExecutorConfig::default()).unwrap();
/// assert_eq!(result.outputs["echo"].len(), 2);
/// ```
pub mod prelude {
    pub use sa_core::codec::{ByteReader, ByteWriter, CodecItem};
    pub use sa_core::error::{Result, SaError, TopologyError};
    pub use sa_core::synopsis::Synopsis;
    pub use sa_core::traits::{
        Aggregator, CardinalityEstimator, FrequencyEstimator, MembershipFilter, Merge,
        QuantileSketch,
    };
    pub use sa_platform::{
        decode_checkpoint, frontier_offset, group_key, group_of_hash, key_group, replay_offset,
        run_topology, run_topology_with, session, sliding, task_of_group, tumbling, tuple_of,
        vec_spout, AutoPolicy, AutoTick, Autoscaler, Batch, Bolt, BoltBuilder, BoltFactory,
        BoltHandle, CheckpointStore, Checkpointed, CompiledQuery, Consumer, ContinuousQuery,
        CounterHandle, DiskStorage, DurableConfig, EpochData, ExecutorConfig, FaultPlan,
        FaultyStorage, GaugeHandle, Grouping, HistogramSummary, IntoBoltFactory, Layer,
        LinkSnapshot, LinkStats, Log, LogSpout, MemStorage, MergeBolt, Metrics, MetricsSnapshot,
        OperatorConfig, OperatorState, OutputCollector, Parallelism, Query, QueryHandle,
        QueryResult, Record, RescaleController, RestartDecision, RestartPolicy, RestartTracker,
        RunResult, SchedCounters, Scheduling, Semantics, ServingView, Shard, ShardTable, Spout,
        SpoutHandle, Staleness, Storage, StorageFaults, StorageStats, SyncPolicy, SynopsisBolt,
        TopologyBuilder, Tuple, Value, VecSpout, ViewEntry, ViewHandle, ViewRead, WatermarkConfig,
        WatermarkGen, WatermarkMerger, WindowBolt, WindowConfig, WindowSpec, KEY_GROUPS,
    };
}
