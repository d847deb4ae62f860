//! Dependency-free tracing + metrics substrate for the campaign stack.
//!
//! The replay engine, the campaign session, and the hardening loop are
//! instrumented with *spans* (timed phases: recording, snapshot capture,
//! checkpoint restore, injection, classification, bucket sweeps) and
//! *counters/gauges* (plans executed, cache hits/misses with per-guard
//! invalidation reasons, checkpoint restores vs COW clones, bucket
//! occupancy, retained snapshot bytes, per-order success counts). All of
//! it flows through one cloneable [`Telemetry`] handle:
//!
//! - [`Telemetry::default`] is **disabled**: every instrumentation call
//!   is a `None` check and the hot path takes no clock reads — the
//!   instrumented engine costs nothing when nobody is watching.
//! - [`Telemetry::counters`] keeps atomic counters/gauges but skips span
//!   timing (no `Instant::now` per plan) — cheap enough for always-on
//!   throughput accounting.
//! - [`Telemetry::timed`] additionally times spans, and
//!   [`Telemetry::with_sinks`] fans every event out to attached
//!   [`Recorder`] sinks such as [`JsonlRecorder`] (a schema-versioned
//!   JSONL event stream) or [`ProgressRecorder`] (a throttled
//!   stderr progress line).
//!
//! Aggregated state is read back as a [`MetricsSnapshot`]: an all-`u64`
//! value that merges across shards/threads/iterations and serializes to
//! JSON with a stable key order.
//!
//! # Attaching a recorder to a campaign session
//!
//! ```
//! use rr_fault::{CampaignSession, Collect, InstructionSkip};
//! use rr_telemetry::{Counter, SpanKind, Telemetry};
//!
//! let w = rr_workloads::pincheck();
//! let telemetry = Telemetry::timed();
//! let session = CampaignSession::builder(w.build()?)
//!     .good_input(&w.good_input[..])
//!     .bad_input(&w.bad_input[..])
//!     .telemetry(telemetry.clone())
//!     .build()?;
//! session.run(&[&InstructionSkip], Collect);
//!
//! let m = telemetry.metrics().expect("telemetry is enabled");
//! assert!(m.counter(Counter::PlansExecuted) > 0);
//! assert!(m.span(SpanKind::Classify).count > 0);
//! assert!(m.plans_per_sec() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema tag stamped on every JSONL trace event.
pub const TRACE_SCHEMA: &str = "rr-trace-v1";
/// Schema tag stamped on the serialized [`MetricsSnapshot`].
pub const METRICS_SCHEMA: &str = "rr-metrics-v1";
/// Per-order success counts are tracked up to this plan order; higher
/// orders are folded into the last slot.
pub const MAX_TRACKED_ORDER: usize = 8;

// ---------------------------------------------------------------------
// Event vocabulary
// ---------------------------------------------------------------------

/// A timed phase of campaign execution. `Record`, `Restore`, `Inject`,
/// and `Classify` are non-overlapping and partition the campaign work
/// (their durations sum to ≈ the campaign wall time on a single-threaded
/// run). Two kinds nest inside others and must not be added to that sum:
/// [`SpanKind::Snapshot`] captures happen *inside* the golden
/// [`SpanKind::Record`] pass, and [`SpanKind::BucketSweep`] wraps a whole
/// checkpoint-neighbourhood sweep including the restore/inject/classify
/// spans of its plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Recording a golden pass (trace + checkpoints).
    Record,
    /// Capturing one machine snapshot (nested inside `Record`).
    Snapshot,
    /// Restoring a checkpoint and stepping forward to an injection point.
    Restore,
    /// Applying fault effects and running the faulted machine.
    Inject,
    /// Classifying a faulted run against the oracle.
    Classify,
    /// One whole checkpoint-neighbourhood bucket sweep (restore, cursor
    /// stepping, per-plan COW clones, and the nested inject/classify
    /// spans of every plan in the bucket).
    BucketSweep,
}

impl SpanKind {
    /// Number of span kinds.
    pub const COUNT: usize = 6;
    /// Every span kind, in serialization order.
    pub const ALL: [SpanKind; SpanKind::COUNT] = [
        SpanKind::Record,
        SpanKind::Snapshot,
        SpanKind::Restore,
        SpanKind::Inject,
        SpanKind::Classify,
        SpanKind::BucketSweep,
    ];

    /// Stable wire name (used as JSON key and JSONL `span` value).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Record => "record",
            SpanKind::Snapshot => "snapshot",
            SpanKind::Restore => "restore",
            SpanKind::Inject => "inject",
            SpanKind::Classify => "classify",
            SpanKind::BucketSweep => "bucket_sweep",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A monotonically increasing count of discrete campaign events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Plans evaluated (cache hits + replays).
    PlansExecuted,
    /// Plans answered from the incremental classification cache.
    CacheHits,
    /// Plans that required a replay (no reusable cached classification).
    CacheMisses,
    /// Seed results dropped because the oracle fingerprint changed.
    InvalidatedFingerprint,
    /// Seed results dropped because the faulted step budget changed under
    /// a `TimedOut` classification.
    InvalidatedBudget,
    /// Seed results dropped because a layout-sensitive effect
    /// (instruction/register bit flips) met a non-noop listing delta.
    InvalidatedLayout,
    /// Seed results dropped because the trace drifted within the reuse
    /// guard window of the plan's injection steps.
    InvalidatedDirty,
    /// Checkpoint restores performed by `machine_at` positioning.
    CheckpointRestores,
    /// COW machine clones taken from an in-flight bucket-sweep cursor.
    CowClones,
    /// Checkpoint-neighbourhood bucket sweeps executed.
    BucketSweeps,
    /// Plans evaluated inside bucket sweeps (occupancy numerator:
    /// `bucket_plans / bucket_sweeps` is the mean bucket size).
    BucketPlans,
    /// Superblocks pre-decoded into the block-cached execution engine.
    BlocksDecoded,
    /// Instructions executed from pre-decoded block bodies (cached, or
    /// decoded into the per-run overlay over modified code).
    BlockSteps,
    /// Instructions executed by the plain interpreter while a block
    /// cache was available: bytes that do not decode, fetches from
    /// non-executable memory, and cache misses while no code has been
    /// overwritten. Modified code runs from the overlay instead (counted
    /// under `BlockSteps`).
    InterpSteps,
    /// Blocks decoded from a faulted machine's current code bytes into
    /// the per-run overlay (code a bit flip modified, or cache misses
    /// once any code has been overwritten).
    DirtyBlocksDecoded,
    /// Cached blocks invalidated by a rewrite's listing delta.
    BlockInvalidations,
    /// Hot superblocks compiled into pre-lowered micro-op traces.
    BlocksCompiled,
    /// Instructions executed from compiled micro-op bodies (the third
    /// tier alongside `BlockSteps` and `InterpSteps`).
    UopSteps,
    /// Deferred NZCV tuples actually materialized by the uop tier (a
    /// consumer or block exit read the flags; fused compare+branch
    /// idioms never count here).
    FlagMaterializations,
    /// Blocks promoted from decoded to compiled execution by crossing
    /// the hot threshold.
    TierPromotions,
    /// Compiled superblocks for which the uop compiler's `rr-ir`
    /// optimization stage produced an improved trace.
    BlocksOptimized,
    /// Uop slots the optimization stage replaced with a cheaper form.
    UopsEliminated,
    /// Redundant loads removed by the optimization stage (forwarded
    /// from an earlier load or store of the same address).
    LoadsForwarded,
    /// Provably dead NZCV definitions dropped by the optimization
    /// stage.
    FlagDefsKilled,
    /// Plans the static analysis proved benign and pruned from the plan
    /// space before any replay time was spent.
    PlansPrunedStatic,
    /// Statically-benign plans that classified as something other than
    /// `Benign` under `--audit-analysis` — analysis soundness
    /// violations (zero for a sound analysis).
    AuditFailures,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 26;
    /// Every counter, in serialization order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::PlansExecuted,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::InvalidatedFingerprint,
        Counter::InvalidatedBudget,
        Counter::InvalidatedLayout,
        Counter::InvalidatedDirty,
        Counter::CheckpointRestores,
        Counter::CowClones,
        Counter::BucketSweeps,
        Counter::BucketPlans,
        Counter::BlocksDecoded,
        Counter::BlockSteps,
        Counter::InterpSteps,
        Counter::DirtyBlocksDecoded,
        Counter::BlockInvalidations,
        Counter::BlocksCompiled,
        Counter::UopSteps,
        Counter::FlagMaterializations,
        Counter::TierPromotions,
        Counter::BlocksOptimized,
        Counter::UopsEliminated,
        Counter::LoadsForwarded,
        Counter::FlagDefsKilled,
        Counter::PlansPrunedStatic,
        Counter::AuditFailures,
    ];

    /// Stable wire name (used as JSON key).
    pub fn as_str(self) -> &'static str {
        match self {
            Counter::PlansExecuted => "plans_executed",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::InvalidatedFingerprint => "invalidated_fingerprint",
            Counter::InvalidatedBudget => "invalidated_budget",
            Counter::InvalidatedLayout => "invalidated_layout",
            Counter::InvalidatedDirty => "invalidated_dirty",
            Counter::CheckpointRestores => "checkpoint_restores",
            Counter::CowClones => "cow_clones",
            Counter::BucketSweeps => "bucket_sweeps",
            Counter::BucketPlans => "bucket_plans",
            Counter::BlocksDecoded => "blocks_decoded",
            Counter::BlockSteps => "block_steps",
            Counter::InterpSteps => "interp_steps",
            Counter::DirtyBlocksDecoded => "dirty_blocks_decoded",
            Counter::BlockInvalidations => "block_invalidations",
            Counter::BlocksCompiled => "blocks_compiled",
            Counter::UopSteps => "uop_steps",
            Counter::FlagMaterializations => "flag_materializations",
            Counter::TierPromotions => "tier_promotions",
            Counter::BlocksOptimized => "blocks_optimized",
            Counter::UopsEliminated => "uops_eliminated",
            Counter::LoadsForwarded => "loads_forwarded",
            Counter::FlagDefsKilled => "flag_defs_killed",
            Counter::PlansPrunedStatic => "plans_pruned_static",
            Counter::AuditFailures => "audit_failures",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A sampled level. [`Gauge::PlansTotal`] accumulates (each campaign
/// announces its plan batch, so done/total stay coherent across a
/// hardening loop); the others keep the latest sample and merge by `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Total plans announced for evaluation (progress denominator).
    PlansTotal,
    /// Bytes retained by the recorded checkpoints (base snapshot resident
    /// bytes + page-granular dirtied bytes, via `MemoryStats`).
    RetainedSnapshotBytes,
    /// Checkpoints retained by the replay engine.
    Checkpoints,
}

impl Gauge {
    /// Number of gauges.
    pub const COUNT: usize = 3;
    /// Every gauge, in serialization order.
    pub const ALL: [Gauge; Gauge::COUNT] =
        [Gauge::PlansTotal, Gauge::RetainedSnapshotBytes, Gauge::Checkpoints];

    /// Stable wire name (used as JSON key).
    pub fn as_str(self) -> &'static str {
        match self {
            Gauge::PlansTotal => "plans_total",
            Gauge::RetainedSnapshotBytes => "retained_snapshot_bytes",
            Gauge::Checkpoints => "checkpoints",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

// ---------------------------------------------------------------------
// Recorder trait
// ---------------------------------------------------------------------

/// A telemetry sink. Every method has an empty default body so sinks
/// implement only the events they care about; all methods must be cheap
/// and thread-safe — they are called from the campaign hot path on every
/// worker thread.
pub trait Recorder: Send + Sync {
    /// One span closed after `dur_ns` nanoseconds.
    fn span(&self, _kind: SpanKind, _dur_ns: u64) {}
    /// A counter advanced by `n`.
    fn count(&self, _counter: Counter, _n: u64) {}
    /// A gauge sampled at `value` (for [`Gauge::PlansTotal`]: a new batch
    /// of `value` plans announced).
    fn gauge(&self, _gauge: Gauge, _value: u64) {}
    /// A plan of `order` injections classified as a success.
    fn success(&self, _order: usize) {}
    /// Flush any buffered output (end of run).
    fn flush(&self) {}
}

// ---------------------------------------------------------------------
// The always-on atomic metrics core
// ---------------------------------------------------------------------

fn zeros<const N: usize>() -> [AtomicU64; N] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

struct MetricsCore {
    start: Instant,
    span_count: [AtomicU64; SpanKind::COUNT],
    span_ns: [AtomicU64; SpanKind::COUNT],
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    successes: [AtomicU64; MAX_TRACKED_ORDER],
}

impl MetricsCore {
    fn new() -> MetricsCore {
        MetricsCore {
            start: Instant::now(),
            span_count: zeros(),
            span_ns: zeros(),
            counters: zeros(),
            gauges: zeros(),
            successes: zeros(),
        }
    }

    fn span(&self, kind: SpanKind, dur_ns: u64) {
        self.span_count[kind.index()].fetch_add(1, Ordering::Relaxed);
        self.span_ns[kind.index()].fetch_add(dur_ns, Ordering::Relaxed);
    }

    fn count(&self, counter: Counter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    fn gauge(&self, gauge: Gauge, value: u64) {
        match gauge {
            Gauge::PlansTotal => {
                self.gauges[gauge.index()].fetch_add(value, Ordering::Relaxed);
            }
            _ => self.gauges[gauge.index()].store(value, Ordering::Relaxed),
        }
    }

    fn success(&self, order: usize) {
        let slot = order.clamp(1, MAX_TRACKED_ORDER) - 1;
        self.successes[slot].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut snap = MetricsSnapshot {
            wall_ns: self.start.elapsed().as_nanos() as u64,
            ..MetricsSnapshot::default()
        };
        for kind in SpanKind::ALL {
            snap.spans[kind.index()] = SpanStats {
                count: load(&self.span_count[kind.index()]),
                total_ns: load(&self.span_ns[kind.index()]),
            };
        }
        for (slot, counter) in snap.counters.iter_mut().zip(&self.counters) {
            *slot = load(counter);
        }
        for (slot, gauge) in snap.gauges.iter_mut().zip(&self.gauges) {
            *slot = load(gauge);
        }
        for (slot, success) in snap.successes_by_order.iter_mut().zip(&self.successes) {
            *slot = load(success);
        }
        snap
    }
}

// ---------------------------------------------------------------------
// The Telemetry handle
// ---------------------------------------------------------------------

struct Inner {
    timed: bool,
    metrics: MetricsCore,
    sinks: Vec<Arc<dyn Recorder>>,
}

/// Cloneable handle instrumented code records through. The default
/// handle is disabled: every call short-circuits on a `None` check, no
/// clocks are read, and [`Telemetry::metrics`] returns `None`.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("timed", &self.is_timed())
            .field("sinks", &self.inner.as_ref().map_or(0, |i| i.sinks.len()))
            .finish()
    }
}

impl Telemetry {
    /// The no-op handle (same as `Telemetry::default()`).
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// Counters and gauges only: spans are *not* timed (no clock reads on
    /// the per-plan path), so throughput accounting stays cheap enough to
    /// leave on.
    pub fn counters() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                timed: false,
                metrics: MetricsCore::new(),
                sinks: vec![],
            })),
        }
    }

    /// Counters, gauges, and timed spans (two clock reads per span).
    pub fn timed() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                timed: true,
                metrics: MetricsCore::new(),
                sinks: vec![],
            })),
        }
    }

    /// Timed telemetry fanning every event out to `sinks` in addition to
    /// the built-in metrics core.
    pub fn with_sinks(sinks: Vec<Arc<dyn Recorder>>) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner { timed: true, metrics: MetricsCore::new(), sinks })),
        }
    }

    /// Whether any recording happens at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether spans are timed (disabled and counters-only handles return
    /// `false`).
    pub fn is_timed(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.timed)
    }

    /// Snapshot of the aggregated metrics, or `None` when disabled.
    /// `wall_ns` is the time since the handle was created.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| i.metrics.snapshot())
    }

    /// Opens a span; the span closes (and is recorded) when the returned
    /// guard drops. Untimed handles return an inert guard without reading
    /// the clock.
    pub fn span(&self, kind: SpanKind) -> Span<'_> {
        match &self.inner {
            Some(inner) if inner.timed => Span { active: Some((inner, kind, Instant::now())) },
            _ => Span { active: None },
        }
    }

    /// Advances `counter` by `n`.
    pub fn count(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.count(counter, n);
            for sink in &inner.sinks {
                sink.count(counter, n);
            }
        }
    }

    /// Samples `gauge` at `value`.
    pub fn gauge(&self, gauge: Gauge, value: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.gauge(gauge, value);
            for sink in &inner.sinks {
                sink.gauge(gauge, value);
            }
        }
    }

    /// Records a successful plan of `order` injections.
    pub fn success(&self, order: usize) {
        if let Some(inner) = &self.inner {
            inner.metrics.success(order);
            for sink in &inner.sinks {
                sink.success(order);
            }
        }
    }

    /// Flushes every attached sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            for sink in &inner.sinks {
                sink.flush();
            }
        }
    }
}

/// RAII guard for one open span; records duration on drop. Inert (no
/// clock reads, nothing recorded) for disabled or untimed handles.
#[must_use]
pub struct Span<'a> {
    active: Option<(&'a Inner, SpanKind, Instant)>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((inner, kind, start)) = self.active.take() {
            let dur_ns = start.elapsed().as_nanos() as u64;
            inner.metrics.span(kind, dur_ns);
            for sink in &inner.sinks {
                sink.span(kind, dur_ns);
            }
        }
    }
}

// ---------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------

/// Aggregate timing of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Spans closed.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub total_ns: u64,
}

/// A point-in-time copy of the aggregated metrics. All-`u64`, so
/// snapshots compare, merge across shards/threads/iterations, and
/// subtract for per-iteration deltas.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Nanoseconds since the telemetry handle was created.
    pub wall_ns: u64,
    /// Per-kind span aggregates, indexed like [`SpanKind::ALL`].
    pub spans: [SpanStats; SpanKind::COUNT],
    /// Counter values, indexed like [`Counter::ALL`].
    pub counters: [u64; Counter::COUNT],
    /// Gauge values, indexed like [`Gauge::ALL`].
    pub gauges: [u64; Gauge::COUNT],
    /// Successful plans by order (`[0]` = single faults; the last slot
    /// folds orders ≥ [`MAX_TRACKED_ORDER`]).
    pub successes_by_order: [u64; MAX_TRACKED_ORDER],
}

impl MetricsSnapshot {
    /// Aggregate timing for `kind`.
    pub fn span(&self, kind: SpanKind) -> SpanStats {
        self.spans[kind.index()]
    }

    /// Value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Value of `gauge`.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge.index()]
    }

    /// Plans evaluated per second of wall time (0.0 for an empty or
    /// zero-duration snapshot).
    pub fn plans_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.counter(Counter::PlansExecuted) as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Share of plans answered from the classification cache, in percent
    /// (0.0 when nothing was evaluated).
    pub fn reuse_percent(&self) -> f64 {
        let hits = self.counter(Counter::CacheHits);
        let total = hits + self.counter(Counter::CacheMisses);
        if total == 0 {
            return 0.0;
        }
        hits as f64 * 100.0 / total as f64
    }

    /// Combines two snapshots: spans and counters add,
    /// [`Gauge::PlansTotal`] adds, the remaining gauges take the max, and
    /// wall time takes the max (parallel shards overlap).
    #[must_use]
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        out.wall_ns = out.wall_ns.max(other.wall_ns);
        for (slot, theirs) in out.spans.iter_mut().zip(&other.spans) {
            slot.count += theirs.count;
            slot.total_ns += theirs.total_ns;
        }
        for (slot, theirs) in out.counters.iter_mut().zip(&other.counters) {
            *slot += theirs;
        }
        for (gauge, theirs) in Gauge::ALL.into_iter().zip(&other.gauges) {
            let slot = &mut out.gauges[gauge.index()];
            match gauge {
                Gauge::PlansTotal => *slot += theirs,
                _ => *slot = (*slot).max(*theirs),
            }
        }
        for (slot, theirs) in out.successes_by_order.iter_mut().zip(&other.successes_by_order) {
            *slot += theirs;
        }
        out
    }

    /// What happened between `earlier` and `self` (two snapshots of the
    /// *same* handle): spans, counters, [`Gauge::PlansTotal`], successes,
    /// and wall time subtract (saturating); the level gauges keep their
    /// latest sample.
    #[must_use]
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        out.wall_ns = out.wall_ns.saturating_sub(earlier.wall_ns);
        for (slot, prior) in out.spans.iter_mut().zip(&earlier.spans) {
            slot.count = slot.count.saturating_sub(prior.count);
            slot.total_ns = slot.total_ns.saturating_sub(prior.total_ns);
        }
        for (slot, prior) in out.counters.iter_mut().zip(&earlier.counters) {
            *slot = slot.saturating_sub(*prior);
        }
        let total = Gauge::PlansTotal.index();
        out.gauges[total] = out.gauges[total].saturating_sub(earlier.gauges[total]);
        for (slot, prior) in out.successes_by_order.iter_mut().zip(&earlier.successes_by_order) {
            *slot = slot.saturating_sub(*prior);
        }
        out
    }

    /// Serializes to a single JSON object with a stable key order:
    /// `schema`, `wall_ns`, `plans_per_sec`, the counters in
    /// [`Counter::ALL`] order, the gauges in [`Gauge::ALL`] order,
    /// `reuse_percent`, `successes_by_order`, then a `spans` object in
    /// [`SpanKind::ALL`] order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(768);
        out.push_str(&format!("{{\"schema\":\"{METRICS_SCHEMA}\""));
        out.push_str(&format!(",\"wall_ns\":{}", self.wall_ns));
        out.push_str(&format!(",\"plans_per_sec\":{}", json_f64(self.plans_per_sec())));
        for counter in Counter::ALL {
            out.push_str(&format!(",\"{}\":{}", counter.as_str(), self.counter(counter)));
        }
        for gauge in Gauge::ALL {
            out.push_str(&format!(",\"{}\":{}", gauge.as_str(), self.gauge(gauge)));
        }
        out.push_str(&format!(",\"reuse_percent\":{}", json_f64(self.reuse_percent())));
        out.push_str(",\"successes_by_order\":[");
        for (i, n) in self.successes_by_order.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&n.to_string());
        }
        out.push_str("],\"spans\":{");
        for (i, kind) in SpanKind::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let stats = self.span(kind);
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"total_ns\":{}}}",
                kind.as_str(),
                stats.count,
                stats.total_ns
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Finite-float JSON rendering (three decimal places; non-finite values
/// become `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

// ---------------------------------------------------------------------
// JSONL sink
// ---------------------------------------------------------------------

/// Structured event stream: one self-describing JSON object per span
/// close, written line-by-line to a file (`--trace-out events.jsonl`).
///
/// Event schema (all integers are `u64`):
///
/// ```json
/// {"schema":"rr-trace-v1","event":"span","seq":0,"span":"restore","t_ns":12345,"dur_ns":678}
/// ```
///
/// `seq` is the event's sequence number, `t_ns` the close time relative
/// to recorder creation, `dur_ns` the span duration.
pub struct JsonlRecorder {
    start: Instant,
    seq: AtomicU64,
    out: Mutex<BufWriter<File>>,
}

impl JsonlRecorder {
    /// Creates (truncating) the event stream at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation failure.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlRecorder> {
        let file = File::create(path)?;
        Ok(JsonlRecorder {
            start: Instant::now(),
            seq: AtomicU64::new(0),
            out: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl Recorder for JsonlRecorder {
    fn span(&self, kind: SpanKind, dur_ns: u64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let t_ns = self.start.elapsed().as_nanos() as u64;
        let line = format!(
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"event\":\"span\",\"seq\":{seq},\"span\":\"{}\",\"t_ns\":{t_ns},\"dur_ns\":{dur_ns}}}",
            kind.as_str()
        );
        if let Ok(mut out) = self.out.lock() {
            let _ = writeln!(out, "{line}");
        }
    }

    fn flush(&self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

// ---------------------------------------------------------------------
// Progress sink
// ---------------------------------------------------------------------

/// Human progress reporter: a throttled single-line display on stderr
/// (`--progress`) with plans done/total, current throughput, reuse
/// share, and an ETA. Stderr keeps stdout report parsing unaffected.
pub struct ProgressRecorder {
    start: Instant,
    done: AtomicU64,
    total: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Milliseconds (since `start`) of the last repaint.
    last_paint_ms: AtomicU64,
}

/// Repaint at most every 100 ms.
const PAINT_INTERVAL_MS: u64 = 100;

impl ProgressRecorder {
    /// A progress reporter painting to stderr.
    pub fn stderr() -> ProgressRecorder {
        ProgressRecorder {
            start: Instant::now(),
            done: AtomicU64::new(0),
            total: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            last_paint_ms: AtomicU64::new(0),
        }
    }

    /// The progress line as currently known (also what gets painted).
    fn line(&self) -> String {
        let done = self.done.load(Ordering::Relaxed);
        let total = self.total.load(Ordering::Relaxed);
        let hits = self.hits.load(Ordering::Relaxed);
        let evaluated = hits + self.misses.load(Ordering::Relaxed);
        let secs = self.start.elapsed().as_secs_f64();
        let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
        let reuse = if evaluated > 0 { hits as f64 * 100.0 / evaluated as f64 } else { 0.0 };
        let eta = if total > done && rate > 0.0 {
            format!("{:.1}s", (total - done) as f64 / rate)
        } else {
            "-".to_string()
        };
        let denom = if total > 0 { total.to_string() } else { "?".to_string() };
        format!("[rr] {done}/{denom} plans · {rate:.0} plans/s · reuse {reuse:.1}% · ETA {eta}")
    }

    fn paint(&self, force: bool) {
        let elapsed_ms = self.start.elapsed().as_millis() as u64;
        let last = self.last_paint_ms.load(Ordering::Relaxed);
        if !force && elapsed_ms.saturating_sub(last) < PAINT_INTERVAL_MS {
            return;
        }
        // One painter wins per interval; losers skip quietly.
        if self
            .last_paint_ms
            .compare_exchange(last, elapsed_ms.max(1), Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
            && !force
        {
            return;
        }
        eprint!("\r{:<70}", self.line());
    }
}

impl Recorder for ProgressRecorder {
    fn count(&self, counter: Counter, n: u64) {
        match counter {
            Counter::PlansExecuted => {
                self.done.fetch_add(n, Ordering::Relaxed);
                self.paint(false);
            }
            Counter::CacheHits => {
                self.hits.fetch_add(n, Ordering::Relaxed);
            }
            Counter::CacheMisses => {
                self.misses.fetch_add(n, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    fn gauge(&self, gauge: Gauge, value: u64) {
        if gauge == Gauge::PlansTotal {
            self.total.fetch_add(value, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        self.paint(true);
        eprintln!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::default();
        assert!(!t.is_enabled());
        assert!(!t.is_timed());
        assert!(t.metrics().is_none());
        t.count(Counter::PlansExecuted, 3);
        t.gauge(Gauge::PlansTotal, 9);
        t.success(1);
        drop(t.span(SpanKind::Inject));
        t.flush();
        assert!(t.metrics().is_none());
    }

    #[test]
    fn counters_handle_counts_but_does_not_time() {
        let t = Telemetry::counters();
        assert!(t.is_enabled());
        assert!(!t.is_timed());
        t.count(Counter::PlansExecuted, 2);
        t.count(Counter::CacheHits, 1);
        t.count(Counter::CacheMisses, 1);
        t.gauge(Gauge::PlansTotal, 2);
        t.gauge(Gauge::PlansTotal, 3);
        t.gauge(Gauge::RetainedSnapshotBytes, 10);
        t.gauge(Gauge::RetainedSnapshotBytes, 7);
        t.success(1);
        t.success(2);
        t.success(99); // clamps into the last slot
        drop(t.span(SpanKind::Restore));
        let m = t.metrics().unwrap();
        assert_eq!(m.counter(Counter::PlansExecuted), 2);
        assert_eq!(m.gauge(Gauge::PlansTotal), 5, "plan batches accumulate");
        assert_eq!(m.gauge(Gauge::RetainedSnapshotBytes), 7, "levels keep the latest sample");
        assert_eq!(m.span(SpanKind::Restore).count, 0, "untimed handles skip spans");
        assert_eq!(m.successes_by_order[0], 1);
        assert_eq!(m.successes_by_order[1], 1);
        assert_eq!(m.successes_by_order[MAX_TRACKED_ORDER - 1], 1);
        assert_eq!(m.reuse_percent(), 50.0);
    }

    #[test]
    fn timed_handle_records_span_durations() {
        let t = Telemetry::timed();
        {
            let _span = t.span(SpanKind::Classify);
            std::hint::black_box(1 + 1);
        }
        {
            let _span = t.span(SpanKind::Classify);
        }
        let m = t.metrics().unwrap();
        assert_eq!(m.span(SpanKind::Classify).count, 2);
        assert_eq!(m.span(SpanKind::Inject).count, 0);
    }

    #[test]
    fn snapshot_merge_and_delta() {
        let t = Telemetry::counters();
        t.count(Counter::PlansExecuted, 10);
        t.gauge(Gauge::PlansTotal, 10);
        t.gauge(Gauge::Checkpoints, 4);
        let a = t.metrics().unwrap();
        t.count(Counter::PlansExecuted, 5);
        t.gauge(Gauge::PlansTotal, 5);
        t.gauge(Gauge::Checkpoints, 2);
        let b = t.metrics().unwrap();

        let delta = b.delta_since(&a);
        assert_eq!(delta.counter(Counter::PlansExecuted), 5);
        assert_eq!(delta.gauge(Gauge::PlansTotal), 5);
        assert_eq!(delta.gauge(Gauge::Checkpoints), 2, "level gauges keep the latest sample");

        let merged = a.merge(&delta);
        assert_eq!(merged.counter(Counter::PlansExecuted), 15);
        assert_eq!(merged.gauge(Gauge::PlansTotal), 15);
        assert_eq!(merged.gauge(Gauge::Checkpoints), 4, "level gauges merge by max");
        assert!(merged.wall_ns >= a.wall_ns);
    }

    #[test]
    fn merge_is_associative_with_identity() {
        let mk = |plans: u64, checkpoints: u64| {
            let mut m = MetricsSnapshot { wall_ns: plans * 7, ..MetricsSnapshot::default() };
            m.counters[Counter::PlansExecuted.index()] = plans;
            m.gauges[Gauge::Checkpoints.index()] = checkpoints;
            m.spans[SpanKind::Inject.index()] = SpanStats { count: plans, total_ns: plans * 100 };
            m
        };
        let (a, b, c) = (mk(3, 9), mk(5, 2), mk(11, 4));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        let id = MetricsSnapshot::default();
        assert_eq!(a.merge(&id), a);
        assert_eq!(id.merge(&a), a);
    }

    #[test]
    fn json_has_stable_schema_and_keys() {
        let t = Telemetry::timed();
        t.count(Counter::PlansExecuted, 4);
        drop(t.span(SpanKind::Record));
        let json = t.metrics().unwrap().to_json();
        assert!(json.starts_with("{\"schema\":\"rr-metrics-v1\",\"wall_ns\":"));
        for counter in Counter::ALL {
            assert!(json.contains(&format!("\"{}\":", counter.as_str())), "{json}");
        }
        for gauge in Gauge::ALL {
            assert!(json.contains(&format!("\"{}\":", gauge.as_str())), "{json}");
        }
        for kind in SpanKind::ALL {
            assert!(json.contains(&format!("\"{}\":{{\"count\":", kind.as_str())), "{json}");
        }
        assert!(json.contains("\"plans_per_sec\":"));
        assert!(json.contains("\"successes_by_order\":[0,0,0,0,0,0,0,0]"));
        assert!(json.ends_with("}}"));
        // Two serializations of the same snapshot are identical.
        let m = t.metrics().unwrap();
        assert_eq!(m.to_json(), m.to_json());
    }

    #[test]
    fn jsonl_recorder_writes_schema_versioned_events() {
        let path =
            std::env::temp_dir().join(format!("rr-telemetry-test-{}.jsonl", std::process::id()));
        let recorder = JsonlRecorder::create(&path).unwrap();
        recorder.span(SpanKind::Restore, 1234);
        recorder.span(SpanKind::Inject, 56);
        recorder.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"schema\":\"rr-trace-v1\",\"event\":\"span\",\"seq\":0,"));
        assert!(lines[0].contains("\"span\":\"restore\""));
        assert!(lines[0].contains("\"dur_ns\":1234"));
        assert!(lines[1].contains("\"seq\":1,\"span\":\"inject\""));
    }

    #[test]
    fn progress_line_reports_rate_reuse_and_eta() {
        let p = ProgressRecorder::stderr();
        p.gauge(Gauge::PlansTotal, 100);
        p.count(Counter::CacheHits, 25);
        p.count(Counter::CacheMisses, 25);
        p.count(Counter::PlansExecuted, 50);
        let line = p.line();
        assert!(line.contains("50/100 plans"), "{line}");
        assert!(line.contains("reuse 50.0%"), "{line}");
        assert!(line.contains("ETA "), "{line}");
        let empty = ProgressRecorder::stderr().line();
        assert!(empty.contains("0/? plans"), "{empty}");
        assert!(empty.contains("ETA -"), "{empty}");
    }
}
