//! Always-available metrics registry: typed counters, f64 gauges, and
//! log-bucketed (HDR-style) histograms, sharded per worker/rank so the
//! hot path never contends on a cache line and never allocates.
//!
//! Unlike per-task span capture (opt-in per run, see
//! `engine::ExecObs`), the registry is always on: recording a sample is
//! a handful of relaxed atomic adds on a pre-allocated shard, cheap
//! enough to leave on in production.
//!
//! Aggregation happens once, at report time: [`Registry::snapshot`]
//! merges all shards into a [`RegistrySnapshot`] — plain owned data that
//! serializes to the hand-rolled [`Json`] and to Prometheus text
//! exposition format, and feeds `RunMetrics` and the drift report.

use crate::graph::TaskClass;
use crate::obs::json::Json;
use crate::trace::ClassBreakdown;
use std::fmt;
use std::sync::atomic::Ordering::Relaxed;

/// Number of task classes tracked per-class state (`Potrf`, `Trsm`,
/// `Syrk`, `Gemm`, `Other`).
pub const NCLASSES: usize = 5;

/// Slot of a task class in per-class arrays (matches the scheduler's
/// EMA-correction layout: Potrf=0, Trsm=1, Syrk=2, Gemm=3, Other=4).
pub fn class_slot(class: TaskClass) -> usize {
    match class {
        TaskClass::Potrf => 0,
        TaskClass::Trsm => 1,
        TaskClass::Syrk => 2,
        TaskClass::Gemm => 3,
        TaskClass::Other => 4,
    }
}

/// Human name of a per-class slot (inverse of [`class_slot`]).
pub fn class_name(slot: usize) -> &'static str {
    ["potrf", "trsm", "syrk", "gemm", "other"][slot.min(NCLASSES - 1)]
}

/// Typed monotonic counters. Each variant is one atomic per shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Tasks whose kernel ran to completion (either engine).
    TasksExecuted,
    /// Tasks pushed onto a ready queue (work-stealing engine).
    TasksEnqueued,
    /// Successful steals from another worker's deque.
    Steals,
    /// Injected kernel failures that fired (fault layer).
    KernelFailures,
    /// Payload bytes moved across process boundaries.
    CommBytes,
    /// Cross-process messages (payload + activation + retransmits).
    CommMessages,
    /// Timeout- or crash-driven retransmissions.
    Retransmissions,
    /// Send attempts the (simulated) network dropped.
    MessagesDropped,
    /// Deliveries ignored by receiver-side dedup.
    DuplicatesIgnored,
    /// Rank crashes that fired.
    Crashes,
    /// Tasks moved to a surviving rank by crash recovery.
    TasksMigrated,
    /// Already-completed tasks re-executed after a crash.
    TasksReexecuted,
    /// Corruptions caught by integrity verification.
    CorruptionsDetected,
    /// Corrupted data restored and recomputed from lineage.
    CorruptionsHealed,
    /// Negative acknowledgements sent for corrupted deliveries.
    NacksSent,
    /// Workspace arena growth events (an acquisition had to allocate).
    WorkspaceGrowth,
    /// Symbolic-plan cache lookups that found a reusable plan.
    PlanCacheHits,
    /// Symbolic-plan cache lookups that had to plan from scratch.
    PlanCacheMisses,
    /// Cached symbolic plans evicted by the LRU policy.
    PlanCacheEvictions,
    /// Solve-service requests admitted past admission control.
    ServiceRequestsAdmitted,
    /// Solve-service requests rejected by admission control (in-flight
    /// cap or memory budget).
    ServiceRequestsRejected,
}

/// Number of [`Counter`] variants.
pub const NCOUNTERS: usize = 21;

impl Counter {
    /// All counters, in declaration (= storage) order.
    pub const ALL: [Counter; NCOUNTERS] = [
        Counter::TasksExecuted,
        Counter::TasksEnqueued,
        Counter::Steals,
        Counter::KernelFailures,
        Counter::CommBytes,
        Counter::CommMessages,
        Counter::Retransmissions,
        Counter::MessagesDropped,
        Counter::DuplicatesIgnored,
        Counter::Crashes,
        Counter::TasksMigrated,
        Counter::TasksReexecuted,
        Counter::CorruptionsDetected,
        Counter::CorruptionsHealed,
        Counter::NacksSent,
        Counter::WorkspaceGrowth,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::PlanCacheEvictions,
        Counter::ServiceRequestsAdmitted,
        Counter::ServiceRequestsRejected,
    ];

    /// Stable snake_case name (JSON key / Prometheus metric stem).
    pub fn name(self) -> &'static str {
        match self {
            Counter::TasksExecuted => "tasks_executed",
            Counter::TasksEnqueued => "tasks_enqueued",
            Counter::Steals => "steals",
            Counter::KernelFailures => "kernel_failures",
            Counter::CommBytes => "comm_bytes",
            Counter::CommMessages => "comm_messages",
            Counter::Retransmissions => "retransmissions",
            Counter::MessagesDropped => "messages_dropped",
            Counter::DuplicatesIgnored => "duplicates_ignored",
            Counter::Crashes => "crashes",
            Counter::TasksMigrated => "tasks_migrated",
            Counter::TasksReexecuted => "tasks_reexecuted",
            Counter::CorruptionsDetected => "corruptions_detected",
            Counter::CorruptionsHealed => "corruptions_healed",
            Counter::NacksSent => "nacks_sent",
            Counter::WorkspaceGrowth => "workspace_growth",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::PlanCacheEvictions => "plan_cache_evictions",
            Counter::ServiceRequestsAdmitted => "service_requests_admitted",
            Counter::ServiceRequestsRejected => "service_requests_rejected",
        }
    }
}

/// Typed f64 gauges (stored as bit patterns in one atomic per shard;
/// shards merge by `max`, which is exact for high-water marks and for
/// values written from a single shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Largest bytes retained by any one worker's kernel workspace.
    ArenaHighWaterBytes,
    /// Scheduler EMA correction for POTRF (measured/modeled).
    CorrPotrf,
    /// Scheduler EMA correction for TRSM.
    CorrTrsm,
    /// Scheduler EMA correction for SYRK.
    CorrSyrk,
    /// Scheduler EMA correction for GEMM.
    CorrGemm,
    /// Scheduler EMA correction for untyped tasks.
    CorrOther,
}

/// Number of [`Gauge`] variants.
pub const NGAUGES: usize = 6;

impl Gauge {
    /// All gauges, in declaration (= storage) order.
    pub const ALL: [Gauge; NGAUGES] = [
        Gauge::ArenaHighWaterBytes,
        Gauge::CorrPotrf,
        Gauge::CorrTrsm,
        Gauge::CorrSyrk,
        Gauge::CorrGemm,
        Gauge::CorrOther,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::ArenaHighWaterBytes => "arena_high_water_bytes",
            Gauge::CorrPotrf => "sched_correction_potrf",
            Gauge::CorrTrsm => "sched_correction_trsm",
            Gauge::CorrSyrk => "sched_correction_syrk",
            Gauge::CorrGemm => "sched_correction_gemm",
            Gauge::CorrOther => "sched_correction_other",
        }
    }

    /// The EMA-correction gauge for per-class slot `k` ([`class_slot`]).
    pub fn correction(k: usize) -> Gauge {
        [Gauge::CorrPotrf, Gauge::CorrTrsm, Gauge::CorrSyrk, Gauge::CorrGemm, Gauge::CorrOther]
            [k.min(NCLASSES - 1)]
    }
}

/// Merged view of one log-bucketed histogram: `count`/`sum` plus the
/// non-empty power-of-two buckets as `(inclusive upper bound, count)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of raw sample values (saturating).
    pub sum: u64,
    /// Non-empty buckets, ascending: value `v` lands in the bucket whose
    /// bound is the smallest `2^k - 1 >= v` (bound 0 holds exact zeros).
    pub buckets: Vec<(u64, u64)>,
}

impl HistSummary {
    /// Mean raw value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 { 0.0 } else { self.sum as f64 / self.count as f64 }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`; 0 when empty). Log-bucketed, so the answer is
    /// exact to within a factor of 2 — plenty for drift and capacity
    /// questions.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return bound;
            }
        }
        self.buckets.last().map_or(0, |&(bound, _)| bound)
    }

    /// JSON object: `{"count": .., "sum": .., "buckets": [[bound, n]..]}`.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .buckets
            .iter()
            .map(|&(bound, n)| Json::Arr(vec![Json::Num(bound as f64), Json::Num(n as f64)]))
            .collect();
        let mut obj = Json::obj();
        obj.insert("count", Json::Num(self.count as f64));
        obj.insert("sum", Json::Num(self.sum as f64));
        obj.insert("buckets", Json::Arr(buckets));
        obj
    }
}

/// Merged, owned view of a [`Registry`] at one instant. Plain data:
/// cheap to clone, compare, serialize, and attach to `RunMetrics`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Shards that were merged (worker/rank count; 0 for the empty
    /// snapshot of a metrics-off build).
    pub shards: usize,
    /// Every counter, in [`Counter::ALL`] order (zeros included, so the
    /// schema is stable across runs).
    pub counters: Vec<(&'static str, u64)>,
    /// Every gauge, in [`Gauge::ALL`] order (max across shards).
    pub gauges: Vec<(&'static str, f64)>,
    /// Task-duration histograms per class, nanosecond raw values.
    pub class_duration_ns: Vec<HistSummary>,
    /// Recompression output-rank histogram (raw value = kept rank).
    pub recompression_ranks: HistSummary,
}

impl RegistrySnapshot {
    /// Merged value of one counter (0 if the snapshot is empty).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c as usize).map_or(0, |&(_, v)| v)
    }

    /// Merged value of one gauge (0 if the snapshot is empty).
    pub fn gauge(&self, g: Gauge) -> f64 {
        self.gauges.get(g as usize).map_or(0.0, |&(_, v)| v)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&(_, v)| v == 0)
            && self.class_duration_ns.iter().all(|h| h.count == 0)
    }

    /// Measured busy seconds per class, from the duration histograms.
    pub fn class_busy_seconds(&self) -> ClassBreakdown {
        let s = |k: usize| self.class_duration_ns.get(k).map_or(0.0, |h| h.sum as f64 * 1e-9);
        ClassBreakdown { potrf: s(0), trsm: s(1), syrk: s(2), gemm: s(3), other: s(4) }
    }

    /// Tasks recorded for one class.
    pub fn class_count(&self, class: TaskClass) -> u64 {
        self.class_duration_ns.get(class_slot(class)).map_or(0, |h| h.count)
    }

    /// Measured busy seconds for one class.
    pub fn class_seconds(&self, class: TaskClass) -> f64 {
        self.class_duration_ns.get(class_slot(class)).map_or(0.0, |h| h.sum as f64 * 1e-9)
    }

    /// The scheduler's EMA correction factors per class slot (1.0 when
    /// the lookahead scheduler did not run — the identity correction).
    pub fn corrections(&self) -> [f64; NCLASSES] {
        let mut out = [1.0; NCLASSES];
        for (k, slot) in out.iter_mut().enumerate() {
            let v = self.gauge(Gauge::correction(k));
            if v > 0.0 && v.is_finite() {
                *slot = v;
            }
        }
        out
    }

    /// JSON object with counters, gauges, and histograms.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for &(name, v) in &self.counters {
            counters.insert(name, Json::Num(v as f64));
        }
        let mut gauges = Json::obj();
        for &(name, v) in &self.gauges {
            gauges.insert(name, Json::Num(v));
        }
        let mut hists = Json::obj();
        for (k, h) in self.class_duration_ns.iter().enumerate() {
            hists.insert(class_name(k), h.to_json());
        }
        let mut obj = Json::obj();
        obj.insert("shards", Json::Num(self.shards as f64));
        obj.insert("counters", counters);
        obj.insert("gauges", gauges);
        obj.insert("task_duration_ns", hists);
        obj.insert("recompression_ranks", self.recompression_ranks.to_json());
        obj
    }

    /// Append Prometheus text-exposition lines (`# TYPE`-annotated
    /// counters, gauges, and cumulative-bucket histograms) to `out`.
    /// Durations are exported in seconds, per convention.
    pub fn write_prometheus(&self, out: &mut String) {
        use std::fmt::Write;
        for &(name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE tlr_{name}_total counter");
            let _ = writeln!(out, "tlr_{name}_total {v}");
        }
        for &(name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE tlr_{name} gauge");
            let _ = writeln!(out, "tlr_{name} {v}");
        }
        let _ = writeln!(out, "# TYPE tlr_task_duration_seconds histogram");
        for (k, h) in self.class_duration_ns.iter().enumerate() {
            let class = class_name(k);
            let mut cum = 0u64;
            for &(bound, n) in &h.buckets {
                cum += n;
                let le = bound as f64 * 1e-9;
                let _ = writeln!(
                    out,
                    "tlr_task_duration_seconds_bucket{{class=\"{class}\",le=\"{le}\"}} {cum}"
                );
            }
            let _ = writeln!(
                out,
                "tlr_task_duration_seconds_bucket{{class=\"{class}\",le=\"+Inf\"}} {}",
                h.count
            );
            let _ = writeln!(
                out,
                "tlr_task_duration_seconds_sum{{class=\"{class}\"}} {}",
                h.sum as f64 * 1e-9
            );
            let _ =
                writeln!(out, "tlr_task_duration_seconds_count{{class=\"{class}\"}} {}", h.count);
        }
        let _ = writeln!(out, "# TYPE tlr_recompression_rank histogram");
        let h = &self.recompression_ranks;
        let mut cum = 0u64;
        for &(bound, n) in &h.buckets {
            cum += n;
            let _ = writeln!(out, "tlr_recompression_rank_bucket{{le=\"{bound}\"}} {cum}");
        }
        let _ = writeln!(out, "tlr_recompression_rank_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "tlr_recompression_rank_sum {}", h.sum);
        let _ = writeln!(out, "tlr_recompression_rank_count {}", h.count);
    }
}

/// Index of the log2 bucket holding `v`: 0 for 0, else `64 - lz(v)`
/// (bucket `b` spans `[2^(b-1), 2^b - 1]`).
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `b` (`2^b - 1`; bucket 0 holds 0).
fn bucket_bound(b: usize) -> u64 {
    if b == 0 { 0 } else if b >= 64 { u64::MAX } else { (1u64 << b) - 1 }
}

mod storage {
    use super::*;
    use std::sync::atomic::AtomicU64;

    const NBUCKETS: usize = 65;

    /// One log2-bucketed histogram over atomics.
    pub(super) struct LogHist {
        buckets: [AtomicU64; NBUCKETS],
        count: AtomicU64,
        sum: AtomicU64,
    }

    impl Default for LogHist {
        fn default() -> Self {
            LogHist {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }
        }
    }

    impl LogHist {
        /// Record `n` samples of value `v`.
        #[inline]
        pub(super) fn record_n(&self, v: u64, n: u64) {
            self.buckets[bucket_of(v)].fetch_add(n, Relaxed);
            self.count.fetch_add(n, Relaxed);
            self.sum.fetch_add(v.saturating_mul(n), Relaxed);
        }

        pub(super) fn merge_into(&self, dst: &mut HistSummary) {
            dst.count += self.count.load(Relaxed);
            dst.sum = dst.sum.saturating_add(self.sum.load(Relaxed));
            for (b, bucket) in self.buckets.iter().enumerate() {
                let n = bucket.load(Relaxed);
                if n == 0 {
                    continue;
                }
                let bound = bucket_bound(b);
                match dst.buckets.binary_search_by_key(&bound, |&(bd, _)| bd) {
                    Ok(i) => dst.buckets[i].1 += n,
                    Err(i) => dst.buckets.insert(i, (bound, n)),
                }
            }
        }
    }

    /// One worker/rank's private slice of the registry. Cache-line
    /// aligned so neighbouring shards never false-share.
    #[derive(Default)]
    #[repr(align(64))]
    pub(super) struct Shard {
        pub(super) counters: [AtomicU64; NCOUNTERS],
        /// f64 bit patterns; merged by `max` over the decoded values.
        pub(super) gauges: [AtomicU64; NGAUGES],
        pub(super) class_ns: [LogHist; NCLASSES],
        pub(super) ranks: LogHist,
    }

    impl Shard {
        #[inline]
        pub(super) fn gauge_max(&self, g: Gauge, v: f64) {
            if !v.is_finite() {
                return;
            }
            let cell = &self.gauges[g as usize];
            let mut cur = cell.load(Relaxed);
            loop {
                if f64::from_bits(cur) >= v {
                    return;
                }
                match cell.compare_exchange_weak(cur, v.to_bits(), Relaxed, Relaxed) {
                    Ok(_) => return,
                    Err(seen) => cur = seen,
                }
            }
        }
    }
}

/// Sharded metrics sink. One shard per worker (shared-memory engine) or
/// rank (DES); every recording method takes the caller's shard index
/// (reduced modulo the shard count) and touches only relaxed atomics in
/// pre-allocated storage — zero allocations after [`Registry::new`].
pub struct Registry {
    shards: Box<[storage::Shard]>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("shards", &self.shards())
            .finish()
    }
}

impl Registry {
    /// A registry with `max(1, nshards)` shards.
    pub fn new(nshards: usize) -> Self {
        Registry { shards: (0..nshards.max(1)).map(|_| storage::Shard::default()).collect() }
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard(&self, i: usize) -> &storage::Shard {
        &self.shards[i % self.shards.len()]
    }

    /// Add `delta` to a counter on `shard`.
    #[inline]
    pub fn add(&self, shard: usize, c: Counter, delta: u64) {
        self.shard(shard).counters[c as usize].fetch_add(delta, Relaxed);
    }

    /// Increment a counter on `shard` by one.
    #[inline]
    pub fn incr(&self, shard: usize, c: Counter) {
        self.add(shard, c, 1);
    }

    /// Raise a gauge on `shard` to at least `v` (high-water semantics).
    #[inline]
    pub fn gauge_max(&self, shard: usize, g: Gauge, v: f64) {
        self.shard(shard).gauge_max(g, v);
    }

    /// Record one task duration (nanoseconds) for `class` on `shard`.
    #[inline]
    pub fn record_class_ns(&self, shard: usize, class: TaskClass, ns: u64) {
        self.shard(shard).class_ns[class_slot(class)].record_n(ns, 1);
    }

    /// Record one task duration (seconds; non-finite and negative clamp
    /// to 0) for `class` on `shard`.
    #[inline]
    pub fn record_class_seconds(&self, shard: usize, class: TaskClass, secs: f64) {
        let ns = if secs.is_finite() && secs > 0.0 { (secs * 1e9) as u64 } else { 0 };
        self.record_class_ns(shard, class, ns);
    }

    /// Record one recompression output rank on `shard`.
    #[inline]
    pub fn record_rank(&self, shard: usize, rank: usize) {
        self.record_rank_counts(shard, rank, 1);
    }

    /// Bulk-record `count` recompressions that all kept `rank` columns
    /// (merging a pre-binned histogram such as `RankEvolution`'s).
    #[inline]
    pub fn record_rank_counts(&self, shard: usize, rank: usize, count: u64) {
        self.shard(shard).ranks.record_n(rank as u64, count);
    }

    /// Merge all shards into an owned snapshot (report time only — this
    /// allocates).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut snap = RegistrySnapshot {
            shards: self.shards(),
            counters: Counter::ALL.iter().map(|c| (c.name(), 0u64)).collect(),
            gauges: Gauge::ALL.iter().map(|g| (g.name(), 0.0f64)).collect(),
            class_duration_ns: vec![HistSummary::default(); NCLASSES],
            recompression_ranks: HistSummary::default(),
        };
        for shard in self.shards.iter() {
            for (slot, cell) in snap.counters.iter_mut().zip(shard.counters.iter()) {
                slot.1 += cell.load(Relaxed);
            }
            for (slot, cell) in snap.gauges.iter_mut().zip(shard.gauges.iter()) {
                let v = f64::from_bits(cell.load(Relaxed));
                if v > slot.1 {
                    slot.1 = v;
                }
            }
            for (dst, src) in snap.class_duration_ns.iter_mut().zip(shard.class_ns.iter()) {
                src.merge_into(dst);
            }
            shard.ranks.merge_into(&mut snap.recompression_ranks);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_registry_snapshot_is_empty_and_stable() {
        let reg = Registry::new(4);
        let snap = reg.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.counters.len(), NCOUNTERS);
        assert_eq!(snap.gauges.len(), NGAUGES);
        assert_eq!(snap.class_duration_ns.len(), NCLASSES);
        assert_eq!(snap.counter(Counter::Steals), 0);
        assert_eq!(snap.corrections(), [1.0; NCLASSES]);
        // The JSON and Prometheus exports of an empty snapshot parse/render.
        let j = snap.to_json().to_string();
        assert!(Json::parse(&j).is_ok(), "{j}");
        let mut prom = String::new();
        snap.write_prometheus(&mut prom);
        assert!(prom.contains("tlr_tasks_executed_total 0"));
    }

    #[test]
    fn counters_and_histograms_merge_across_shards() {
        let reg = Registry::new(3);
        for shard in 0..7 {
            // Indices past the shard count wrap instead of panicking.
            reg.incr(shard, Counter::TasksExecuted);
            reg.add(shard, Counter::CommBytes, 100);
            reg.record_class_ns(shard, TaskClass::Gemm, 1_000 + shard as u64);
        }
        reg.record_class_seconds(0, TaskClass::Potrf, 1.5e-3);
        reg.record_class_seconds(0, TaskClass::Potrf, f64::NAN); // clamps to 0
        reg.record_rank(1, 24);
        reg.record_rank_counts(2, 8, 3);
        reg.gauge_max(0, Gauge::ArenaHighWaterBytes, 4096.0);
        reg.gauge_max(1, Gauge::ArenaHighWaterBytes, 1024.0); // below max, kept
        let snap = reg.snapshot();
        assert!(!snap.is_empty());
        assert_eq!(snap.counter(Counter::TasksExecuted), 7);
        assert_eq!(snap.counter(Counter::CommBytes), 700);
        assert_eq!(snap.class_count(TaskClass::Gemm), 7);
        assert_eq!(snap.class_count(TaskClass::Potrf), 2);
        let potrf_s = snap.class_seconds(TaskClass::Potrf);
        assert!((potrf_s - 1.5e-3).abs() < 1e-9, "{potrf_s}");
        assert_eq!(snap.recompression_ranks.count, 4);
        assert_eq!(snap.recompression_ranks.sum, 24 + 3 * 8);
        assert_eq!(snap.gauge(Gauge::ArenaHighWaterBytes), 4096.0);
        // Gemm durations are ~1000ns: the median lands in the [512, 1023]
        // log2 bucket, whose inclusive bound the quantile reports.
        let q = snap.class_duration_ns[3].quantile(0.5);
        assert_eq!(q, 1023, "{q}");
        let b = snap.class_busy_seconds();
        assert!(b.gemm > 0.0 && b.total() > 0.0);
    }

    #[test]
    fn bucket_bounds_cover_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
        // Every value lands in a bucket whose bound is >= the value.
        for v in [0u64, 1, 7, 1000, 1 << 40, u64::MAX] {
            assert!(bucket_bound(bucket_of(v)) >= v, "{v}");
        }
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let reg = Registry::new(1);
        reg.record_class_ns(0, TaskClass::Gemm, 10);
        reg.record_class_ns(0, TaskClass::Gemm, 1000);
        reg.record_class_ns(0, TaskClass::Gemm, 1_000_000);
        let mut prom = String::new();
        reg.snapshot().write_prometheus(&mut prom);
        assert!(prom.contains("tlr_task_duration_seconds_bucket{class=\"gemm\",le=\"+Inf\"} 3"));
        assert!(prom.contains("tlr_task_duration_seconds_count{class=\"gemm\"} 3"));
    }
}
