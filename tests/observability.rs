//! Observability-layer integration and property tests: trace invariants
//! under adversarial timestamps, Chrome-trace export round-trips, the
//! shared exporter over both execution engines, and crash/recovery event
//! accounting on the fault-tolerant distributed runtime.

use hicma_parsec::cholesky::simulate::{simulate_cholesky, SimConfig};
use hicma_parsec::cholesky::{DriftSpec, FactorConfig, Session};
use hicma_parsec::distribution::{DiamondDistribution, TileDistribution};
use hicma_parsec::runtime::graph::{DataRef, TaskClass};
use hicma_parsec::runtime::obs::json::Json;
use hicma_parsec::runtime::obs::{
    chrome_trace_json, chrome_trace_json_with_events, RunEvent, RunMetrics,
};
use hicma_parsec::runtime::trace::{TaskRecord, Trace};
use hicma_parsec::runtime::{Counter, FaultPlan, FtConfig, Gauge, MachineModel};
use hicma_parsec::tlr::{CompressionConfig, SyntheticRankModel, TlrMatrix};
use proptest::prelude::*;

/// Deterministic pseudo-random trace, including (with probability ~1/8)
/// adversarially reversed spans (`end < start`) and queue times after
/// start — the shapes crash re-execution and clock skew produce.
fn seeded_trace(seed: u64, ntasks: usize, nprocs: usize) -> Trace {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(12345);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let classes =
        [TaskClass::Potrf, TaskClass::Trsm, TaskClass::Syrk, TaskClass::Gemm, TaskClass::Other];
    let mut trace = Trace::default();
    for t in 0..ntasks {
        let start = (next() % 10_000) as f64 * 1e-3;
        let span = (next() % 1_000) as f64 * 1e-3;
        let reversed = next() % 8 == 0;
        let end = if reversed { start - span } else { start + span };
        let queued = if next() % 8 == 0 { start + 0.5 } else { start - (next() % 100) as f64 * 1e-3 };
        trace.push_record(TaskRecord {
            task: t,
            class: classes[(next() % 5) as usize],
            proc: (next() as usize) % nprocs,
            data: Some(DataRef { i: t, j: t / 2 }),
            queued,
            start,
            end,
        });
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The per-class breakdown is exactly the sum of the clamped span
    /// durations — no time is invented or lost, even for reversed spans.
    #[test]
    fn breakdown_total_is_sum_of_clamped_durations(seed in 0u64..1000) {
        let trace = seeded_trace(seed, 1 + (seed as usize % 60), 4);
        let sum: f64 = trace.records.iter().map(|r| r.duration()).sum();
        let total = trace.breakdown().total();
        prop_assert!((total - sum).abs() <= 1e-12 * sum.max(1.0), "{total} vs {sum}");
        // And per-proc busy partitions the same total.
        let busy: f64 = trace.busy_per_proc(4).iter().sum();
        prop_assert!((busy - sum).abs() <= 1e-12 * sum.max(1.0));
    }

    /// Idle fractions stay in [0, 1] whatever the trace looks like, and
    /// derived run metrics stay finite.
    #[test]
    fn idle_fractions_in_unit_interval(seed in 0u64..1000) {
        let nprocs = 1 + (seed as usize % 7);
        let trace = seeded_trace(seed, 1 + (seed as usize % 40), nprocs);
        for f in trace.idle_fraction(nprocs) {
            prop_assert!((0.0..=1.0).contains(&f), "idle fraction {f} out of range");
        }
        let m = RunMetrics::from_trace("prop", &trace, nprocs);
        prop_assert!(m.makespan.is_finite() && m.makespan >= 0.0);
        prop_assert!(m.load_imbalance.is_finite() && m.load_imbalance >= 1.0);
        prop_assert!(m.total_queue_wait.is_finite() && m.total_queue_wait >= 0.0);
    }

    /// The Chrome-trace export is valid JSON that round-trips through the
    /// parser with monotone non-decreasing timestamps and non-negative
    /// durations — what Perfetto requires to load a file.
    #[test]
    fn chrome_trace_round_trips(seed in 0u64..1000) {
        let n = 1 + (seed as usize % 50);
        let trace = seeded_trace(seed, n, 3);
        let text = chrome_trace_json(&trace, "prop");
        let doc = Json::parse(&text).expect("exporter must emit valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        prop_assert_eq!(spans.len(), n, "one X event per record");
        let mut last_ts = f64::NEG_INFINITY;
        for e in spans {
            let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
            let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
            prop_assert!(ts >= last_ts, "timestamps must be sorted: {ts} after {last_ts}");
            prop_assert!(ts >= 0.0 && dur >= 0.0, "ts {ts} dur {dur}");
            last_ts = ts;
        }
    }
}

/// Regression: a span whose `end` precedes its `start` (crash
/// re-execution under skewed clocks) counts as zero-length everywhere
/// instead of subtracting busy time or producing idle fractions > 1.
#[test]
fn reversed_span_is_clamped_not_subtracted() {
    let mut trace = Trace::default();
    trace.push(TaskClass::Gemm, 0, 5.0, 2.0); // reversed
    trace.push(TaskClass::Gemm, 0, 2.0, 3.0); // normal
    assert_eq!(trace.records[0].duration(), 0.0);
    assert_eq!(trace.breakdown().total(), 1.0);
    assert_eq!(trace.makespan(), 3.0, "makespan is the maximum end time");
    let idle = trace.idle_fraction(1);
    assert!((0.0..=1.0).contains(&idle[0]));
}

/// The empty trace is a fixed point: zero makespan, empty breakdown,
/// fully idle workers, and a parseable (if boring) Chrome trace.
#[test]
fn empty_trace_exports_cleanly() {
    let trace = Trace::default();
    assert_eq!(trace.makespan(), 0.0);
    assert_eq!(trace.breakdown().total(), 0.0);
    assert_eq!(trace.idle_fraction(3), vec![1.0; 3]);
    let doc = Json::parse(&chrome_trace_json(&trace, "empty")).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(events.iter().all(|e| e.get("ph").and_then(Json::as_str) != Some("X")));
}

/// One exporter, both engines: a DES run's virtual-clock trace feeds the
/// same Chrome-trace writer and metrics report as the wall-clock path.
#[test]
fn des_trace_uses_the_same_exporter() {
    let snap = SyntheticRankModel::from_application(16, 256, 3.7e-4, 1e-4).snapshot();
    let cfg = SimConfig::hicma_parsec(MachineModel::shaheen_ii(), 4);
    let r = simulate_cholesky(&snap, &cfg);
    assert!(!r.trace.records.is_empty(), "DES must trace every task");

    let doc = Json::parse(&chrome_trace_json(&r.trace, "des")).expect("valid Chrome trace");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let nspans = events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).count();
    assert_eq!(nspans, r.trace.records.len());

    let m = RunMetrics::from_trace(cfg.plan.name(), &r.trace, 4)
        .with_comm(r.comm.bytes, r.comm.messages)
        .with_critical_path(r.critical_path_seconds);
    assert!(m.makespan > 0.0);
    assert!(m.comm_messages > 0, "4 ranks must communicate");
    assert!(m.efficiency_vs_critical_path > 0.0 && m.efficiency_vs_critical_path <= 1.0);
    assert_eq!(m.busy.len(), 4);
    // The DES busy bookkeeping is *derived from the trace*, so the two
    // views can never drift apart.
    let from_trace: f64 = r.trace.busy_per_proc(4).iter().sum();
    let from_metrics: f64 = m.busy.iter().sum();
    assert!((from_trace - from_metrics).abs() < 1e-12);
}

/// A traced fault-tolerant run with injected crashes records a matching
/// Crash/Recovery event pair, in order, with consistent payloads.
#[test]
fn ft_run_records_matching_crash_recovery_pairs() {
    let n = 120;
    let b = 24;
    let gen = |i: usize, j: usize| {
        let d = (i as f64 - j as f64) / (n as f64 / 8.0);
        let v: f64 = (-d * d).exp();
        if i == j {
            v + 1e-3
        } else {
            v
        }
    };
    let ccfg = CompressionConfig::with_accuracy(1e-8);
    let mut m = TlrMatrix::from_generator(n, b, gen, &ccfg);
    let fcfg = FactorConfig::with_accuracy(1e-8);
    let plan = FaultPlan::new(9).with_drops(0.1).with_crash(1, 10.0).with_crash(3, 30.0);
    let ft = FtConfig::with_plan(plan);
    let run = Session::distributed(fcfg, 6, &DiamondDistribution::new(6))
        .with_fault_layer(&ft)
        .run(&mut m)
        .expect("two crashes among six ranks are survivable");
    let outcome = run.ft.expect("fault layer was configured");

    assert_eq!(outcome.stats.crashes * 2, outcome.events.len());
    assert!(!outcome.events.is_empty(), "scheduled crashes must be recorded");
    let mut last_at = f64::NEG_INFINITY;
    for pair in outcome.events.chunks(2) {
        let RunEvent::Crash { rank, at: crash_at } = pair[0] else {
            panic!("even event must be a crash, got {:?}", pair[0]);
        };
        let RunEvent::Recovery { failed, survivor, at: rec_at } = pair[1] else {
            panic!("odd event must be a recovery, got {:?}", pair[1]);
        };
        assert_eq!(failed, rank, "recovery must reference the crashed rank");
        assert_ne!(survivor, rank, "a dead rank cannot recover itself");
        assert!(crash_at <= rec_at, "recovery cannot precede its crash");
        assert!(last_at <= crash_at, "events must be time-ordered");
        last_at = rec_at;
        // Events serialize for the metrics dump.
        let j = pair[0].to_json().to_string();
        assert!(j.contains("crash"), "{j}");
    }
    assert!(outcome.stats.bytes_sent >= 8 * outcome.stats.messages_sent as u64);
}

/// End-to-end acceptance: a traced shared-memory factorization of an
/// RBF-structured problem exports a valid Chrome trace and a metrics
/// report with per-class, per-worker, and rank-evolution content.
#[test]
fn traced_rbf_factorization_exports_chrome_trace_and_metrics() {
    use hicma_parsec::cholesky::factorize;
    use hicma_parsec::mesh::geometry::{virus_population, VirusConfig};
    use hicma_parsec::mesh::hilbert::{apply_permutation, hilbert_sort};
    use hicma_parsec::mesh::GaussianRbf;

    let vcfg = VirusConfig { points_per_virus: 180, ..Default::default() };
    let raw = virus_population(2, &vcfg, 42);
    let points = apply_permutation(&raw, &hilbert_sort(&raw));
    let n = points.len();
    let kernel = GaussianRbf::from_min_distance(&points);
    let ccfg = CompressionConfig::with_accuracy(1e-6);
    let mut a = TlrMatrix::from_generator(n, 72, kernel.generator(&points), &ccfg);

    let mut fcfg = FactorConfig::with_accuracy(1e-6);
    fcfg.nthreads = 2;
    fcfg.collect_trace = true;
    let report = factorize(&mut a, &fcfg).expect("RBF operator is SPD");
    let metrics = report.metrics.expect("a traced run reports metrics");

    // Chrome trace: parseable, one span per executed task, named by class
    // and tile coordinates.
    assert_eq!(metrics.trace.records.len(), report.dag_tasks);
    let text = chrome_trace_json(&metrics.trace, "rbf");
    let doc = Json::parse(&text).expect("valid Chrome trace JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let spans: Vec<&Json> =
        events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
    assert_eq!(spans.len(), report.dag_tasks);
    assert!(spans
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str).is_some_and(|s| s.starts_with("POTRF"))));

    // Metrics report: class breakdown, worker occupancy, rank evolution.
    let rm = metrics.run_metrics("rbf-wallclock");
    assert!(rm.breakdown.potrf > 0.0 && rm.breakdown.total() > 0.0);
    assert_eq!(rm.idle_fraction.len(), 2);
    assert!(rm.idle_fraction.iter().all(|f| (0.0..=1.0).contains(f)));
    assert!(rm.load_imbalance >= 1.0);
    assert!(metrics.rank_evolution.events() > 0, "GEMM recompressions must be logged");
    assert!(metrics.rank_evolution.mean_in() >= metrics.rank_evolution.mean_out());
    let csv = rm.to_csv();
    assert!(csv.contains("makespan_s") && csv.contains("idle_fraction_p1"), "{csv}");
    let rendered = metrics.rank_evolution.render(16);
    assert!(rendered.contains("recompressions"), "{rendered}");
}

/// Integrity incidents ride the same timeline as crashes: a run with an
/// injected store corruption exports `corruption_detected` and
/// `corruption_healed` instant events in its Chrome trace, even on an
/// untraced run (the event channel is always on).
#[test]
fn corruption_events_export_as_chrome_instants() {
    let n = 96;
    let b = 24;
    let gen = |i: usize, j: usize| {
        let d = (i as f64 - j as f64) / (n as f64 / 6.0);
        let v: f64 = (-d * d).exp();
        if i == j {
            v + 1e-3
        } else {
            v
        }
    };
    let ccfg = CompressionConfig::with_accuracy(1e-8);
    let mut m = TlrMatrix::from_generator(n, b, gen, &ccfg);
    let dist = DiamondDistribution::new(4);
    let victim = dist.owner(1, 0);
    let plan = FaultPlan::new(11).with_store_corruption(victim, 1, 0, 3.0);
    let ft = FtConfig::with_plan(plan);
    let outcome = Session::distributed(FactorConfig::with_accuracy(1e-8), 4, &dist)
        .with_fault_layer(&ft)
        .run(&mut m)
        .expect("a single store strike is healable")
        .ft
        .expect("fault layer was configured");
    assert_eq!(outcome.stats.corruptions_detected, 1);
    assert_eq!(outcome.stats.corruptions_healed, 1);

    // The exporter accepts the event stream with or without a task
    // trace; this run was not traced, so an empty trace stands in.
    let text = chrome_trace_json_with_events(&Trace::default(), &outcome.events, "integrity");
    let doc = Json::parse(&text).expect("valid Chrome trace JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let instant_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(instant_names.contains(&"corruption_detected"), "{instant_names:?}");
    assert!(instant_names.contains(&"corruption_healed"), "{instant_names:?}");
}

/// The metrics registry is on by default and feeds `RunOutcome::registry`
/// on shared-memory runs: task counters, per-class busy time, the
/// workspace high-water mark and growth count, and the recompression
/// rank histogram all land in the snapshot of an untraced run.
#[test]
fn default_shared_run_populates_the_registry() {
    let n = 96;
    let b = 24;
    let gen = |i: usize, j: usize| {
        let d = (i as f64 - j as f64) / (n as f64 / 6.0);
        let v: f64 = (-d * d).exp();
        if i == j {
            v + 1e-3
        } else {
            v
        }
    };
    let ccfg = CompressionConfig::with_accuracy(1e-8);
    let mut m = TlrMatrix::from_generator(n, b, gen, &ccfg);
    let mut fcfg = FactorConfig::with_accuracy(1e-8);
    fcfg.nthreads = 2;
    let out = Session::shared(fcfg).run(&mut m).expect("SPD");
    let snap = out.registry.expect("collect_metrics defaults to on");
    // Panel batching (on by default) retires *fused* tasks, so the
    // counter is bounded by — not equal to — the DAG task count.
    let executed = snap.counter(Counter::TasksExecuted);
    assert!(executed > 0, "retired tasks must be counted");
    assert!(executed as usize <= out.report.dag_tasks, "{executed} > {}", out.report.dag_tasks);
    assert!(snap.class_busy_seconds().total() > 0.0, "kernels take time");
    assert!(snap.counter(Counter::TasksEnqueued) >= executed);
    assert!(snap.gauge(Gauge::ArenaHighWaterBytes) > 0.0, "workspaces allocate");
    assert!(snap.recompression_ranks.count > 0, "GEMM recompressions must be logged");
    assert!(snap.counter(Counter::WorkspaceGrowth) > 0, "arena warm-up must be counted");
    // The snapshot exports to both wire formats without loss of the
    // headline counter.
    let j = snap.to_json().to_string();
    assert!(j.contains("tasks_executed"), "{j}");
    let mut prom = String::new();
    snap.write_prometheus(&mut prom);
    assert!(prom.contains("tlr_tasks_executed_total"), "{prom}");
}

/// Acceptance: a drift report on a DES run prices the original task
/// graph with the scheduler's cost model and compares it to measured
/// per-class virtual time and measured comm. On a fault-free, unbatched
/// run the comm model is exact — both ratios are 1.0 — and every class
/// ratio is finite (never NaN).
#[test]
fn drift_report_compares_model_to_measured_comm_exactly() {
    let n = 120;
    let b = 24;
    let gen = |i: usize, j: usize| {
        let d = (i as f64 - j as f64) / (n as f64 / 8.0);
        let v: f64 = (-d * d).exp();
        if i == j {
            v + 1e-3
        } else {
            v
        }
    };
    let ccfg = CompressionConfig::with_accuracy(1e-8);
    let mut m = TlrMatrix::from_generator(n, b, gen, &ccfg);
    let mut fcfg = FactorConfig::with_accuracy(1e-8);
    // Panel batching fuses tasks and coalesces shipments, which changes
    // message counts; the exactness claim is for the unbatched graph.
    fcfg.batch_panels = false;
    let out = Session::distributed(fcfg, 4, &DiamondDistribution::new(4))
        .with_drift(DriftSpec::new(MachineModel::shaheen_ii()))
        .run(&mut m)
        .expect("SPD");
    let drift = out.drift.expect("drift spec + default metrics => report");

    assert!(drift.expected_rank > 0);
    assert!(drift.modeled_flops > 0.0, "pricing the DAG must see work");
    for c in &drift.classes {
        assert!(c.ratio.is_finite(), "{}: ratio {}", c.class, c.ratio);
        assert!(c.correction.is_finite() && c.correction > 0.0);
    }
    let gemm = drift.classes.iter().find(|c| c.class == "gemm").unwrap();
    assert!(gemm.measured_seconds > 0.0, "DES busy time lands in the registry");
    assert!(gemm.modeled_seconds > 0.0);

    let comm = drift.comm.expect("distributed runs always model comm");
    assert_eq!(comm.bytes_ratio, 1.0, "fault-free unbatched comm model is exact");
    assert_eq!(comm.messages_ratio, 1.0);
    assert!(!comm.anomalous);

    // The report serializes to both export formats.
    let j = drift.to_json().to_string();
    assert!(j.contains("bytes_ratio") && j.contains("modeled_flops"), "{j}");
    let prom = drift.to_prometheus();
    assert!(prom.contains("tlr_drift_ratio"), "{prom}");
    let table = drift.to_string();
    assert!(table.contains("gemm"), "{table}");
}

/// The same drift machinery on the wall-clock engine: a shared-memory
/// run measures real seconds against the same modeled costs, so ratios
/// are finite (timing-dependent in value, never NaN) and the rank
/// profile comes from the run's own recompression histogram.
#[test]
fn drift_report_works_on_wall_clock_runs() {
    let n = 96;
    let b = 24;
    let gen = |i: usize, j: usize| {
        let d = (i as f64 - j as f64) / (n as f64 / 6.0);
        let v: f64 = (-d * d).exp();
        if i == j {
            v + 1e-3
        } else {
            v
        }
    };
    let ccfg = CompressionConfig::with_accuracy(1e-8);
    let mut m = TlrMatrix::from_generator(n, b, gen, &ccfg);
    let mut fcfg = FactorConfig::with_accuracy(1e-8);
    fcfg.nthreads = 2;
    let out = Session::shared(fcfg)
        .with_drift(DriftSpec::new(MachineModel::shaheen_ii()))
        .run(&mut m)
        .expect("SPD");
    let drift = out.drift.expect("drift spec + default metrics => report");
    assert!(drift.comm.is_none(), "shared-memory runs have no wire");
    assert!(drift.modeled_flops > 0.0);
    for c in &drift.classes {
        assert!(c.ratio.is_finite() && c.ratio >= 0.0, "{}: {}", c.class, c.ratio);
    }
    let total: f64 = drift.classes.iter().map(|c| c.measured_seconds).sum();
    assert!(total > 0.0, "wall-clock busy time must be measured");
    // GEMM/SYRK are priced at the mean of the run's own recompression
    // histogram (bucket bounds), not at the fallback rank.
    let ranks = &out.registry.expect("default metrics").recompression_ranks;
    assert!(ranks.count > 0, "recompressions must reach the registry");
    let weighted: u64 = ranks.buckets.iter().map(|&(bound, n)| bound * n).sum();
    let mean = (weighted as f64 / ranks.count as f64).round().max(1.0) as usize;
    assert_eq!(drift.expected_rank, mean, "rank must come from the histogram");
}
