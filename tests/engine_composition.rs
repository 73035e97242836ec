//! Capability-composition tests for the unified engines: every subset of
//! {cancellation, observation, comm counting, fault layer} must produce a
//! bit-identical factor on the same seeded RBF-structured problem, with
//! communication accounting that stays consistent between the engine's
//! `CommStats` and the fault layer's `FaultStats`. This is the contract
//! that lets every capability combination run through one `Session` over
//! one engine per kind.

use hicma_parsec::cholesky::{factorize, FactorConfig, RunError, Session};
use hicma_parsec::distribution::{DiamondDistribution, TwoDBlockCyclic};
use hicma_parsec::linalg::norms::relative_diff;
use hicma_parsec::linalg::Matrix;
use hicma_parsec::runtime::{FaultPlan, FtConfig, SchedPolicy};
use hicma_parsec::tlr::{CompressionConfig, TlrMatrix};
use proptest::prelude::*;

/// Seeded RBF-structured SPD generator (Gaussian kernel on a 1D grid
/// with a seed-dependent phase, plus a diagonal bump).
fn rbf_gen(n: usize, corr: f64, seed: u64) -> impl Fn(usize, usize) -> f64 + Sync {
    let phase = (seed % 97) as f64 / 97.0;
    move |i: usize, j: usize| {
        let d = (i as f64 - j as f64) / (n as f64 / corr);
        let v = (-d * d).exp() * (1.0 + 0.05 * ((i + j) as f64 * 0.01 + phase).sin());
        if i == j {
            v + 1e-3
        } else {
            v
        }
    }
}

fn compressed(dense: &Matrix, b: usize, acc: f64) -> TlrMatrix {
    TlrMatrix::from_dense(dense, b, &CompressionConfig::with_accuracy(acc))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every capability subset — shared vs distributed, traced vs not,
    /// fault layer absent / fault-free / lossy / lossy-with-crash —
    /// produces the identical factor, and the comm accounting composes
    /// consistently (fault-free comm equals the no-layer run; faults
    /// only ever add messages and bytes; `CommStats` agrees with
    /// `FaultStats`).
    #[test]
    fn all_capability_subsets_agree(
        seed in 0u64..10_000,
        corr in 4u32..10,
        drop_pct in 0u32..20,
        dup_pct in 0u32..15,
        crash_flag in 0u32..2,
    ) {
        let crash = crash_flag == 1;
        let n = 96;
        let b = 24;
        let acc = 1e-8;
        let dense = Matrix::from_fn(n, n, rbf_gen(n, corr as f64, seed));

        // {} — plain shared-memory run: the baseline factor.
        let mut base = compressed(&dense, b, acc);
        let fcfg = FactorConfig::with_accuracy(acc);
        factorize(&mut base, &fcfg).unwrap();
        let l_base = base.to_dense_lower();

        // {obs} — tracing layered onto the shared engine must not
        // perturb the numbers (span capture stays off the kernel path).
        let mut traced = compressed(&dense, b, acc);
        let mut tcfg = fcfg;
        tcfg.collect_trace = true;
        factorize(&mut traced, &tcfg).unwrap();
        prop_assert_eq!(
            relative_diff(&traced.to_dense_lower(), &l_base), 0.0,
            "observation changed the factor"
        );

        // {counted} — distributed run (comm counting is inherent).
        let dist = TwoDBlockCyclic::new(4);
        let mut counted = compressed(&dense, b, acc);
        let out = Session::distributed(fcfg, 4, &dist).run(&mut counted).unwrap();
        let comm_base = out.comm.unwrap();
        prop_assert_eq!(
            relative_diff(&counted.to_dense_lower(), &l_base), 0.0,
            "distributed factor deviates from shared memory"
        );
        prop_assert!(comm_base.messages > 0, "4 ranks must communicate");

        // {counted, ft(fault-free)} — an explicit fault-free fault layer
        // is the same event loop with the same config: identical factor
        // *and* identical comm volume.
        let ff = FtConfig::fault_free();
        let mut ftff = compressed(&dense, b, acc);
        let out_ff = Session::distributed(fcfg, 4, &dist)
            .with_fault_layer(&ff)
            .run(&mut ftff)
            .unwrap();
        prop_assert_eq!(relative_diff(&ftff.to_dense_lower(), &l_base), 0.0);
        let comm_ff = out_ff.comm.unwrap();
        prop_assert_eq!(comm_ff.messages, comm_base.messages);
        prop_assert_eq!(comm_ff.bytes, comm_base.bytes);
        let ft_ff = out_ff.ft.expect("fault layer configured");
        prop_assert_eq!(ft_ff.stats.retransmissions, 0);

        // {counted, ft(lossy[, crash]), obs} — everything at once. The
        // factor still matches bit for bit, comm only grows, and the
        // engine's CommStats is exactly the fault layer's sends plus
        // retransmissions.
        let mut plan = FaultPlan::new(seed)
            .with_drops(drop_pct as f64 / 100.0)
            .with_duplicates(dup_pct as f64 / 100.0)
            .with_jitter(0.5);
        if crash {
            plan = plan.with_crash(1, 12.0);
        }
        let ft = FtConfig::with_plan(plan);
        let mut full = compressed(&dense, b, acc);
        let out_full = Session::distributed(tcfg, 4, &dist)
            .with_fault_layer(&ft)
            .run(&mut full)
            .unwrap();
        prop_assert_eq!(
            relative_diff(&full.to_dense_lower(), &l_base), 0.0,
            "faults leaked into the factor"
        );
        let comm_full = out_full.comm.unwrap();
        let stats = &out_full.ft.as_ref().expect("fault layer configured").stats;
        if !crash {
            // Without a crash the placement is unchanged, so faults can
            // only ever *add* traffic (retransmissions). A crash migrates
            // tasks, which may legitimately localize former cross-rank
            // edges, so no inequality holds there.
            prop_assert!(comm_full.messages >= comm_base.messages, "faults cannot shrink traffic");
            prop_assert!(comm_full.bytes >= comm_base.bytes);
        }
        prop_assert_eq!(
            comm_full.messages,
            (stats.messages_sent + stats.retransmissions) as u64,
            "CommStats and FaultStats must agree on sends"
        );
        if crash {
            prop_assert_eq!(stats.crashes, 1, "the scheduled crash must fire");
        }
    }

    /// The scheduling policy is an ordering knob, never a numeric one:
    /// every [`SchedPolicy`] — static keys, HEFT-style upward ranks, the
    /// comm-aware variant, and the self-correcting rank-aware lookahead —
    /// must produce the panel-priority factor bit for bit, through both
    /// the shared work-stealing engine and the distributed engine.
    #[test]
    fn every_sched_policy_is_bit_identical(
        seed in 0u64..10_000,
        corr in 4u32..10,
    ) {
        let n = 96;
        let b = 24;
        let acc = 1e-8;
        let dense = Matrix::from_fn(n, n, rbf_gen(n, corr as f64, seed));

        let mut base = compressed(&dense, b, acc);
        let fcfg = FactorConfig::with_accuracy(acc);
        factorize(&mut base, &fcfg).unwrap();
        let l_base = base.to_dense_lower();

        let dist = TwoDBlockCyclic::new(4);
        for policy in SchedPolicy::ALL {
            let mut pcfg = fcfg;
            pcfg.sched = policy;

            let mut shared = compressed(&dense, b, acc);
            factorize(&mut shared, &pcfg).unwrap();
            prop_assert_eq!(
                relative_diff(&shared.to_dense_lower(), &l_base), 0.0,
                "shared-memory factor changed under policy {}", policy.name()
            );

            let mut distributed = compressed(&dense, b, acc);
            Session::distributed(pcfg, 4, &dist).run(&mut distributed).unwrap();
            prop_assert_eq!(
                relative_diff(&distributed.to_dense_lower(), &l_base), 0.0,
                "distributed factor changed under policy {}", policy.name()
            );
        }
    }
}

/// Cancellation composes identically everywhere: the same indefinite
/// operator reports a pivot failure (not a hang, not a panic) through the
/// shared engine, the distributed engine, and the fault layer — and the
/// reported pivot is deterministic across all three.
#[test]
fn pivot_cancellation_is_uniform_across_engines() {
    let n = 96;
    let dense = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            if i == 50 {
                -4.0
            } else {
                2.0
            }
        } else {
            0.01 / (1.0 + (i as f64 - j as f64).abs())
        }
    });
    let mut cfg = FactorConfig::with_accuracy(1e-8);
    cfg.max_shift_retries = 0; // fail fast: we compare the raw pivot

    let shared_pivot = {
        let mut m = compressed(&dense, 24, 1e-8);
        factorize(&mut m, &cfg).unwrap_err().pivot
    };

    let dist = TwoDBlockCyclic::new(4);
    let dist_pivot = {
        let mut m = compressed(&dense, 24, 1e-8);
        match Session::distributed(cfg, 4, &dist).run(&mut m).unwrap_err() {
            RunError::Numeric(e) => e.pivot,
            other => panic!("expected a numeric error, got {other}"),
        }
    };

    let ft = FtConfig::fault_free();
    let ft_pivot = {
        let mut m = compressed(&dense, 24, 1e-8);
        match Session::distributed(cfg, 4, &dist).with_fault_layer(&ft).run(&mut m).unwrap_err() {
            RunError::Numeric(e) => e.pivot,
            other => panic!("expected a numeric error, got {other}"),
        }
    };

    assert_eq!(shared_pivot, dist_pivot, "shared and distributed must report the same pivot");
    assert_eq!(dist_pivot, ft_pivot, "the fault layer must not change the reported pivot");
}

/// The headline composition the legacy entry points could not express:
/// one run that is fault-tolerant, comm-counted, *and* traced. Crash
/// events pair up, comm accounting is consistent, and the virtual-time
/// trace covers every task.
#[test]
fn ft_plus_trace_plus_comm_in_one_run() {
    let n = 120;
    let b = 24;
    let acc = 1e-8;
    let dense = Matrix::from_fn(n, n, rbf_gen(n, 8.0, 7));

    let mut shared = compressed(&dense, b, acc);
    let fcfg = FactorConfig::with_accuracy(acc);
    factorize(&mut shared, &fcfg).unwrap();

    let plan = FaultPlan::new(9).with_drops(0.1).with_jitter(0.5).with_crash(1, 10.0);
    let ft = FtConfig::with_plan(plan);
    let mut m = compressed(&dense, b, acc);
    let mut tcfg = fcfg;
    tcfg.collect_trace = true;
    let out = Session::distributed(tcfg, 6, &DiamondDistribution::new(6))
        .with_fault_layer(&ft)
        .run(&mut m)
        .expect("one crash among six ranks is survivable");

    // Factor: bit-identical to shared memory despite the faults.
    assert_eq!(relative_diff(&m.to_dense_lower(), &shared.to_dense_lower()), 0.0);

    // Comm: counted, and consistent with the fault accounting.
    let comm = out.comm.expect("distributed runs count communication");
    let ftout = out.ft.expect("fault layer was configured");
    assert_eq!(comm.messages, (ftout.stats.messages_sent + ftout.stats.retransmissions) as u64);
    assert_eq!(comm.bytes, ftout.stats.bytes_sent);
    assert_eq!(ftout.stats.crashes, 1);
    assert_eq!(ftout.events.len(), 2, "one crash ⇒ one Crash + one Recovery event");

    // Trace: covering every task plus the crash re-executions, inside
    // the virtual makespan.
    let trace = out.trace.expect("collect_trace must record a trace");
    assert!(
        trace.records.len() >= out.report.dag_tasks,
        "every task (plus re-executions) must be traced: {} < {}",
        trace.records.len(),
        out.report.dag_tasks
    );
    assert!(trace.makespan() <= ftout.makespan + 1e-12);
}
