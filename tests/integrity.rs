//! Tile-integrity integration tests: seeded silent-data-corruption
//! (bit-flips in store tiles and message payloads) through the full
//! `Session` pipeline must be detected with zero false negatives,
//! healed from lineage, and leave the factor bit-identical to the
//! fault-free run — composing with message loss, rank crashes, comm
//! accounting and tracing.

use hicma_parsec::cholesky::{factorize, FactorConfig, IntegrityMode, RunError, Session};
use hicma_parsec::distribution::{DiamondDistribution, TileDistribution};
use hicma_parsec::linalg::norms::relative_diff;
use hicma_parsec::runtime::{EngineError, FaultPlan, FtConfig, FtError, RunEvent};
use hicma_parsec::tlr::{CompressionConfig, TlrMatrix};

const N: usize = 96;
const B: usize = 24;
const ACC: f64 = 1e-8;

/// A smooth synthetic SPD generator (Gaussian kernel + diagonal bump).
fn gen(i: usize, j: usize) -> f64 {
    let d = (i as f64 - j as f64) / (N as f64 / 6.0);
    let v = (-d * d).exp();
    if i == j {
        v + 1e-3
    } else {
        v
    }
}

fn matrix() -> TlrMatrix {
    TlrMatrix::from_generator(N, B, gen, &CompressionConfig::with_accuracy(ACC))
}

/// The shared-memory reference factor every corrupted run must match
/// bit for bit.
fn reference_factor() -> hicma_parsec::linalg::Matrix {
    let mut m = matrix();
    factorize(&mut m, &FactorConfig::with_accuracy(ACC)).unwrap();
    m.to_dense_lower()
}

#[test]
fn store_corruption_is_detected_healed_and_numerically_invisible() {
    // Flip one bit in tile (1,0) on its owner rank mid-run. The exact
    // digest must catch it at the next read boundary (or the final
    // sweep), lineage healing must recompute it, and the factor must be
    // bit-identical to the fault-free run — a corrupting plan arms the
    // integrity layer automatically, no config flag needed.
    let reference = reference_factor();
    let dist = DiamondDistribution::new(4);
    let victim_rank = dist.owner(1, 0);
    let plan = FaultPlan::new(11).with_store_corruption(victim_rank, 1, 0, 3.0);
    let ft = FtConfig::with_plan(plan);
    let mut m = matrix();
    let outcome = Session::distributed(FactorConfig::with_accuracy(ACC), 4, &dist)
        .with_fault_layer(&ft)
        .run(&mut m)
        .expect("a single store strike is healable")
        .ft
        .expect("fault layer was configured");

    assert_eq!(
        outcome.stats.store_corruptions_injected, 1,
        "the strike must land"
    );
    assert_eq!(
        outcome.stats.corruptions_detected, 1,
        "zero false negatives"
    );
    assert_eq!(
        outcome.stats.corruptions_healed, 1,
        "the strike must be healed"
    );
    let detected = outcome
        .events
        .iter()
        .any(|e| matches!(e, RunEvent::CorruptionDetected { i: 1, j: 0, .. }));
    let healed = outcome
        .events
        .iter()
        .any(|e| matches!(e, RunEvent::Healed { i: 1, j: 0, .. }));
    assert!(
        detected && healed,
        "detection and heal must be reported as events"
    );
    let diff = relative_diff(&m.to_dense_lower(), &reference);
    assert!(
        diff == 0.0,
        "healing must be numerically invisible, got diff {diff}"
    );
}

#[test]
fn message_corruption_is_nacked_retransmitted_and_invisible() {
    // Corrupt a large fraction of cross-rank payloads in flight. Every
    // mutated copy must be caught at delivery (detected == corrupted),
    // NACKed (nacks == detected), and re-sent until a clean copy lands;
    // the comm ledger stays consistent and the factor exact.
    let reference = reference_factor();
    let dist = DiamondDistribution::new(4);
    let plan = FaultPlan::new(21).with_message_corruption(0.4);
    let ft = FtConfig::with_plan(plan);
    let mut m = matrix();
    let out = Session::distributed(FactorConfig::with_accuracy(ACC), 4, &dist)
        .with_fault_layer(&ft)
        .run(&mut m)
        .expect("message corruption is always recoverable via NACK/retransmit");
    let stats = &out.ft.as_ref().unwrap().stats;
    let comm = out.comm.as_ref().unwrap();

    assert!(stats.messages_corrupted > 0, "p=0.4 must corrupt something");
    assert_eq!(
        stats.corruptions_detected, stats.messages_corrupted,
        "zero false negatives"
    );
    assert_eq!(
        stats.nacks_sent, stats.corruptions_detected,
        "every detection NACKs"
    );
    assert_eq!(stats.sends_abandoned, 0, "NACK/retransmit must converge");
    assert_eq!(
        comm.messages as usize,
        stats.messages_sent + stats.retransmissions,
        "comm ledger counts every attempt"
    );
    let diff = relative_diff(&m.to_dense_lower(), &reference);
    assert!(diff == 0.0, "message corruption changed the factor: {diff}");
}

#[test]
fn integrity_layer_has_zero_false_positives_on_lossy_network() {
    // verify_integrity armed explicitly, aggressive loss/duplication/
    // ack-loss but NO corruption: every digest check must pass, all
    // corruption counters stay zero, and the factor stays exact.
    let reference = reference_factor();
    let dist = DiamondDistribution::new(4);
    let plan = FaultPlan::new(5)
        .with_drops(0.25)
        .with_duplicates(0.2)
        .with_ack_drops(0.2);
    let ft = FtConfig::with_plan(plan);
    let mut cfg = FactorConfig::with_accuracy(ACC);
    cfg.integrity = IntegrityMode::VerifyReads;
    let mut m = matrix();
    let out = Session::distributed(cfg, 4, &dist)
        .with_fault_layer(&ft)
        .run(&mut m)
        .expect("lossy but uncorrupted plan is survivable");
    let stats = &out.ft.as_ref().unwrap().stats;

    assert!(stats.messages_dropped > 0, "loss injection must bite");
    assert_eq!(stats.messages_corrupted, 0);
    assert_eq!(stats.corruptions_detected, 0, "no false positives");
    assert_eq!(stats.corruptions_healed, 0);
    assert_eq!(stats.nacks_sent, 0);
    let diff = relative_diff(&m.to_dense_lower(), &reference);
    assert!(diff == 0.0, "integrity layer perturbed a clean run: {diff}");
}

#[test]
fn heal_escalation_surfaces_as_typed_error_not_panic() {
    // With the heal budget set to zero the first detection must
    // escalate to the typed IntegrityError — never a panic, never a
    // silently wrong factor.
    let dist = DiamondDistribution::new(4);
    let victim_rank = dist.owner(1, 0);
    let plan = FaultPlan::new(11).with_store_corruption(victim_rank, 1, 0, 3.0);
    let mut ft = FtConfig::with_plan(plan);
    ft.retry.max_heal_retries = 0;
    let mut m = matrix();
    let err = Session::distributed(FactorConfig::with_accuracy(ACC), 4, &dist)
        .with_fault_layer(&ft)
        .run(&mut m)
        .expect_err("zero heal budget must escalate");
    match err {
        RunError::Engine(EngineError::Fault(FtError::Integrity(e))) => {
            assert_eq!(e.data, (1, 0), "error must name the corrupted tile");
        }
        other => panic!("expected a typed integrity error, got {other:?}"),
    }
}

#[test]
fn shared_session_integrity_modes_are_clean_and_exact() {
    // The shared-memory digest side-array in both armed modes:
    // `Maintain` reseals every write and sweeps the finished factor;
    // `VerifyReads` additionally checks each version at its first read.
    // With nothing corrupting tiles neither may fire, and the factor
    // must match the unverified run exactly.
    let reference = reference_factor();
    for mode in [IntegrityMode::Maintain, IntegrityMode::VerifyReads] {
        let mut cfg = FactorConfig::with_accuracy(ACC);
        cfg.integrity = mode;
        let mut m = matrix();
        factorize(&mut m, &cfg).expect("verification of a clean run must pass");
        let diff = relative_diff(&m.to_dense_lower(), &reference);
        assert!(
            diff == 0.0,
            "digest side-array perturbed the factor ({mode:?}): {diff}"
        );
    }
}

#[test]
fn corruption_composes_with_crash_loss_and_trace() {
    // The acceptance scenario: message corruption + a store strike + a
    // rank crash + message loss in ONE run, with tracing requested. All
    // three recovery mechanisms (retransmit, lineage heal, migration)
    // must compose and the factor must still be bit-identical.
    let reference = reference_factor();
    let dist = DiamondDistribution::new(4);
    let victim_rank = dist.owner(2, 1);
    let plan = FaultPlan::new(7)
        .with_drops(0.1)
        .with_message_corruption(0.2)
        .with_store_corruption(victim_rank, 2, 1, 5.0)
        .with_crash(3, 12.0);
    let ft = FtConfig::with_plan(plan);
    let mut cfg = FactorConfig::with_accuracy(ACC);
    cfg.collect_trace = true;
    let mut m = matrix();
    let out = Session::distributed(cfg, 4, &dist)
        .with_fault_layer(&ft)
        .run(&mut m)
        .expect("composed plan is survivable: one crash, three survivors");
    let ftout = out.ft.as_ref().unwrap();

    assert_eq!(ftout.stats.crashes, 1, "the scheduled crash must fire");
    assert_eq!(ftout.stats.store_corruptions_injected, 1);
    assert!(
        ftout.stats.messages_corrupted > 0,
        "corruption injection must bite"
    );
    assert!(
        ftout.stats.corruptions_detected >= ftout.stats.messages_corrupted,
        "every corrupted payload must be caught"
    );
    assert!(
        out.comm.is_some(),
        "comm accounting composes with the integrity layer"
    );
    let trace = out.trace.as_ref().expect("requested trace must be recorded");
    assert!(
        !trace.records.is_empty(),
        "requested trace must have records"
    );
    let diff = relative_diff(&m.to_dense_lower(), &reference);
    assert!(diff == 0.0, "composed faults changed the factor: {diff}");
}

#[test]
fn corruption_run_is_deterministic() {
    // Same seed, same plan → byte-for-byte identical fault accounting.
    // Detection and healing are part of the deterministic virtual-time
    // schedule, not a source of nondeterminism.
    let dist = DiamondDistribution::new(4);
    let run = || {
        let plan = FaultPlan::new(21)
            .with_message_corruption(0.3)
            .with_drops(0.1);
        let ft = FtConfig::with_plan(plan);
        let mut m = matrix();
        let out = Session::distributed(FactorConfig::with_accuracy(ACC), 4, &dist)
            .with_fault_layer(&ft)
            .run(&mut m)
            .expect("survivable");
        (out.ft.unwrap().stats, out.comm.unwrap())
    };
    let (s1, c1) = run();
    let (s2, c2) = run();
    assert_eq!(s1, s2, "fault accounting must be deterministic");
    assert_eq!(
        c1.messages, c2.messages,
        "comm ledger must be deterministic"
    );
}
