//! Benchmark of the TLR Cholesky pipeline: time to solution on three
//! workloads, and a traced run that reports per-layer metrics.
//!
//! ```text
//! perfbench --workload <virus_rbf|matern_cube|shaheen_dist> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` for
//! every metric.

mod probes;
#[cfg(test)]
mod tests;
mod trace;
mod workload;

use distribution::BandDistribution;
use hicma_core::dag::{build_cholesky_dag, DagConfig};
use hicma_core::{solve_tlr_multi, RunOutcome};
use runtime::des::CommStats;
use runtime::{Counter, Gauge};
use std::time::{Duration, Instant};
use tlr_compress::RankSnapshot;
use trace::{median, median_span, Spans};
use workload::{
    bit_identical, distributed, instance_seed, plan_factor_solve, BandDiamond, Inputs, SimPair,
    Workload, RANKS, RESIDUAL_BOUND, THREADS,
};

/// Passes of the pipeline a run makes however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// A traced run alternates untraced and traced passes, at least this many.
const MIN_TRACED_PASSES: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("missing value after {}", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One named measurement of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One pass: a fresh instance of the workload built from the seed (the
/// set-up), the timed pipeline on it, and the checks of its output.
struct Pass {
    /// Seconds building the instance.
    setup: f64,
    timed: Timed,
    sim_makespan_s: f64,
    sim_speedup: f64,
    spans: Spans,
}

/// The timed part of a pass and its checks.
struct Timed {
    /// Seconds of the timed region.
    tts: f64,
    ok: bool,
    residual: f64,
    /// Memory of the factor after fill-in, MB.
    factor_mem_mb: f64,
}

impl Timed {
    fn failed(tts: f64) -> Timed {
        Timed {
            tts,
            ok: false,
            residual: f64::NAN,
            factor_mem_mb: f64::NAN,
        }
    }
}

/// Library results of one pass, kept from the first traced pass for the
/// per-layer metrics.
#[derive(Default)]
struct Observed {
    /// The shared-memory run: its outcome, the operator's rank snapshot
    /// before factorization, and the planned task count.
    shared: Option<(RunOutcome, RankSnapshot, usize)>,
    /// Traffic of the `band` and `band+diamond` sessions.
    comm: Option<[CommStats; 2]>,
    sim: Option<SimPair>,
}

const MB: f64 = 1e6;

fn words_mb(words: usize) -> f64 {
    (words * std::mem::size_of::<f64>()) as f64 / MB
}

/// Assembly + compression, plan, factorization and solve on the
/// work-stealing engine; then, untimed, the Fig. 9 DES point.
fn shared_pass(inp: &Inputs, spans: &mut Spans, obs: &mut Observed) -> Timed {
    let t0 = Instant::now();
    let a = spans.time("compress.assembly", || inp.assemble());
    let snapshot = a.rank_snapshot();
    let solved = plan_factor_solve(a, &inp.rhs, THREADS, spans);
    let tts = t0.elapsed().as_secs_f64();
    let sim = SimPair::run(&inp.fig9, spans);
    let sane = sim.is_sane();
    obs.sim = Some(sim);
    match solved {
        Ok(s) => {
            let residual = spans.time("verify", || inp.residual(&s.x));
            let factor_mem_mb = words_mb(s.outcome.report.memory_after_f64);
            obs.shared = Some((s.outcome, snapshot, s.plan_tasks));
            Timed {
                tts,
                ok: sane && residual <= RESIDUAL_BOUND,
                residual,
                factor_mem_mb,
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", inp.workload.name());
            Timed::failed(tts)
        }
    }
}

/// Two distributed sessions (`band`, `band+diamond`) and the two DES runs
/// of the Fig. 9 point, timed. Both distributed factors must equal the
/// shared-memory factor of the same operator bit for bit.
fn dist_pass(inp: &Inputs, spans: &mut Spans, obs: &mut Observed) -> Timed {
    let (a, _) = inp
        .assembled
        .as_ref()
        .expect("shaheen_dist assembles in set-up");
    let snapshot = a.rank_snapshot();
    let reference = match plan_factor_solve(a.clone(), &inp.rhs, THREADS, spans) {
        Ok(s) => {
            obs.shared = Some((s.outcome, snapshot, s.plan_tasks));
            Some(s.factor)
        }
        Err(e) => {
            eprintln!("perfbench: shared-memory reference failed: {e}");
            None
        }
    };
    let (a1, a2) = (a.clone(), a.clone());
    let t0 = Instant::now();
    let band = spans.time("dist.band", || {
        distributed(a1, &BandDistribution::new(RANKS))
    });
    let diamond = spans.time("dist.band_diamond", || {
        distributed(a2, &BandDiamond::new(RANKS))
    });
    let sim = SimPair::run(&inp.fig9, spans);
    let tts = t0.elapsed().as_secs_f64();
    let sane = sim.is_sane();
    obs.sim = Some(sim);

    let (band, diamond) = match (band, diamond) {
        (Ok(b), Ok(d)) => (b, d),
        (b, d) => {
            for e in [b.err(), d.err()].into_iter().flatten() {
                eprintln!("perfbench: distributed session failed: {e}");
            }
            return Timed::failed(tts);
        }
    };
    let identical = reference
        .is_some_and(|r| bit_identical(&band.factor, &r) && bit_identical(&diamond.factor, &r));
    if !identical {
        eprintln!("perfbench: distributed factor differs from the shared-memory factor");
    }
    let residual = spans.time("verify", || {
        let mut x = inp.rhs.clone();
        solve_tlr_multi(&diamond.factor, &mut x);
        inp.residual(&x)
    });
    obs.comm = Some([band.comm, diamond.comm]);
    Timed {
        tts,
        ok: identical && sane && residual <= RESIDUAL_BOUND,
        residual,
        factor_mem_mb: words_mb(diamond.report.memory_after_f64),
    }
}

/// Peak resident set size of this process, MB (`ru_maxrss`, in KiB).
fn peak_rss_mb() -> f64 {
    use std::ffi::{c_int, c_long};
    /// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` is the first.
    #[repr(C)]
    struct Rusage {
        times: [c_long; 4],
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_SELF: c_int = 0;
    let mut u = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value with the layout of `struct
    // rusage`, and `RUSAGE_SELF` is a valid `who`; `getrusage` writes only
    // into `*usage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc == 0 {
        u.maxrss as f64 * 1024.0 / MB
    } else {
        f64::NAN
    }
}

struct RunResult {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn run(args: &Args) -> RunResult {
    let w = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);
    let min_passes = if args.trace {
        MIN_TRACED_PASSES
    } else {
        MIN_PASSES
    };
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut detail = None;
    let mut peak_rss = f64::NAN;
    while passes.len() < min_passes || start.elapsed() < budget {
        let index = passes.len();
        let t = Instant::now();
        let inp = Inputs::build(w, instance_seed(args.seed, index));
        let setup = t.elapsed().as_secs_f64();
        let mut spans = Spans::new(args.trace && index % 2 == 1);
        let mut obs = Observed::default();
        let timed = match w {
            Workload::ShaheenDist => dist_pass(&inp, &mut spans, &mut obs),
            _ => shared_pass(&inp, &mut spans, &mut obs),
        };
        eprintln!(
            "pass {index:>2}{}: {:.4} s{}",
            if spans.is_on() { " (traced)" } else { "" },
            timed.tts,
            if timed.ok { "" } else { "  FAILED" }
        );
        let sim = obs.sim.as_ref();
        passes.push(Pass {
            setup,
            timed,
            sim_makespan_s: sim.map_or(f64::NAN, |s| s.hicma.factorization_seconds),
            sim_speedup: sim.map_or(f64::NAN, SimPair::speedup),
            spans,
        });
        if args.trace && detail.is_none() && index % 2 == 1 {
            detail = Some((inp, obs));
        }
        // The high-water mark creeps up with every pass through allocator
        // fragmentation, so it is read after a fixed number of passes, not
        // after however many fit in the run.
        if passes.len() == MIN_PASSES {
            peak_rss = peak_rss_mb();
        }
    }
    let attempted = passes.len();
    let failed = passes.iter().filter(|p| !p.timed.ok).count();
    let metrics = match detail {
        Some((inp, mut obs)) => per_layer(&inp, &mut obs, passes, failed, attempted),
        None => end_to_end(&passes, peak_rss),
    };
    RunResult {
        attempted,
        failed,
        metrics,
    }
}

fn finite_median(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        f64::NAN
    } else {
        median(&v)
    }
}

fn end_to_end(passes: &[Pass], peak_rss_mb: f64) -> Vec<Metric> {
    // Pass 0 pays the warm-up (first-touch pages, pool start): it is
    // checked and counted, but left out of the medians.
    let warm = &passes[1..];
    let med = |f: fn(&Pass) -> f64| finite_median(warm.iter().map(f));
    vec![
        m("time_to_solution_s", med(|p| p.timed.tts), "s"),
        m("setup_s", med(|p| p.setup), "s"),
        m(
            "accuracy_digits",
            -med(|p| p.timed.residual).log10(),
            "digits",
        ),
        m("factor_mem_mb", med(|p| p.timed.factor_mem_mb), "MB"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
        m("sim_makespan_s", med(|p| p.sim_makespan_s), "s"),
        m("sim_speedup_vs_lorapo", med(|p| p.sim_speedup), "x"),
    ]
}

fn per_layer(
    inp: &Inputs,
    obs: &mut Observed,
    passes: Vec<Pass>,
    failed: usize,
    attempted: usize,
) -> Vec<Metric> {
    // Pass 0 is untraced and pays the warm-up (first-touch pages, pool
    // start), so it is left out of the comparison.
    let tts = |on: bool| {
        median(
            &passes[1..]
                .iter()
                .filter(|p| p.spans.is_on() == on)
                .map(|p| p.timed.tts)
                .collect::<Vec<_>>(),
        )
    };
    let overhead_pct = 100.0 * (tts(true) / tts(false) - 1.0);
    let residuals: Vec<f64> = passes.iter().map(|p| p.timed.residual).collect();
    let mut traced: Vec<Spans> = passes
        .into_iter()
        .map(|p| p.spans)
        .filter(Spans::is_on)
        .collect();

    // Probes beside the pipeline, on the operator of the first traced pass.
    let mut probe = Spans::new(true);
    let a = match &inp.assembled {
        Some((a, _)) => a.clone(),
        None => inp.assemble(),
    };
    let cp = probes::compress_pass(inp);
    let peak_gflops = probes::gemm_peak_gflops();
    let mut serial = Spans::new(true);
    let serial_ok = plan_factor_solve(a.clone(), &inp.rhs, 1, &mut serial).is_ok();
    if inp.workload != Workload::ShaheenDist {
        let band = probe.time("dist.band", || {
            distributed(a.clone(), &BandDistribution::new(RANKS))
        });
        let diamond = probe.time("dist.band_diamond", || {
            distributed(a, &BandDiamond::new(RANKS))
        });
        if let (Ok(b), Ok(d)) = (band, diamond) {
            obs.comm = Some([b.comm, d.comm]);
        }
    }
    traced.push(probe);

    let span = |name: &str| median_span(&traced, name).unwrap_or(f64::NAN);
    // `shaheen_dist` assembles in set-up, outside its timed region.
    let assembly_s = median_span(&traced, "compress.assembly")
        .or_else(|| inp.assembled.as_ref().map(|(_, s)| *s))
        .unwrap_or(f64::NAN);

    let mut out = vec![
        m("mesh.hilbert_s", inp.hilbert_s, "s"),
        m("mesh.kernel_evals", cp.evals as f64, "count"),
        m("mesh.fill_s", cp.fill_s, "s"),
        m("mesh.ns_per_eval", 1e9 * cp.fill_s / cp.evals as f64, "ns"),
        m("compress.assembly_s", assembly_s, "s"),
        m("compress.qrcp_s", cp.qrcp_s, "s"),
        m("compress.tiles", cp.tiles as f64, "count"),
        m("compress.null_tiles", cp.null_tiles as f64, "count"),
        m(
            "compress.useful_ratio",
            (cp.tiles - cp.null_tiles) as f64 / cp.tiles as f64,
            "ratio",
        ),
    ];

    match &obs.shared {
        Some((outcome, snapshot, plan_tasks)) => {
            let r = &outcome.report;
            let stats = snapshot.stats();
            let model_gflop = build_cholesky_dag(
                snapshot,
                &DagConfig {
                    trimmed: true,
                    rank_cap: usize::MAX,
                },
            )
            .flops
            .iter()
            .sum::<f64>()
                / 1e9;
            let reg = outcome.registry.as_ref();
            let counter = |c| reg.map_or(f64::NAN, |s| s.counter(c) as f64);
            let arena = reg.map_or(f64::NAN, |s| {
                s.gauge(Gauge::ArenaHighWaterBytes) * THREADS as f64 / MB
            });
            out.extend([
                m("compress.avg_rank", stats.avg_nonzero, "rank"),
                m("compress.max_rank", stats.max as f64, "rank"),
                m("compress.mem_mb", words_mb(r.memory_before_f64), "MB"),
                m("plan.s", span("plan"), "s"),
                m("plan.tasks", *plan_tasks as f64, "count"),
                m("plan.dense_tasks", r.dense_dag_tasks as f64, "count"),
                m("factor.s", span("factor"), "s"),
                m("factor.potrf_s", r.breakdown.potrf, "s"),
                m("factor.trsm_s", r.breakdown.trsm, "s"),
                m("factor.syrk_s", r.breakdown.syrk, "s"),
                m("factor.gemm_s", r.breakdown.gemm, "s"),
                m(
                    "factor.idle_s",
                    THREADS as f64 * r.factorization_seconds - r.breakdown.total(),
                    "s",
                ),
                m(
                    "factor.tasks_executed",
                    counter(Counter::TasksExecuted),
                    "count",
                ),
                m("factor.steals", counter(Counter::Steals), "count"),
                m("factor.model_gflop", model_gflop, "Gflop"),
                m(
                    "factor.gflops",
                    model_gflop / r.factorization_seconds,
                    "Gflop/s",
                ),
                m(
                    "factor.fill_mem_mb",
                    words_mb(r.memory_after_f64) - words_mb(r.memory_before_f64),
                    "MB",
                ),
                m("factor.arena_mb", arena, "MB"),
                m("factor.shift_attempts", r.shift_attempts as f64, "count"),
            ]);
        }
        None => eprintln!("perfbench: no successful shared-memory run to report on"),
    }
    out.extend([
        m("factor.peak_gflops", peak_gflops, "Gflop/s"),
        m(
            "factor.serial_s",
            if serial_ok {
                serial.total("factor").unwrap_or(f64::NAN)
            } else {
                f64::NAN
            },
            "s",
        ),
        m("solve.s", span("solve"), "s"),
        m("verify.s", span("verify"), "s"),
        m("verify.rows", inp.sample.len() as f64, "count"),
        m(
            "verify.rel_residual",
            finite_median(residuals.into_iter()),
            "ratio",
        ),
        m(
            "verify.failed_ratio",
            failed as f64 / attempted as f64,
            "ratio",
        ),
        m("dist.band.s", span("dist.band"), "s"),
        m("dist.band_diamond.s", span("dist.band_diamond"), "s"),
    ]);
    if let Some([band, diamond]) = &obs.comm {
        out.extend([
            m("dist.band.comm_bytes", band.bytes as f64, "B"),
            m("dist.band.comm_messages", band.messages as f64, "count"),
            m("dist.band_diamond.comm_bytes", diamond.bytes as f64, "B"),
            m(
                "dist.band_diamond.comm_messages",
                diamond.messages as f64,
                "count",
            ),
        ]);
    }
    if let Some(sim) = &obs.sim {
        let (h, l) = (&sim.hicma, &sim.lorapo);
        out.extend([
            m("des.hicma.wall_s", span("des.hicma"), "s"),
            m("des.lorapo.wall_s", span("des.lorapo"), "s"),
            m("des.hicma.tasks", h.dag_tasks as f64, "count"),
            m("des.lorapo.tasks", l.dag_tasks as f64, "count"),
            m("des.hicma.analysis_s", h.analysis_seconds, "s"),
            m("des.lorapo.analysis_s", l.analysis_seconds, "s"),
            m("des.hicma.critical_path_s", h.critical_path_seconds, "s"),
            m("des.hicma.load_imbalance", h.load_imbalance, "ratio"),
            m("des.hicma.comm_bytes", h.comm.bytes as f64, "B"),
            m("des.hicma.writeback_bytes", h.writeback_bytes as f64, "B"),
        ]);
    }
    out.push(m("trace.overhead_pct", overhead_pct, "%"));
    out
}

/// A JSON number with every digit, or `null` when there is none.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <virus_rbf|matern_cube|shaheen_dist> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let r = run(&args);
    let all_finite = r.metrics.iter().all(|m| m.value.is_finite());
    for metric in &r.metrics {
        eprintln!(
            "{:<34} {:>16} {}",
            metric.name,
            json_number(metric.value),
            metric.unit
        );
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0 && all_finite,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}
