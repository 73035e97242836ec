//! Observability: trace export, run metrics, and structured run events.
//!
//! This is the cold-path half of the instrumentation story (the PaRSEC
//! PINS/profiling analogue): everything here consumes a finished
//! [`Trace`] or counter set and turns it into artifacts — a Chrome-trace
//! (Perfetto) JSON timeline, a CSV/JSON metrics dump, or a rendered
//! report. The hot-path half (span capture inside the executor, rank
//! logging inside the kernels) runs during the factorization; this
//! module only runs after a factorization finishes.
//!
//! The JSON layer is hand-rolled: the workspace's `serde` is an offline
//! marker-trait shim with no `serde_json`, so [`json::Json`] provides the
//! minimal writer/parser the exporter and its round-trip tests need.

use crate::trace::{ClassBreakdown, Trace};

pub mod registry;

use registry::RegistrySnapshot;

/// Minimal zero-dependency JSON tree, writer and parser.
pub mod json {
    use std::fmt::Write as _;

    /// A JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (stored as `f64`; non-finite values serialize as `null`).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object; insertion order is preserved.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Object field lookup (first match).
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// Numeric value, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(x) => Some(*x),
                _ => None,
            }
        }

        /// String value, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Array elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// An empty object (build up with [`Json::insert`]).
        pub fn obj() -> Json {
            Json::Obj(Vec::new())
        }

        /// Append a field to an object (keeps insertion order; does
        /// nothing on non-objects, so builder chains stay infallible).
        pub fn insert(&mut self, key: impl Into<String>, value: Json) {
            if let Json::Obj(fields) = self {
                fields.push((key.into(), value));
            }
        }

        fn write(&self, out: &mut String) {
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(x) => {
                    if x.is_finite() {
                        let _ = write!(out, "{x}");
                    } else {
                        out.push_str("null");
                    }
                }
                Json::Str(s) => write_escaped(out, s),
                Json::Arr(items) => {
                    out.push('[');
                    for (n, it) in items.iter().enumerate() {
                        if n > 0 {
                            out.push(',');
                        }
                        it.write(out);
                    }
                    out.push(']');
                }
                Json::Obj(fields) => {
                    out.push('{');
                    for (n, (k, v)) in fields.iter().enumerate() {
                        if n > 0 {
                            out.push(',');
                        }
                        write_escaped(out, k);
                        out.push(':');
                        v.write(out);
                    }
                    out.push('}');
                }
            }
        }

        /// Parse JSON text. Returns an error message with a byte offset on
        /// malformed input.
        ///
        /// Serialization is the [`std::fmt::Display`] impl (compact, no
        /// whitespace): `json.to_string()`.
        pub fn parse(text: &str) -> Result<Json, String> {
            let bytes = text.as_bytes();
            let mut pos = 0usize;
            let v = parse_value(bytes, &mut pos)?;
            skip_ws(bytes, &mut pos);
            if pos != bytes.len() {
                return Err(format!("trailing data at byte {pos}"));
            }
            Ok(v)
        }
    }

    impl std::fmt::Display for Json {
        /// Compact JSON text (no whitespace).
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let mut out = String::new();
            self.write(&mut out);
            f.write_str(&out)
        }
    }

    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => expect(b, pos, "null").map(|_| Json::Null),
            Some(b't') => expect(b, pos, "true").map(|_| Json::Bool(true)),
            Some(b'f') => expect(b, pos, "false").map(|_| Json::Bool(false)),
            Some(b'"') => parse_string(b, pos).map(Json::Str),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    skip_ws(b, pos);
                    expect(b, pos, ":")?;
                    let val = parse_value(b, pos)?;
                    fields.push((key, val));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                    }
                }
            }
            Some(_) => parse_number(b, pos).map(Json::Num),
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is safe).
                    let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid utf-8")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        let tok = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid utf-8")?;
        tok.parse::<f64>()
            .map_err(|_| format!("bad number `{tok}` at byte {start}"))
    }
}

use json::Json;

/// Export a [`Trace`] as Chrome-trace (Perfetto) JSON.
///
/// Produces the `{"traceEvents": [...]}` object form with one complete
/// (`"ph": "X"`) event per task record, `ts`/`dur` in microseconds,
/// `pid = 0`, `tid` = worker/process id, and per-event `args` carrying the
/// task id, tile coordinates, and queue wait. Events are sorted by `ts`
/// and durations are clamped non-negative so the file always loads in
/// `chrome://tracing` / <https://ui.perfetto.dev>.
pub fn chrome_trace_json(trace: &Trace, process_name: &str) -> String {
    chrome_trace_json_with_events(trace, &[], process_name)
}

/// [`chrome_trace_json`] plus structured run events rendered as
/// Chrome-trace instant (`"ph": "i"`) markers, so crashes, recoveries,
/// and integrity incidents (corruption detected / healed) show up on the
/// Perfetto timeline next to the task spans. Instants carry
/// process-scoped visibility (`"s": "p"`), `tid` = the affected rank,
/// and the event payload in `args`.
pub fn chrome_trace_json_with_events(
    trace: &Trace,
    run_events: &[RunEvent],
    process_name: &str,
) -> String {
    let mut recs: Vec<_> = trace.records.iter().collect();
    recs.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut events = Vec::with_capacity(recs.len() + 1);
    events.push(Json::Obj(vec![
        ("name".into(), Json::Str("process_name".into())),
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::Num(0.0)),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str(process_name.into()))]),
        ),
    ]));
    for r in recs {
        let name = match r.data {
            Some(d) => format!("{}({},{})", r.class.name(), d.i, d.j),
            None => r.class.name().to_string(),
        };
        let mut args = vec![("task".into(), Json::Num(r.task as f64))];
        if let Some(d) = r.data {
            args.push(("i".into(), Json::Num(d.i as f64)));
            args.push(("j".into(), Json::Num(d.j as f64)));
        }
        args.push(("queue_wait_us".into(), Json::Num(r.queue_wait() * 1e6)));
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str(name)),
            ("cat".into(), Json::Str("task".into())),
            ("ph".into(), Json::Str("X".into())),
            ("ts".into(), Json::Num((r.start.max(0.0)) * 1e6)),
            ("dur".into(), Json::Num(r.duration() * 1e6)),
            ("pid".into(), Json::Num(0.0)),
            ("tid".into(), Json::Num(r.proc as f64)),
            ("args".into(), Json::Obj(args)),
        ]));
    }
    let mut evs: Vec<&RunEvent> = run_events.iter().collect();
    evs.sort_by(|a, b| a.at().total_cmp(&b.at()));
    for ev in evs {
        let (name, tid) = match *ev {
            RunEvent::Crash { rank, .. } => ("crash", rank),
            RunEvent::Recovery { failed, .. } => ("recovery", failed),
            RunEvent::CorruptionDetected { rank, .. } => ("corruption_detected", rank),
            RunEvent::Healed { rank, .. } => ("corruption_healed", rank),
        };
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str(name.into())),
            ("cat".into(), Json::Str("event".into())),
            ("ph".into(), Json::Str("i".into())),
            ("s".into(), Json::Str("p".into())),
            ("ts".into(), Json::Num(ev.at().max(0.0) * 1e6)),
            ("pid".into(), Json::Num(0.0)),
            ("tid".into(), Json::Num(tid as f64)),
            ("args".into(), ev.to_json()),
        ]));
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
    .to_string()
}

/// A structured crash/recovery event from a fault-tolerant run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunEvent {
    /// Rank `rank` fail-stopped at virtual time `at`.
    Crash {
        /// The rank that died.
        rank: usize,
        /// Virtual time of the crash, seconds.
        at: f64,
    },
    /// Crash recovery migrated rank `failed`'s work onto `survivor`.
    Recovery {
        /// The dead rank whose work was recovered.
        failed: usize,
        /// The surviving rank that absorbed it.
        survivor: usize,
        /// Virtual time recovery completed, seconds.
        at: f64,
    },
    /// A checksum mismatch was caught on rank `rank` — either a message
    /// payload rejected at delivery or a store tile rejected at a task
    /// read boundary.
    CorruptionDetected {
        /// The rank that detected the mismatch.
        rank: usize,
        /// Tile row index of the affected datum.
        i: usize,
        /// Tile column index of the affected datum.
        j: usize,
        /// Virtual time of detection, seconds.
        at: f64,
    },
    /// Lineage healing restored tile `(i, j)` on rank `rank`: the datum
    /// was rolled back to its checkpoint and its writer chain re-executed
    /// (or, for never-written inputs, restored directly).
    Healed {
        /// The rank holding the healed datum.
        rank: usize,
        /// Tile row index of the healed datum.
        i: usize,
        /// Tile column index of the healed datum.
        j: usize,
        /// Virtual time healing completed, seconds.
        at: f64,
    },
}

impl RunEvent {
    /// Virtual time of the event, seconds.
    pub fn at(&self) -> f64 {
        match *self {
            RunEvent::Crash { at, .. }
            | RunEvent::Recovery { at, .. }
            | RunEvent::CorruptionDetected { at, .. }
            | RunEvent::Healed { at, .. } => at,
        }
    }

    /// JSON form (used by the metrics dump).
    pub fn to_json(&self) -> Json {
        match *self {
            RunEvent::Crash { rank, at } => Json::Obj(vec![
                ("event".into(), Json::Str("crash".into())),
                ("rank".into(), Json::Num(rank as f64)),
                ("at".into(), Json::Num(at)),
            ]),
            RunEvent::Recovery {
                failed,
                survivor,
                at,
            } => Json::Obj(vec![
                ("event".into(), Json::Str("recovery".into())),
                ("failed".into(), Json::Num(failed as f64)),
                ("survivor".into(), Json::Num(survivor as f64)),
                ("at".into(), Json::Num(at)),
            ]),
            RunEvent::CorruptionDetected { rank, i, j, at } => Json::Obj(vec![
                ("event".into(), Json::Str("corruption_detected".into())),
                ("rank".into(), Json::Num(rank as f64)),
                ("i".into(), Json::Num(i as f64)),
                ("j".into(), Json::Num(j as f64)),
                ("at".into(), Json::Num(at)),
            ]),
            RunEvent::Healed { rank, i, j, at } => Json::Obj(vec![
                ("event".into(), Json::Str("healed".into())),
                ("rank".into(), Json::Num(rank as f64)),
                ("i".into(), Json::Num(i as f64)),
                ("j".into(), Json::Num(j as f64)),
                ("at".into(), Json::Num(at)),
            ]),
        }
    }
}

/// Derived metrics of one run (wall-clock or simulated) — the numbers
/// behind the paper's Fig. 11 (per-class breakdown) and Fig. 13
/// (efficiency vs. the critical-path bound), plus the load-balance and
/// communication columns of the distribution comparison.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Label for reports ("lorapo-hybrid", "wall-clock", …).
    pub label: String,
    /// Trace makespan, seconds.
    pub makespan: f64,
    /// Busy seconds per kernel class.
    pub breakdown: ClassBreakdown,
    /// Busy seconds per worker/process.
    pub busy: Vec<f64>,
    /// Idle fraction per worker/process, each in `[0, 1]`.
    pub idle_fraction: Vec<f64>,
    /// `max busy / mean busy` (1.0 = perfect balance).
    pub load_imbalance: f64,
    /// Total ready→start wait, seconds, summed over tasks.
    pub total_queue_wait: f64,
    /// Cross-process payload bytes (0 for shared-memory runs).
    pub comm_bytes: u64,
    /// Cross-process messages (0 for shared-memory runs).
    pub comm_messages: u64,
    /// Critical-path bound, seconds (0 when not computed).
    pub critical_path_seconds: f64,
    /// `critical_path_seconds / makespan` (the §VIII-G efficiency; 0 when
    /// no bound was computed).
    pub efficiency_vs_critical_path: f64,
    /// Merged metrics-registry snapshot (counters, gauges, duration
    /// histograms), when a registry was attached to the run.
    pub registry: Option<RegistrySnapshot>,
}

/// Sanitize a possibly NaN/Inf reading for report output.
fn finite_or_zero(x: f64) -> f64 {
    if x.is_finite() { x } else { 0.0 }
}

impl RunMetrics {
    /// Compute trace-derived metrics; communication and critical-path
    /// fields start at zero and can be filled by the setters.
    pub fn from_trace(label: &str, trace: &Trace, nprocs: usize) -> Self {
        RunMetrics {
            label: label.to_string(),
            makespan: trace.makespan(),
            breakdown: trace.breakdown(),
            busy: trace.busy_per_proc(nprocs),
            idle_fraction: trace.idle_fraction(nprocs),
            load_imbalance: trace.load_imbalance(nprocs),
            total_queue_wait: trace.total_queue_wait(),
            ..RunMetrics::default()
        }
    }

    /// Attach communication totals.
    pub fn with_comm(mut self, bytes: u64, messages: u64) -> Self {
        self.comm_bytes = bytes;
        self.comm_messages = messages;
        self
    }

    /// Attach the critical-path bound and derive efficiency against it.
    ///
    /// Degenerate inputs stay typed-safe: a non-finite or non-positive
    /// bound records as 0 (the "not computed" sentinel), a zero/NaN
    /// makespan yields efficiency 0 instead of dividing, and the
    /// efficiency is clamped to `[0, 1]` so tables never show NaN/Inf.
    pub fn with_critical_path(mut self, cp_seconds: f64) -> Self {
        let cp = if cp_seconds.is_finite() && cp_seconds > 0.0 { cp_seconds } else { 0.0 };
        self.critical_path_seconds = cp;
        self.efficiency_vs_critical_path =
            if cp > 0.0 && self.makespan.is_finite() && self.makespan > 0.0 {
                (cp / self.makespan).clamp(0.0, 1.0)
            } else {
                0.0
            };
        self
    }

    /// Attach a merged registry snapshot (counters, gauges, histograms).
    pub fn with_registry(mut self, snapshot: RegistrySnapshot) -> Self {
        self.registry = Some(snapshot);
        self
    }

    /// Prometheus text-exposition form: the scalar run metrics as gauges
    /// (labelled by run) plus, when present, the attached registry's
    /// counters and histograms.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let label: String = self
            .label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == '-' { c } else { '_' })
            .collect();
        let mut out = String::new();
        let mut gauge = |name: &str, v: f64| {
            let _ = writeln!(out, "# TYPE tlr_{name} gauge");
            let _ = writeln!(out, "tlr_{name}{{run=\"{label}\"}} {}", finite_or_zero(v));
        };
        gauge("run_makespan_seconds", self.makespan);
        gauge("run_queue_wait_seconds", self.total_queue_wait);
        gauge("run_load_imbalance", self.load_imbalance);
        gauge("run_critical_path_seconds", self.critical_path_seconds);
        gauge("run_efficiency_vs_critical_path", self.efficiency_vs_critical_path);
        gauge("run_comm_bytes", self.comm_bytes as f64);
        gauge("run_comm_messages", self.comm_messages as f64);
        let _ = writeln!(out, "# TYPE tlr_run_class_busy_seconds gauge");
        for (name, v) in [
            ("potrf", self.breakdown.potrf),
            ("trsm", self.breakdown.trsm),
            ("syrk", self.breakdown.syrk),
            ("gemm", self.breakdown.gemm),
            ("other", self.breakdown.other),
        ] {
            let _ = writeln!(
                out,
                "tlr_run_class_busy_seconds{{run=\"{label}\",class=\"{name}\"}} {}",
                finite_or_zero(v)
            );
        }
        if let Some(reg) = &self.registry {
            reg.write_prometheus(&mut out);
        }
        out
    }

    /// JSON form of the full metrics record.
    pub fn to_json(&self) -> Json {
        let mut out = Json::Obj(vec![
            ("label".into(), Json::Str(self.label.clone())),
            ("makespan_s".into(), Json::Num(self.makespan)),
            (
                "breakdown_s".into(),
                Json::Obj(vec![
                    ("potrf".into(), Json::Num(self.breakdown.potrf)),
                    ("trsm".into(), Json::Num(self.breakdown.trsm)),
                    ("syrk".into(), Json::Num(self.breakdown.syrk)),
                    ("gemm".into(), Json::Num(self.breakdown.gemm)),
                    ("other".into(), Json::Num(self.breakdown.other)),
                ]),
            ),
            (
                "busy_s".into(),
                Json::Arr(self.busy.iter().map(|&b| Json::Num(b)).collect()),
            ),
            (
                "idle_fraction".into(),
                Json::Arr(self.idle_fraction.iter().map(|&f| Json::Num(f)).collect()),
            ),
            ("load_imbalance".into(), Json::Num(self.load_imbalance)),
            (
                "total_queue_wait_s".into(),
                Json::Num(self.total_queue_wait),
            ),
            ("comm_bytes".into(), Json::Num(self.comm_bytes as f64)),
            ("comm_messages".into(), Json::Num(self.comm_messages as f64)),
            (
                "critical_path_s".into(),
                Json::Num(self.critical_path_seconds),
            ),
            (
                "efficiency_vs_critical_path".into(),
                Json::Num(self.efficiency_vs_critical_path),
            ),
        ]);
        if let Some(reg) = &self.registry {
            out.insert("registry", reg.to_json());
        }
        out
    }

    /// CSV form: a `metric,value` table (one file per run).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        out.push_str(&format!("label,{}\n", self.label));
        out.push_str(&format!("makespan_s,{}\n", self.makespan));
        out.push_str(&format!("potrf_s,{}\n", self.breakdown.potrf));
        out.push_str(&format!("trsm_s,{}\n", self.breakdown.trsm));
        out.push_str(&format!("syrk_s,{}\n", self.breakdown.syrk));
        out.push_str(&format!("gemm_s,{}\n", self.breakdown.gemm));
        out.push_str(&format!("other_s,{}\n", self.breakdown.other));
        for (p, (b, f)) in self.busy.iter().zip(&self.idle_fraction).enumerate() {
            out.push_str(&format!("busy_s_p{p},{b}\n"));
            out.push_str(&format!("idle_fraction_p{p},{f}\n"));
        }
        out.push_str(&format!("load_imbalance,{}\n", self.load_imbalance));
        out.push_str(&format!("total_queue_wait_s,{}\n", self.total_queue_wait));
        out.push_str(&format!("comm_bytes,{}\n", self.comm_bytes));
        out.push_str(&format!("comm_messages,{}\n", self.comm_messages));
        out.push_str(&format!("critical_path_s,{}\n", self.critical_path_seconds));
        out.push_str(&format!(
            "efficiency_vs_critical_path,{}\n",
            self.efficiency_vs_critical_path
        ));
        out
    }

    /// Human-readable one-run report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.label));
        out.push_str(&format!("makespan            {:>12.6} s\n", self.makespan));
        let b = &self.breakdown;
        out.push_str(&format!(
            "busy (P/T/S/G/O)    {:.4} / {:.4} / {:.4} / {:.4} / {:.4} s\n",
            b.potrf, b.trsm, b.syrk, b.gemm, b.other
        ));
        out.push_str(&format!(
            "load imbalance      {:>12.4}\n",
            self.load_imbalance
        ));
        let mean_idle = if self.idle_fraction.is_empty() {
            0.0
        } else {
            self.idle_fraction.iter().sum::<f64>() / self.idle_fraction.len() as f64
        };
        out.push_str(&format!(
            "mean idle fraction  {:>12.4}  (per worker: {})\n",
            mean_idle,
            self.idle_fraction
                .iter()
                .map(|f| format!("{f:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        out.push_str(&format!(
            "queue wait (total)  {:>12.6} s\n",
            self.total_queue_wait
        ));
        if self.comm_messages > 0 {
            out.push_str(&format!(
                "communication       {:>12} msgs, {} bytes\n",
                self.comm_messages, self.comm_bytes
            ));
        }
        if self.critical_path_seconds > 0.0 {
            out.push_str(&format!(
                "critical path       {:>12.6} s  (efficiency {:.3})\n",
                self.critical_path_seconds, self.efficiency_vs_critical_path
            ));
        }
        out
    }

    /// Side-by-side table over several runs (one line per run) — the
    /// Lorapo vs. band vs. diamond comparison of the paper's evaluation.
    /// Degenerate inputs stay typed-safe (satellite of the metrics
    /// registry work): an empty run list renders an explicit "(no runs)"
    /// row and NaN/Inf readings print as 0 rather than leaking into the
    /// table.
    pub fn comparison_table(runs: &[RunMetrics]) -> String {
        let mut out = String::from(
            "plan               makespan_s   imbalance  mean_idle   msgs        bytes        eff_cp\n",
        );
        if runs.is_empty() {
            out.push_str("(no runs)\n");
            return out;
        }
        for m in runs {
            let mean_idle = if m.idle_fraction.is_empty() {
                0.0
            } else {
                m.idle_fraction.iter().sum::<f64>() / m.idle_fraction.len() as f64
            };
            out.push_str(&format!(
                "{:<18} {:>10.6} {:>11.4} {:>10.4} {:>6} {:>12} {:>9.3}\n",
                m.label,
                finite_or_zero(m.makespan),
                finite_or_zero(m.load_imbalance),
                finite_or_zero(mean_idle),
                m.comm_messages,
                m.comm_bytes,
                finite_or_zero(m.efficiency_vs_critical_path),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DataRef, TaskClass};
    use crate::trace::TaskRecord;

    fn sample_trace() -> Trace {
        let mut t = Trace::default();
        t.push_record(TaskRecord {
            task: 0,
            class: TaskClass::Potrf,
            proc: 0,
            data: Some(DataRef { i: 0, j: 0 }),
            queued: 0.0,
            start: 0.0,
            end: 1.0,
        });
        t.push_record(TaskRecord {
            task: 1,
            class: TaskClass::Trsm,
            proc: 1,
            data: Some(DataRef { i: 1, j: 0 }),
            queued: 1.0,
            start: 1.25,
            end: 2.0,
        });
        t
    }

    #[test]
    fn json_round_trip() {
        let v = Json::Obj(vec![
            ("s".into(), Json::Str("a \"b\"\nc".into())),
            ("n".into(), Json::Num(-12.5)),
            (
                "a".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(3.0)]),
            ),
            ("o".into(), Json::Obj(vec![("k".into(), Json::Num(1e-3))])),
        ]);
        let text = v.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
    }

    #[test]
    fn chrome_trace_is_valid_and_sorted() {
        let text = chrome_trace_json(&sample_trace(), "test");
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 metadata + 2 task events
        assert_eq!(events.len(), 3);
        let mut last_ts = f64::NEG_INFINITY;
        for ev in events.iter().skip(1) {
            assert_eq!(ev.get("ph").unwrap().as_str().unwrap(), "X");
            let ts = ev.get("ts").unwrap().as_f64().unwrap();
            let dur = ev.get("dur").unwrap().as_f64().unwrap();
            assert!(ts >= last_ts);
            assert!(dur >= 0.0);
            last_ts = ts;
        }
        // Tile coordinates survive into args.
        let ev = &events[2];
        assert_eq!(ev.get("name").unwrap().as_str().unwrap(), "TRSM(1,0)");
        assert_eq!(
            ev.get("args").unwrap().get("i").unwrap().as_f64().unwrap(),
            1.0
        );
    }

    #[test]
    fn metrics_from_trace() {
        let t = sample_trace();
        let m = RunMetrics::from_trace("unit", &t, 2)
            .with_comm(100, 3)
            .with_critical_path(1.0);
        assert_eq!(m.makespan, 2.0);
        assert!((m.breakdown.total() - 1.75).abs() < 1e-12);
        assert!((m.total_queue_wait - 0.25).abs() < 1e-12);
        assert!((m.efficiency_vs_critical_path - 0.5).abs() < 1e-12);
        for f in &m.idle_fraction {
            assert!((0.0..=1.0).contains(f));
        }
        // JSON and CSV dumps contain the headline numbers.
        let j = m.to_json();
        assert_eq!(j.get("comm_bytes").unwrap().as_f64().unwrap(), 100.0);
        let csv = m.to_csv();
        assert!(csv.contains("makespan_s,2"));
        assert!(csv.contains("idle_fraction_p1,"));
        // And the rendered forms don't panic.
        assert!(m.render().contains("makespan"));
        assert!(RunMetrics::comparison_table(&[m]).contains("unit"));
    }

    #[test]
    fn run_event_json() {
        let e = RunEvent::Recovery {
            failed: 2,
            survivor: 0,
            at: 1.5,
        };
        let j = e.to_json();
        assert_eq!(j.get("event").unwrap().as_str().unwrap(), "recovery");
        assert_eq!(j.get("survivor").unwrap().as_f64().unwrap(), 0.0);

        let d = RunEvent::CorruptionDetected {
            rank: 1,
            i: 3,
            j: 2,
            at: 0.5,
        }
        .to_json();
        assert_eq!(
            d.get("event").unwrap().as_str().unwrap(),
            "corruption_detected"
        );
        assert_eq!(d.get("i").unwrap().as_f64().unwrap(), 3.0);
        let h = RunEvent::Healed {
            rank: 1,
            i: 3,
            j: 2,
            at: 0.75,
        }
        .to_json();
        assert_eq!(h.get("event").unwrap().as_str().unwrap(), "healed");
        assert_eq!(h.get("at").unwrap().as_f64().unwrap(), 0.75);
    }

    #[test]
    fn run_events_export_as_chrome_instants() {
        let events = [
            RunEvent::Healed { rank: 1, i: 0, j: 0, at: 1.75 },
            RunEvent::Crash { rank: 2, at: 0.5 },
            RunEvent::CorruptionDetected { rank: 1, i: 0, j: 0, at: 1.5 },
            RunEvent::Recovery { failed: 2, survivor: 0, at: 0.75 },
        ];
        let text = chrome_trace_json_with_events(&sample_trace(), &events, "test");
        let doc = Json::parse(&text).unwrap();
        let all = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let instants: Vec<&Json> =
            all.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("i")).collect();
        assert_eq!(instants.len(), 4, "one instant per run event");
        // Time-ordered, process-scoped, named by kind, payload in args.
        let names: Vec<&str> =
            instants.iter().map(|e| e.get("name").unwrap().as_str().unwrap()).collect();
        assert_eq!(names, ["crash", "recovery", "corruption_detected", "corruption_healed"]);
        for e in &instants {
            assert_eq!(e.get("s").unwrap().as_str().unwrap(), "p");
            assert!(e.get("args").unwrap().get("event").is_some());
        }
        assert_eq!(instants[3].get("ts").unwrap().as_f64().unwrap(), 1.75e6);
        assert_eq!(instants[0].get("tid").unwrap().as_f64().unwrap(), 2.0);
        // The task spans are unaffected.
        let spans = all.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).count();
        assert_eq!(spans, 2);
    }

    #[test]
    fn critical_path_guards_degenerate_inputs() {
        let m = RunMetrics::from_trace("t", &sample_trace(), 2);
        // Normal case: efficiency in (0, 1].
        let ok = m.clone().with_critical_path(1.0);
        assert!(ok.efficiency_vs_critical_path > 0.0 && ok.efficiency_vs_critical_path <= 1.0);
        // NaN / Inf / negative bounds record as "not computed".
        for bad in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            let g = m.clone().with_critical_path(bad);
            assert_eq!(g.critical_path_seconds, 0.0, "{bad}");
            assert_eq!(g.efficiency_vs_critical_path, 0.0, "{bad}");
        }
        // Zero-makespan run (empty trace): no division, efficiency 0.
        let empty = RunMetrics::from_trace("e", &Trace::default(), 1).with_critical_path(1.0);
        assert_eq!(empty.efficiency_vs_critical_path, 0.0);
        // A bound exceeding the makespan clamps to 1 instead of >1.
        let clamped = m.clone().with_critical_path(1e9);
        assert_eq!(clamped.efficiency_vs_critical_path, 1.0);
    }

    #[test]
    fn comparison_table_guards_empty_and_nonfinite() {
        let empty = RunMetrics::comparison_table(&[]);
        assert!(empty.contains("(no runs)"), "{empty}");
        let poisoned = RunMetrics {
            label: "bad".into(),
            makespan: f64::NAN,
            load_imbalance: f64::INFINITY,
            ..RunMetrics::default()
        };
        let table = RunMetrics::comparison_table(&[poisoned]);
        assert!(!table.contains("NaN") && !table.contains("inf"), "{table}");
    }

    #[test]
    fn registry_snapshot_attaches_to_metrics_and_prometheus() {
        use registry::{Counter, Registry};
        let reg = Registry::new(2);
        reg.add(0, Counter::TasksExecuted, 5);
        reg.record_class_seconds(1, TaskClass::Gemm, 2e-3);
        let m = RunMetrics::from_trace("run a", &sample_trace(), 2).with_registry(reg.snapshot());
        let j = m.to_json();
        let snap_counters = j.get("registry").and_then(|r| r.get("counters"));
        assert!(snap_counters.is_some());
        let prom = m.to_prometheus();
        assert!(prom.contains("tlr_run_makespan_seconds{run=\"run_a\"}"), "{prom}");
        assert!(prom.contains("tlr_tasks_executed_total 5"), "{prom}");
        assert_eq!(m.registry.as_ref().unwrap().counter(Counter::TasksExecuted), 5);
        // Without a registry the field stays out of the JSON.
        let bare = RunMetrics::from_trace("b", &sample_trace(), 2);
        assert!(bare.to_json().get("registry").is_none());
    }
}
