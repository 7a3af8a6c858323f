//! The three workloads and what they share: command-line arguments,
//! per-client tallies, repeated set-up, and the metrics every workload
//! derives from its tallies, scrapes and spans.

pub mod durable_ingest;
pub mod what_if;
pub mod wire_read;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use kbt_service::Snapshot;

use crate::calib;
use crate::hist::Hist;
use crate::report::Report;
use crate::runner::{delta, hist_mean, peak_rss_mb, ratio, secs, Conn};
use crate::stats::median;
use crate::trace::{write_spans, Breakdown, Span};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 101;

/// Seconds one slice of a timed phase lasts.  Between two slices every
/// client is idle while the reference kernel of [`crate::calib`] is timed,
/// which gives each slice the host's speed factor.
pub const SLICE_SECONDS: f64 = 0.5;

/// Share of a traced run's seconds spent untraced (the rest is traced).
pub const UNTRACED_SHARE: f64 = 0.5;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where data directories and span files go (inside the checkout).
    pub out_dir: PathBuf,
}

/// What one client thread saw, or a whole phase once merged.  Its memory
/// does not grow with the number of ops (see [`Hist`]).
#[derive(Debug, Default)]
pub struct Tally {
    /// Client-observed latency of each `OK` op, by op class.
    pub lat: BTreeMap<&'static str, Hist>,
    /// Latency of every `OK` op of the current slice.
    pub slice: Hist,
    /// Latency of every `OK` op times its slice's speed factor.
    pub norm: Hist,
    /// Wall seconds of the timed slices.
    pub seconds: f64,
    /// Seconds of each slice times its speed factor, summed.
    pub norm_seconds: f64,
    /// The reference kernel's time before the first slice and after each.
    pub probes: Vec<f64>,
    /// Ops completed in each slice.
    pub slice_ops: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub response_bytes: u64,
    pub first_error: Option<String>,
}

impl Tally {
    pub fn record(&mut self, class: &'static str, start: Instant, end: Instant) {
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.lat.entry(class).or_default().record_ns(ns);
        self.slice.record_ns(ns);
    }

    /// Adds what `conn` counted since `mark` (a previous snapshot of it).
    pub fn absorb_conn(&mut self, conn: &Conn, mark: (u64, u64, u64)) {
        self.attempted += conn.attempted - mark.0;
        self.failed += conn.failed - mark.1;
        self.response_bytes += conn.response_bytes - mark.2;
        if self.first_error.is_none() {
            self.first_error = conn.first_error.clone();
        }
    }

    /// Adds another client's tally of the same slice, its latencies
    /// scaled by the slice's speed factor.
    fn merge_slice(&mut self, other: &Tally, factor: f64) {
        for (class, h) in &other.lat {
            self.lat.entry(class).or_default().merge(h);
        }
        self.norm.merge_scaled(&other.slice, factor);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.response_bytes += other.response_bytes;
        if self.first_error.is_none() {
            self.first_error = other.first_error.clone();
        }
    }

    /// Latencies of every class whose name starts with `prefix`.
    pub fn class(&self, prefix: &str) -> Hist {
        let mut out = Hist::default();
        for (_, h) in self.lat.iter().filter(|(c, _)| c.starts_with(prefix)) {
            out.merge(h);
        }
        out
    }

    pub fn completed(&self) -> u64 {
        self.lat.values().map(Hist::count).sum()
    }

    /// Completed ops per wall second.
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.completed() as f64, self.seconds)
    }
}

/// A counter snapshot of one connection: `(attempted, failed, bytes)`.
pub fn mark(conn: &Conn) -> (u64, u64, u64) {
    (conn.attempted, conn.failed, conn.response_bytes)
}

/// What [`phase`] needs of a client thread's state.
pub trait ClientState: Send {
    fn conn(&self) -> &Conn;
    fn tally(&mut self) -> &mut Tally;
}

/// Runs `body(client, deadline)` for every client on its own thread for
/// `seconds`, cut into slices of about [`SLICE_SECONDS`].  The reference
/// kernel is timed before the first slice and after each, with every
/// client idle; a slice's speed factor is [`calib::NOMINAL_S`] over the
/// mean of the kernel times around it.  Returns the merged tally.
pub fn phase<C: ClientState>(
    clients: &mut [C],
    seconds: f64,
    body: impl Fn(&mut C, Instant) + Sync,
) -> Tally {
    let slices = ((seconds / SLICE_SECONDS).round() as usize).max(1);
    let width = Duration::from_secs_f64(seconds / slices as f64);
    let mut all = Tally::default();
    all.probes.push(calib::probe());
    for _ in 0..slices {
        let start = Instant::now();
        let until = start + width;
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|cl| {
                    let body = &body;
                    let m = mark(cl.conn());
                    scope.spawn(move || {
                        *cl.tally() = Tally::default();
                        body(cl, until);
                        let mut t = std::mem::take(cl.tally());
                        t.absorb_conn(cl.conn(), m);
                        t
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let took = secs(start);
        let before = *all.probes.last().expect("probed before the first slice");
        let after = calib::probe();
        all.probes.push(after);
        let factor = calib::NOMINAL_S / ((before + after) / 2.0);
        for t in &tallies {
            all.merge_slice(t, factor);
        }
        all.slice_ops
            .push(tallies.iter().map(|t| t.slice.count()).sum());
        all.seconds += took;
        all.norm_seconds += took * factor;
    }
    all
}

/// The set-ups of one run: each one's wall seconds and the speed factor
/// of the reference kernel timed right before it.
#[derive(Debug, Default)]
pub struct Setups {
    pub seconds: Vec<f64>,
    pub factors: Vec<f64>,
}

impl Setups {
    /// Median of the set-up times, each times its speed factor.
    pub fn normalized(&self) -> f64 {
        let v: Vec<f64> = self
            .seconds
            .iter()
            .zip(&self.factors)
            .map(|(s, f)| s * f)
            .collect();
        median(&v)
    }
}

/// Runs `setup` [`SETUPS`] times, each right after a probe of the
/// reference kernel, tearing each fixture but the last down outside the
/// timing (so at most one is alive); returns the last with the times.
pub fn repeated_setup<T>(
    mut setup: impl FnMut(usize) -> T,
    mut teardown: impl FnMut(T),
) -> (T, Setups) {
    let mut out = Setups::default();
    let mut timed = |i: usize, out: &mut Setups| {
        out.factors.push(calib::NOMINAL_S / calib::probe());
        let start = Instant::now();
        let fixture = setup(i);
        out.seconds.push(start.elapsed().as_secs_f64());
        fixture
    };
    for i in 0..SETUPS - 1 {
        let fixture = timed(i, &mut out);
        teardown(fixture);
    }
    let fixture = timed(SETUPS - 1, &mut out);
    (fixture, out)
}

/// The end-to-end metrics every workload reports from its merged tally.
/// `norm_ops_per_s`, `norm_op_p50_us` and `norm_op_p90_us` cover every op
/// of the phase, each slice's scaled by its speed factor, and `setup_s` is
/// the median of the set-ups scaled the same way; the report lines give
/// the wall figures beside them.
pub fn end_to_end(report: &mut Report, tally: &Tally, setups: &Setups) {
    let all = tally.class("");
    let setup = setups.normalized();
    let ops = ratio(tally.norm.count() as f64, tally.norm_seconds);
    let (p50, p90) = (
        tally.norm.percentile_us(50.0),
        tally.norm.percentile_us(90.0),
    );
    report.set("setup_s", setup);
    report.set("norm_ops_per_s", ops);
    report.set("norm_op_p50_us", p50);
    report.set("norm_op_p90_us", p90);
    report.set("peak_rss_mb", peak_rss_mb());
    report.attempted += tally.attempted;
    report.failed += tally.failed;
    report.line(format!(
        "setup_s          normalized median={setup:.5} s, wall median={:.5} s, over {} set-ups {:?}",
        median(&setups.seconds),
        setups.seconds.len(),
        setups.seconds.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()
    ));
    report.line(format!(
        "wall             ops/s={:.1} p50={:.1} us p90={:.1} us ({} ok ops in {:.2} s)",
        tally.ops_per_s(),
        all.percentile_us(50.0),
        all.percentile_us(90.0),
        tally.completed(),
        tally.seconds
    ));
    report.line(format!(
        "normalized       ops/s={ops:.1} p50={p50:.1} us p90={p90:.1} us (n={}, {:.2} normalized s)",
        tally.norm.count(),
        tally.norm_seconds
    ));
    let probes_ms: Vec<f64> = tally.probes.iter().map(|p| p * 1e3).collect();
    let mut sorted = probes_ms.clone();
    sorted.sort_by(f64::total_cmp);
    report.line(format!(
        "reference kernel nominal {:.3} ms; {} probes: min {:.3} median {:.3} max {:.3} ms",
        calib::NOMINAL_S * 1e3,
        sorted.len(),
        sorted[0],
        median(&sorted),
        sorted[sorted.len() - 1]
    ));
    report.line(format!(
        "slice ops        {}",
        tally
            .slice_ops
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.latency("op", &all);
    for (group, prefix) in [("query", "query"), ("commit", "commit"), ("apply", "apply")] {
        let h = tally.class(prefix);
        if h.count() > 0 {
            report.latency(group, &h);
        }
    }
    for (class, h) in &tally.lat {
        report.line(format!("  class {class:<20} n={}", h.count()));
    }
    report.line(format!(
        "failed_ratio     {} ({} failed / {} attempted)",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    ));
    if let Some(e) = &tally.first_error {
        report.line(format!("first failure: {e}"));
    }
    report.line(format!("peak_rss_mb      {:.1} MiB", peak_rss_mb()));
}

/// Per-layer metrics read from counter scrapes around the untraced phase
/// of a traced run (`ops` = ops attempted in it).
pub fn counter_layers(
    report: &mut Report,
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    ops: f64,
) {
    let d = |name: &str| delta(before, after, name);
    report.set(
        "service.commit_parse_us",
        hist_mean(before, after, "kbt_service_commit_parse_ns") / 1e3,
    );
    report.set(
        "service.commit_apply_us",
        hist_mean(before, after, "kbt_service_commit_apply_ns") / 1e3,
    );
    report.set(
        "service.commit_publish_us",
        hist_mean(before, after, "kbt_service_commit_publish_ns") / 1e3,
    );
    let tabled = d("kbt_service_queries_tabled_total");
    let goals =
        tabled + d("kbt_service_queries_magic_total") + d("kbt_service_queries_materialize_total");
    report.set("table.hit_ratio", ratio(tabled, goals));
    report.set(
        "table.evictions_per_commit",
        ratio(
            d("kbt_engine_table_evictions"),
            d("kbt_service_commits_total"),
        ),
    );
    report.set(
        "engine.rounds_per_op",
        ratio(d("kbt_engine_rounds_total"), ops),
    );
    report.set(
        "engine.derived_per_op",
        ratio(d("kbt_engine_derived_facts_total"), ops),
    );
    report.set(
        "engine.probes_per_op",
        ratio(d("kbt_engine_index_probes_total"), ops),
    );
    report.set(
        "engine.scanned_per_op",
        ratio(d("kbt_engine_tuples_scanned_total"), ops),
    );
    let scopes = d("kbt_par_scopes_total");
    report.set("par.scopes_per_op", ratio(scopes, ops));
    report.set(
        "par.contended_share",
        ratio(d("kbt_par_contended_scopes_total"), scopes),
    );
}

/// Per-layer metrics read from the traced phase's spans.
pub fn span_layers(report: &mut Report, b: &Breakdown, rendered_facts: u64) {
    // a durable commit's round trip also waits for its WAL append and
    // fsync, which the side WAL times (both 0 where there is no WAL)
    report.set(
        "net.overhead_us",
        b.mean_us("client.roundtrip")
            - b.mean_us("service.execute")
            - b.mean_us("wal.append")
            - b.mean_us("wal.sync"),
    );
    report.set("net.encode_us", b.mean_us("net.encode"));
    report.set("command.parse_us", b.mean_us("command.parse"));
    report.set("command.render_us", b.mean_us("command.render"));
    report.set(
        "command.render_ns_per_fact",
        ratio(b.total_ns("command.render") as f64, rendered_facts as f64),
    );
    report.set("data.vocab_clone_us", b.mean_us("data.vocab_clone"));
    report.set("service.snapshot_ns", b.mean_us("service.snapshot") * 1e3);
    report.set("service.fold_us", b.mean_us("service.fold"));
    for (metric, class) in [
        ("service.execute_us.tabled", "query.tabled"),
        ("service.execute_us.magic", "query.magic"),
        ("service.execute_us.scan", "query.scan"),
        ("service.execute_us.commit", "commit"),
        ("service.execute_us.apply", "apply"),
        ("service.execute_us.hypothetical", "query.hypothetical"),
    ] {
        report.set(
            metric,
            b.mean_us_where(|c, n| n == "service.execute" && c == class),
        );
    }
    report.set("unattributed_us", b.unattributed_us("client.roundtrip"));
    for (class, ops, rows) in b.attribution() {
        let total: f64 = rows.iter().map(|(_, v)| v).sum();
        let parts: Vec<String> = rows
            .iter()
            .map(|(name, v)| {
                let name = if *name == "client.roundtrip" {
                    "unattributed"
                } else {
                    name
                };
                format!("{name}={v:.2}")
            })
            .collect();
        report.line(format!(
            "attribution {class} (n={ops}, mean round trip {total:.2} us, self times in us): {}",
            parts.join(" ")
        ));
    }
}

/// `obs.trace_overhead`: how much faster the untraced phase ran than the
/// traced one (`rate_untraced / rate_traced - 1`).
pub fn trace_overhead(report: &mut Report, untraced_rate: f64, traced_rate: f64) {
    report.set(
        "obs.trace_overhead",
        ratio(untraced_rate, traced_rate) - 1.0,
    );
    report.line(format!(
        "trace overhead   untraced {untraced_rate:.1} ops/s vs traced {traced_rate:.1} ops/s"
    ));
}

/// Sizes of the data layer at the end of the run.
pub fn data_layers(report: &mut Report, snap: &Snapshot) {
    report.set("data.vocab_constants", snap.vocab().constant_count() as f64);
    report.set(
        "data.kb_facts",
        snap.kb().iter().map(|db| db.fact_count()).sum::<usize>() as f64,
    );
    report.set("data.kb_worlds", snap.kb().len() as f64);
}

/// Writes the traced run's spans to `<out>/spans-<workload>.tsv`.
pub fn save_spans(report: &mut Report, args: &Args, tracers: &[Vec<Span>]) {
    let path = args.out_dir.join(format!("spans-{}.tsv", args.workload));
    match write_spans(&path, tracers) {
        Ok(()) => report.line(format!("spans written to {}", path.display())),
        Err(e) => report.line(format!("spans not written: {e}")),
    }
}
