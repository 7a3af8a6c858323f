//! The run's result: human-readable report lines, then one JSON object as
//! the last line of standard output.

use std::collections::BTreeMap;

use crate::hist::Hist;

/// End-to-end metrics printed (and gated) on every workload, untraced.
/// The timings are normalized to the reference kernel's nominal speed
/// (see [`crate::calib`]).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("norm_ops_per_s", "ops/s"),
    ("norm_op_p50_us", "us"),
    ("norm_op_p90_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics printed by the traced run, on every workload (0 where
/// the layer does no work).
pub const PER_LAYER: [(&str, &str); 50] = [
    ("net.overhead_us", "us"),
    ("net.encode_us", "us"),
    ("net.response_bytes", "bytes"),
    ("command.parse_us", "us"),
    ("command.render_us", "us"),
    ("command.render_ns_per_fact", "ns"),
    ("data.vocab_clone_us", "us"),
    ("data.vocab_constants", "count"),
    ("data.kb_facts", "count"),
    ("data.kb_worlds", "count"),
    ("service.snapshot_ns", "ns"),
    ("service.fold_us", "us"),
    ("service.execute_us.tabled", "us"),
    ("service.execute_us.magic", "us"),
    ("service.execute_us.scan", "us"),
    ("service.execute_us.commit", "us"),
    ("service.execute_us.apply", "us"),
    ("service.execute_us.hypothetical", "us"),
    ("service.commit_parse_us", "us"),
    ("service.commit_apply_us", "us"),
    ("service.commit_publish_us", "us"),
    ("table.hit_ratio", "ratio"),
    ("table.evictions_per_commit", "ratio"),
    ("engine.rounds_per_op", "count"),
    ("engine.derived_per_op", "count"),
    ("engine.probes_per_op", "count"),
    ("engine.scanned_per_op", "count"),
    ("engine.reuse_ratio", "ratio"),
    ("core.apply_us", "us"),
    ("core.update_us.datalog", "us"),
    ("core.update_us.quantifier_free", "us"),
    ("core.update_us.grounding", "us"),
    ("core.candidate_atoms", "count"),
    ("core.worlds_out", "count"),
    ("par.scopes_per_op", "count"),
    ("par.contended_share", "ratio"),
    ("wal.fsyncs_per_commit", "ratio"),
    ("wal.group_batch_mean", "count"),
    ("wal.bytes_per_commit", "bytes"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("checkpoint.count", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.write_ms", "ms"),
    ("recover.scan_ms", "ms"),
    ("recover.checkpoint_load_ms", "ms"),
    ("recover.replayed_records", "count"),
    ("recover.replay_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("unattributed_us", "us"),
];

/// Failed checks described in the report; the rest are only counted.
pub const MAX_LISTED_FAILURES: usize = 20;

/// What one run found.
#[derive(Debug, Default)]
pub struct Report {
    pub lines: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks (0 when every answer was right).
    pub failed_checks: u64,
    /// The first [`MAX_LISTED_FAILURES`] failed checks, described.
    pub check_failures: Vec<String>,
}

impl Report {
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed output check (the run is then not correct).
    pub fn check_failed(&mut self, what: impl Into<String>) {
        self.failed_checks += 1;
        if self.check_failures.len() < MAX_LISTED_FAILURES {
            self.check_failures.push(what.into());
        }
    }

    /// A latency line: median and p99 with the sample count, plus the
    /// highest percentile the sample supports.
    pub fn latency(&mut self, name: &str, h: &Hist) {
        let tail = match h.tail_us() {
            Some((p, v, beyond)) => format!("p{p}={v:.1} ({beyond} beyond)"),
            None => "no percentile has 10 samples beyond".to_string(),
        };
        self.line(format!(
            "{name:<16} p50={:.1} us  p99={:.1} us  mean={:.1} us  n={}  tail: {tail}",
            h.percentile_us(50.0),
            h.percentile_us(99.0),
            h.mean_us(),
            h.count()
        ));
    }

    /// Prints the report lines and, last, the JSON result with the metrics
    /// of `names` (missing ones as 0).
    pub fn print(&self, names: &[(&str, &str)]) {
        for l in &self.lines {
            println!("{l}");
        }
        for f in &self.check_failures {
            println!("CHECK FAILED: {f}");
        }
        if self.failed_checks > 0 {
            println!("{} output check(s) failed", self.failed_checks);
        }
        for (name, unit) in names {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            println!("metric {name} = {v} {unit}");
        }
        println!("{}", self.json(names));
    }

    pub fn json(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed_checks == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
