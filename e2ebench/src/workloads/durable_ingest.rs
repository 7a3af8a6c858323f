//! `durable_ingest`: two writer connections against a durable service
//! (group-commit fsync, short checkpoint interval) on a fresh data dir.
//!
//! Ops: sliding-window `ASSERT`/`RETRACT` of `reading('s<k>', 'v<j>')`
//! over 2,000 sensor names and 64 value names, toggles of `link` bridge
//! edges, and `APPLY refresh` (the incremental `linked` closure) every
//! 20th op.  After the timed phase the service is shut down and reopened:
//! `recovery_s` times [`Service::open`], and the recovered state must match
//! the pre-shutdown one byte for byte.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use kbt_obs::Registry;
use kbt_service::checkpoint::{load, newest_checkpoint, CheckpointManager};
use kbt_service::command::{parse_fact_list, split_command};
use kbt_service::net::proto::encode_response;
use kbt_service::wal::{Wal, WalMetrics, WAL_FILE};
use kbt_service::{CommittedState, FsyncPolicy, Response, Service, ServiceConfig, WireResponse};

use crate::report::Report;
use crate::rng::Rng;
use crate::runner::{
    delta, hist_mean, payload, ratio, scrape_metrics, scrape_walstat, secs, status_field, Conn,
    Served,
};
use crate::trace::{Breakdown, Span, Tracer};
use crate::workloads::{
    counter_layers, data_layers, end_to_end, phase, repeated_setup, save_spans, span_layers,
    trace_overhead, Args, ClientState, Tally, UNTRACED_SHARE,
};

pub const SENSORS: usize = 2000;
pub const VALUES: usize = 64;
pub const CLIENTS: usize = 2;
/// Live readings per client before the oldest is retracted.
pub const WINDOW: usize = 32;
/// Every this many ops a client sends `APPLY refresh`.
pub const APPLY_EVERY: u64 = 20;
/// Share of the other ops that toggle a bridge edge.
pub const TOGGLE_SHARE: f64 = 0.1;
pub const LINK_CHAINS: usize = 20;
pub const LINK_LEN: usize = 5;
pub const BRIDGES_PER_CLIENT: usize = 4;
/// Commits between automatic checkpoints.
pub const CHECKPOINT_EVERY: u64 = 250;
const SEED_BATCH: usize = 500;

/// The registered refresh: drop the derived closure, then re-derive it
/// from the current links (incrementally, through the chain session).
pub const REFRESH_RULES: &str = "project[sensor, value, reading, link]; \
     tau[(forall x0 x1. link(x0, x1) -> linked(x0, x1)) & \
     (forall x0 x1 x2. linked(x0, x1) & link(x1, x2) -> linked(x0, x2))]";

/// Answers compared before shutdown and after recovery.
pub const RECOVERY_QUERIES: [&str; 3] = [
    "QUERY CERTAIN reading",
    "QUERY CERTAIN linked",
    "QUERY CERTAIN link",
];

/// The fsync policy of this workload (stated in every report).
pub fn fsync_policy() -> FsyncPolicy {
    FsyncPolicy::group_commit()
}

/// One generated op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestOp {
    Assert(usize, usize),
    Retract(usize, usize),
    /// Bridge index (global) and whether it is asserted.
    Toggle(usize, bool),
    Apply,
}

fn link_node(chain: usize, j: usize) -> String {
    format!("m{}", chain * (LINK_LEN + 1) + j)
}

/// Bridge `b` as `(from, to)` node names: chain tail to another chain's head.
pub fn bridge(b: usize) -> (String, String) {
    (
        link_node(b % LINK_CHAINS, LINK_LEN),
        link_node((b + LINK_CHAINS / 2 + 1) % LINK_CHAINS, 0),
    )
}

/// One client's op stream.
#[derive(Clone, Debug)]
pub struct IngestGen {
    client: usize,
    rng: Rng,
    window: VecDeque<(usize, usize)>,
    live: HashSet<(usize, usize)>,
    toggled: Vec<bool>,
    n: u64,
}

impl IngestGen {
    pub fn new(seed: u64, client: usize) -> IngestGen {
        IngestGen {
            client,
            rng: Rng::new(seed, 100 + client as u64),
            window: VecDeque::new(),
            live: HashSet::new(),
            toggled: vec![false; BRIDGES_PER_CLIENT],
            n: 0,
        }
    }

    pub fn next_op(&mut self) -> IngestOp {
        self.n += 1;
        if self.n.is_multiple_of(APPLY_EVERY) {
            return IngestOp::Apply;
        }
        if self.rng.unit() < TOGGLE_SHARE {
            let i = self.rng.below(BRIDGES_PER_CLIENT);
            self.toggled[i] = !self.toggled[i];
            return IngestOp::Toggle(self.client * BRIDGES_PER_CLIENT + i, self.toggled[i]);
        }
        if self.window.len() >= WINDOW {
            let (k, v) = self.window.pop_front().expect("window is full");
            self.live.remove(&(k, v));
            return IngestOp::Retract(k, v);
        }
        loop {
            let k = self.rng.below(SENSORS / CLIENTS) * CLIENTS + self.client;
            let v = self.rng.below(VALUES);
            if self.live.insert((k, v)) {
                self.window.push_back((k, v));
                return IngestOp::Assert(k, v);
            }
        }
    }

    /// Commands that bring a fresh copy of the seeded KB to this client's
    /// current live state.
    pub fn live_state(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .window
            .iter()
            .map(|&(k, v)| line(IngestOp::Assert(k, v)))
            .collect();
        for (i, &on) in self.toggled.iter().enumerate() {
            out.push(line(IngestOp::Toggle(
                self.client * BRIDGES_PER_CLIENT + i,
                on,
            )));
        }
        out
    }
}

pub fn line(op: IngestOp) -> String {
    match op {
        IngestOp::Assert(k, v) => format!("ASSERT reading('s{k}', 'v{v}')"),
        IngestOp::Retract(k, v) => format!("RETRACT reading('s{k}', 'v{v}')"),
        IngestOp::Toggle(b, on) => {
            let (from, to) = bridge(b);
            let verb = if on { "ASSERT" } else { "RETRACT" };
            format!("{verb} link('{from}', '{to}')")
        }
        IngestOp::Apply => "APPLY refresh".to_string(),
    }
}

/// The set-up script: sensor and value names, the link chains, the
/// `refresh` rules and their committed closure.
pub fn seed_script() -> Vec<String> {
    let batch = |facts: Vec<String>| -> Vec<String> {
        facts
            .chunks(SEED_BATCH)
            .map(|b| format!("ASSERT {}", b.join(", ")))
            .collect()
    };
    let mut script = batch((0..SENSORS).map(|k| format!("sensor('s{k}')")).collect());
    script.extend(batch(
        (0..VALUES).map(|v| format!("value('v{v}')")).collect(),
    ));
    let mut links = Vec::new();
    for c in 0..LINK_CHAINS {
        for j in 0..LINK_LEN {
            links.push(format!(
                "link('{}', '{}')",
                link_node(c, j),
                link_node(c, j + 1)
            ));
        }
    }
    script.extend(batch(links));
    // intern `reading` before the refresh names it
    script.push("ASSERT reading('s0', 'v0')".to_string());
    script.push("RETRACT reading('s0', 'v0')".to_string());
    script.push(format!("DEFINE refresh := {REFRESH_RULES}"));
    script.push("APPLY refresh".to_string());
    script
}

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig::builder()
        .threads(1)
        .durable(dir)
        .fsync_policy(fsync_policy())
        .checkpoint_every_n_commits(CHECKPOINT_EVERY)
        .build()
}

fn seed(service: &Service) {
    for l in seed_script() {
        service.execute(&l).expect("seeding durable_ingest");
    }
}

/// What a traced run replays each op against: an in-memory twin of the
/// service (the commit pipeline without durability) and a side WAL the
/// same record is appended to and synced on.
struct Twin {
    service: Service,
    wal: Wal,
    seq: AtomicU64,
    lock: Mutex<()>,
}

impl Twin {
    fn new(dir: &Path) -> Twin {
        let service = Service::new(ServiceConfig::builder().threads(1).build());
        seed(&service);
        let r = Registry::new();
        let wal = Wal::open(
            dir.join(WAL_FILE),
            fsync_policy(),
            0,
            0,
            WalMetrics {
                records_total: r.counter("side_wal_records"),
                bytes_total: r.counter("side_wal_bytes"),
                fsyncs_total: r.counter("side_wal_fsyncs"),
                batch: r.histogram("side_wal_batch"),
            },
        )
        .expect("opening the side WAL");
        Twin {
            service,
            wal,
            seq: AtomicU64::new(0),
            lock: Mutex::new(()),
        }
    }
}

impl ClientState for Client {
    fn conn(&self) -> &Conn {
        &self.conn
    }
    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

struct Client {
    conn: Conn,
    gen: IngestGen,
    tally: Tally,
    /// Highest epoch acknowledged `durable=true`.
    max_durable: u64,
    /// Bytes of committed command text (each line plus newline).
    command_bytes: u64,
    reused: u64,
    apply_facts: u64,
    failures: Vec<String>,
    tracer: Tracer,
    next_op: u64,
}

fn client_loop(cl: &mut Client, until: Instant, twin: Option<&Twin>) {
    while Instant::now() < until {
        let op = cl.gen.next_op();
        let text = line(op);
        let Some((resp, t0, t1)) = cl.conn.call(&text) else {
            continue;
        };
        let class = if op == IngestOp::Apply {
            "apply"
        } else {
            "commit"
        };
        cl.tally.record(class, t0, t1);
        cl.command_bytes += text.len() as u64 + 1;
        match (status_field(&resp.status, "durable"), resp.epoch()) {
            (Some("true"), Some(epoch)) => cl.max_durable = cl.max_durable.max(epoch),
            _ => cl.failures.push(format!(
                "{text:?} was not acknowledged durable under group commit: {}",
                resp.status
            )),
        }
        if op == IngestOp::Apply {
            let field = |k| status_field(&resp.status, k).and_then(|v| v.parse::<u64>().ok());
            cl.reused += field("reused").unwrap_or(0);
            cl.apply_facts += field("facts").unwrap_or(0);
        }
        if let Some(twin) = twin {
            let op_id = cl.next_op;
            cl.next_op += 1;
            let root = cl
                .tracer
                .record(op_id, class, "client.roundtrip", None, t0, t1);
            replay(cl, twin, op_id, root, class, op, &text);
        }
    }
}

/// Times the layers of a commit by replaying it (see `trace`).
fn replay(
    cl: &mut Client,
    twin: &Twin,
    op_id: u64,
    root: usize,
    class: &'static str,
    op: IngestOp,
    text: &str,
) {
    let _serial = twin.lock.lock().expect("replay lock");
    let tr = &mut cl.tracer;
    let (resp, ex) = tr.time(op_id, class, "service.execute", Some(root), || {
        twin.service.execute(text)
    });
    let Ok(resp) = resp else {
        cl.failures.push(format!("twin refused {text:?}"));
        return;
    };
    if op != IngestOp::Apply {
        let (_, rest) = split_command(text).expect("generated commands parse");
        let snap = twin.service.snapshot();
        let (mut vocab, _) = tr.time(op_id, class, "data.vocab_clone", Some(ex), || {
            snap.vocab().clone()
        });
        let _ = tr.time(op_id, class, "command.parse", Some(ex), || {
            parse_fact_list(rest, &mut vocab)
        });
    }
    let seq = twin.seq.fetch_add(1, Ordering::SeqCst) + 1;
    let (appended, _) = tr.time(op_id, class, "wal.append", Some(root), || {
        twin.wal.append(seq, text)
    });
    let (synced, _) = tr.time(op_id, class, "wal.sync", Some(root), || twin.wal.sync(seq));
    if appended.is_err() || synced.is_err() {
        cl.failures.push(format!("side WAL refused {text:?}"));
    }
    tr.time(op_id, class, "net.encode", Some(root), || {
        encode_response(&resp, Some("t1"))
    });
}

struct Fixture {
    dir: PathBuf,
    served: Served,
    conns: Vec<Conn>,
}

fn setup(dir: PathBuf) -> Fixture {
    let _ = std::fs::remove_dir_all(&dir);
    let service = Service::open(config(&dir)).expect("opening the data dir");
    seed(&service);
    let served = Served::start(service).expect("starting the server");
    let conns = (0..CLIENTS)
        .map(|_| Conn::connect(served.addr).expect("connecting a client"))
        .collect();
    Fixture { dir, served, conns }
}

fn teardown(fx: Fixture) {
    drop(fx.conns);
    drop(fx.served.stop());
    let _ = std::fs::remove_dir_all(&fx.dir);
}

/// The parts of a `STATS` response that describe persistent state.  The
/// session and query counters start over in a new process, and the
/// fixpoint work counters (rounds, reused, rederived) depend on whether an
/// incremental chain session survived, which a restart resets.
pub fn persistent_stats(lines: &[String]) -> Vec<String> {
    let cut = |l: &str, marker: &str| l.find(marker).map_or(l.to_string(), |i| l[..i].to_string());
    lines
        .iter()
        .filter(|l| !l.starts_with("sessions:") && !l.starts_with("held epochs:"))
        .map(|l| cut(&cut(l, " | queries"), " update(s),"))
        .collect()
}

/// Data lines and epoch of an in-process response, as the wire sends them.
fn encoded(resp: &Response) -> (Vec<String>, Option<u64>) {
    let (data, status) = encode_response(resp, None);
    let wire = WireResponse { data, status };
    let epoch = wire.epoch();
    (payload(&wire).map(str::to_string).collect(), epoch)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let base = args.out_dir.join("durable");
    // a run that was killed may have left its data dir behind
    let _ = std::fs::remove_dir_all(&base);
    let (fx, setups) = repeated_setup(|i| setup(base.join(format!("data{i}"))), teardown);
    let Fixture { dir, served, conns } = fx;
    let policy = fsync_policy();
    report.line(format!(
        "fsync policy     {} ({policy:?}), checkpoint every {CHECKPOINT_EVERY} commits",
        policy.name()
    ));
    let mut clients: Vec<Client> = conns
        .into_iter()
        .enumerate()
        .map(|(idx, conn)| Client {
            conn,
            gen: IngestGen::new(args.seed, idx),
            tally: Tally::default(),
            max_durable: 0,
            command_bytes: 0,
            reused: 0,
            apply_facts: 0,
            failures: Vec::new(),
            tracer: Tracer::new(Instant::now()),
            next_op: 0,
        })
        .collect();
    let sum = |clients: &[Client], f: fn(&Client) -> u64| -> u64 { clients.iter().map(f).sum() };

    let mut control = Conn::connect(served.addr).expect("control connection");
    let wal_before = scrape_walstat(&mut control);
    let before = scrape_metrics(&mut control);
    let untraced_seconds = if args.trace {
        args.seconds * UNTRACED_SHARE
    } else {
        args.seconds
    };
    let untraced = phase(&mut clients, untraced_seconds, |cl, until| {
        client_loop(cl, until, None)
    });
    let after = scrape_metrics(&mut control);
    let wal_after = scrape_walstat(&mut control);
    let checkpoints = delta(&before, &after, "kbt_service_checkpoints_total");
    let newest = newest_checkpoint(&dir).ok().flatten();
    let checkpoint_bytes = newest.as_ref().map_or(0, |(_, p)| file_len(p));
    let wal_bytes = delta(&wal_before, &wal_after, "bytes");
    let command_bytes = sum(&clients, |c| c.command_bytes) as f64;
    let write_amp = ratio(
        wal_bytes + checkpoints * checkpoint_bytes as f64,
        command_bytes,
    );

    if !args.trace {
        end_to_end(&mut report, &untraced, &setups);
    } else {
        let commits = delta(&before, &after, "kbt_service_commits_total");
        counter_layers(&mut report, &before, &after, untraced.attempted as f64);
        report.set(
            "net.response_bytes",
            ratio(untraced.response_bytes as f64, untraced.attempted as f64),
        );
        report.set(
            "wal.fsyncs_per_commit",
            ratio(delta(&wal_before, &wal_after, "fsyncs"), commits),
        );
        report.set(
            "wal.group_batch_mean",
            hist_mean(&before, &after, "kbt_service_group_commit_batch"),
        );
        report.set("wal.bytes_per_commit", ratio(wal_bytes, commits));
        report.set("checkpoint.count", checkpoints);
        report.set(
            "engine.reuse_ratio",
            ratio(
                sum(&clients, |c| c.reused) as f64,
                sum(&clients, |c| c.apply_facts) as f64,
            ),
        );
        let side = base.join("side");
        let _ = std::fs::remove_dir_all(&side);
        std::fs::create_dir_all(&side).expect("creating the side dir");
        let twin = Twin::new(&side);
        for cl in &clients {
            for l in cl.gen.live_state() {
                twin.service.execute(&l).expect("syncing the twin");
            }
        }
        twin.service
            .execute("APPLY refresh")
            .expect("syncing the twin");
        let traced = phase(
            &mut clients,
            args.seconds - untraced_seconds,
            |cl, until| client_loop(cl, until, Some(&twin)),
        );
        trace_overhead(&mut report, untraced.ops_per_s(), traced.ops_per_s());
        let mut b = Breakdown::default();
        let mut spans: Vec<Vec<Span>> = Vec::new();
        for cl in &mut clients {
            b.absorb(&cl.tracer.spans);
            spans.push(std::mem::take(&mut cl.tracer.spans));
        }
        span_layers(&mut report, &b, 0);
        report.set("wal.append_us", b.mean_us("wal.append"));
        report.set("wal.sync_us", b.mean_us("wal.sync"));
        // checkpoint write cost, timed on a side manager over the served state
        let snap = served.service.snapshot();
        let state = CommittedState {
            kb: snap.kb().clone(),
            vocab: Arc::new(snap.vocab().clone()),
            transforms: Arc::new(snap.transforms().clone()),
            stats: *snap.stats(),
        };
        let manager = CheckpointManager::new(
            side.clone(),
            0,
            0,
            Registry::new().counter("side_checkpoints"),
        );
        let start = Instant::now();
        match manager.write_now(snap.epoch().get(), &state) {
            Ok(name) => {
                report.set("checkpoint.write_ms", secs(start) * 1e3);
                report.set("checkpoint.bytes", file_len(&side.join(name)) as f64);
            }
            Err(e) => report.check_failed(format!("side checkpoint failed: {e}")),
        }
        save_spans(&mut report, args, &spans);
        report.attempted += untraced.attempted + traced.attempted;
        report.failed += untraced.failed + traced.failed;
    }
    report.line(format!(
        "write_amp        {write_amp:.3} ({wal_bytes} WAL bytes + {checkpoints} checkpoint(s) x {checkpoint_bytes} bytes per {command_bytes} command bytes)"
    ));
    data_layers(&mut report, &served.service.snapshot());

    // Pre-shutdown state, as a client sees it.
    let mut pre: BTreeMap<&str, (Vec<String>, Option<u64>)> = BTreeMap::new();
    for q in RECOVERY_QUERIES.iter().copied().chain(["STATS"]) {
        match control.call(q) {
            Some((resp, _, _)) => {
                pre.insert(
                    q,
                    (payload(&resp).map(str::to_string).collect(), resp.epoch()),
                );
            }
            None => report.check_failed(format!("{q:?} failed before shutdown")),
        }
    }
    drop(control);
    let max_durable = clients.iter().map(|c| c.max_durable).max().unwrap_or(0);
    for cl in &clients {
        for f in &cl.failures {
            report.check_failed(f.clone());
        }
    }
    // closing the clients first lets the sessions end without a poll tick
    drop(clients);
    drop(served.stop());

    recover(&mut report, &dir, &pre, max_durable);
    let _ = std::fs::remove_dir_all(&base);
    report
}

/// Reopens the data dir, timing the recovery layers, and checks the
/// recovered state against the pre-shutdown one.
fn recover(
    report: &mut Report,
    dir: &Path,
    pre: &BTreeMap<&str, (Vec<String>, Option<u64>)>,
    max_durable: u64,
) {
    let start = Instant::now();
    let scan = Wal::scan(&dir.join(WAL_FILE));
    let scan_ms = secs(start) * 1e3;
    let start = Instant::now();
    let loaded = newest_checkpoint(dir).map(|c| c.map(|(_, p)| load(&p)));
    let load_ms = secs(start) * 1e3;
    if scan.is_err() || matches!(loaded, Err(_) | Ok(Some(Err(_)))) {
        report.check_failed("the WAL or the newest checkpoint does not read back");
    }
    let start = Instant::now();
    let reopened = Service::open(config(dir));
    let recovery_s = secs(start);
    let service = match reopened {
        Ok(s) => s,
        Err(e) => {
            report.check_failed(format!("recovery refused the data dir: {e}"));
            return;
        }
    };
    let replayed = match service.execute("METRICS") {
        Ok(Response::Metrics { text, .. }) => text
            .lines()
            .find_map(|l| l.strip_prefix("kbt_service_recovery_replayed_total "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0),
        _ => 0.0,
    };
    report.set("recover.scan_ms", scan_ms);
    report.set("recover.checkpoint_load_ms", load_ms);
    report.set("recover.replayed_records", replayed);
    report.set(
        "recover.replay_ms",
        (recovery_s * 1e3 - scan_ms - load_ms).max(0.0),
    );
    report.line(format!(
        "recovery_s       {recovery_s:.4} s (n=1; WAL scan {scan_ms:.2} ms, checkpoint load {load_ms:.2} ms, {replayed} records replayed)"
    ));
    let epoch = service.epoch().get();
    if max_durable > epoch {
        report.check_failed(format!(
            "epoch {max_durable} was acknowledged durable but recovery reached only {epoch}"
        ));
    }
    for (q, (want, want_epoch)) in pre {
        let got = match service.execute(q) {
            Ok(resp) => encoded(&resp),
            Err(e) => {
                report.check_failed(format!("{q:?} failed after recovery: {e}"));
                continue;
            }
        };
        let (got_lines, want_lines) = if *q == "STATS" {
            (persistent_stats(&got.0), persistent_stats(want))
        } else {
            (got.0.clone(), want.clone())
        };
        if got_lines != want_lines || got.1 != *want_epoch {
            let first = got_lines
                .iter()
                .zip(&want_lines)
                .find(|(g, w)| g != w)
                .map(|(g, w)| format!("; first difference {g:?} vs {w:?}"))
                .unwrap_or_default();
            report.check_failed(format!(
                "{q:?} after recovery differs: epoch {:?} vs {want_epoch:?}, {} vs {} lines{first}",
                got.1,
                got_lines.len(),
                want_lines.len()
            ));
        }
    }
    report.line(format!(
        "checks           recovered epoch {epoch} (highest durable ack {max_durable}); STATS and {} queries compared",
        RECOVERY_QUERIES.len()
    ));
}
