//! `wire_read`: bound point goals, bare scans and rare edge toggles over
//! TCP against an in-memory service at eval width 1.
//!
//! KB: 200 ten-edge chains over 2,200 named constants, the committed
//! `reach` closure (11,000 facts) and a 200-fact `tag` relation.  Two
//! reader connections run a closed loop of ~89% `QUERY CERTAIN
//! reach('n<head>', x)` with Zipf-skewed heads, ~10% `QUERY CERTAIN tag`,
//! and ~1% `ASSERT`/`RETRACT` toggles of one bridge edge per client (each
//! evicting the per-epoch table).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use kbt_data::{Const, RelId};
use kbt_service::command::{parse_fact_list, parse_query, render_fact, split_command};
use kbt_service::net::proto::encode_response;
use kbt_service::{Service, ServiceConfig};

use crate::check::{check_goals, digest, node, Digest, GoalRecord, ReachModel, ToggleLog};
use crate::report::Report;
use crate::rng::{Rng, Zipf};
use crate::runner::{payload, scrape_metrics, status_field, Conn, Served};
use crate::trace::{Breakdown, Span, Tracer};
use crate::workloads::{
    counter_layers, data_layers, end_to_end, phase, repeated_setup, save_spans, span_layers,
    trace_overhead, Args, ClientState, Tally, UNTRACED_SHARE,
};

pub const CHAINS: usize = 200;
pub const CHAIN_LEN: usize = 10;
pub const CLIENTS: usize = 2;
pub const SCAN_SHARE: f64 = 0.10;
pub const TOGGLE_SHARE: f64 = 0.01;
pub const ZIPF_S: f64 = 1.3;
/// Facts per seeding `ASSERT`.
const SEED_BATCH: usize = 500;

pub const REACH_RULES: &str = "tau[(forall x0 x1. edge(x0, x1) -> reach(x0, x1)) & \
     (forall x0 x1 x2. reach(x0, x1) & edge(x1, x2) -> reach(x0, x2))]";

/// One generated op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadOp {
    /// `QUERY CERTAIN reach('<head of chain>', x)`.
    Goal(usize),
    /// `QUERY CERTAIN tag`.
    Scan,
    /// `ASSERT` (true) or `RETRACT` (false) of the client's bridge edge.
    Toggle(bool),
}

/// Chains ordered by popularity: Zipf rank `k` asks about chain
/// `popularity(seed)[k]`.  Shared by every client of a seed.
pub fn popularity(seed: u64) -> Vec<usize> {
    Rng::new(seed, 0).permutation(CHAINS)
}

/// The model of the seeded graph, with one bridge edge per client: from
/// the tail of the client's Zipf-rank chain to the head of a cold chain.
pub fn model(seed: u64) -> ReachModel {
    let pop = popularity(seed);
    let mut m = ReachModel::new(CHAINS, CHAIN_LEN, Vec::new());
    m.toggles = (0..CLIENTS)
        .map(|c| (m.tail(pop[c]), m.head(pop[CHAINS / 2 + c])))
        .collect();
    m
}

/// One client's op stream.
#[derive(Clone, Debug)]
pub struct WireReadGen {
    rng: Rng,
    zipf: Zipf,
    popularity: Vec<usize>,
    toggled: bool,
}

impl WireReadGen {
    pub fn new(seed: u64, client: usize) -> WireReadGen {
        WireReadGen {
            rng: Rng::new(seed, client as u64 + 1),
            zipf: Zipf::new(CHAINS, ZIPF_S),
            popularity: popularity(seed),
            toggled: false,
        }
    }

    pub fn next_op(&mut self) -> ReadOp {
        let u = self.rng.unit();
        if u < TOGGLE_SHARE {
            self.toggled = !self.toggled;
            ReadOp::Toggle(self.toggled)
        } else if u < TOGGLE_SHARE + SCAN_SHARE {
            ReadOp::Scan
        } else {
            ReadOp::Goal(self.popularity[self.zipf.sample(&mut self.rng)])
        }
    }
}

/// The command line of `op` for `client`.
pub fn line(m: &ReachModel, client: usize, op: ReadOp) -> String {
    match op {
        ReadOp::Goal(chain) => format!("QUERY CERTAIN reach('{}', x)", node(m.head(chain))),
        ReadOp::Scan => "QUERY CERTAIN tag".to_string(),
        ReadOp::Toggle(assert) => {
            let (a, b) = m.toggles[client];
            let verb = if assert { "ASSERT" } else { "RETRACT" };
            format!("{verb} edge('{}', '{}')", node(a), node(b))
        }
    }
}

/// The set-up script: chain edges, tags, the `reach` rules and their
/// committed closure.
pub fn seed_script(m: &ReachModel) -> Vec<String> {
    let mut edges = Vec::new();
    for c in 0..m.chains {
        for j in 0..m.len {
            let a = m.head(c) + j;
            edges.push(format!("edge('{}', '{}')", node(a), node(a + 1)));
        }
    }
    let mut script: Vec<String> = edges
        .chunks(SEED_BATCH)
        .map(|batch| format!("ASSERT {}", batch.join(", ")))
        .collect();
    script.push(format!("ASSERT {}", tag_facts(m).join(", ")));
    script.push(format!("DEFINE reach := {REACH_RULES}"));
    script.push("APPLY reach".to_string());
    script
}

/// The seeded `tag` rows: one per chain head.
pub fn tag_facts(m: &ReachModel) -> Vec<String> {
    (0..m.chains)
        .map(|c| format!("tag('{}')", node(m.head(c))))
        .collect()
}

fn seeded_service(m: &ReachModel) -> Service {
    let s = Service::new(ServiceConfig::builder().threads(1).build());
    for l in seed_script(m) {
        s.execute(&l).expect("seeding wire_read");
    }
    s
}

/// The in-process twin a traced run replays each op against: same seed,
/// same ops, so the same strategies serve it.
struct Twin {
    service: Service,
    lock: Mutex<()>,
    tag: RelId,
    reach: RelId,
    /// Stored `reach` rows per chain head, rendered by the render replay.
    rows: Vec<Vec<Vec<Const>>>,
}

impl Twin {
    fn new(m: &ReachModel) -> Twin {
        let service = seeded_service(m);
        let snap = service.snapshot();
        let vocab = snap.vocab();
        let (tag, _) = vocab.lookup_relation("tag").expect("seeded tag");
        let (reach, _) = vocab.lookup_relation("reach").expect("seeded reach");
        let heads: Vec<Const> = (0..m.chains)
            .map(|c| {
                vocab
                    .lookup_constant(&node(m.head(c)))
                    .expect("seeded node")
            })
            .collect();
        let mut rows = vec![Vec::new(); m.chains];
        let db = snap.kb().iter().next().expect("one world");
        for row in db.relation(reach).expect("closure committed").iter() {
            if let Some(c) = heads.iter().position(|h| *h == row[0]) {
                rows[c].push(row.to_vec());
            }
        }
        drop(snap);
        Twin {
            service,
            lock: Mutex::new(()),
            tag,
            reach,
            rows,
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

/// The toggle commits every client has seen acknowledged, shared so that
/// goal answers are checked as they arrive.  A client flags its toggle as
/// in flight before sending it and clears the flag only after logging its
/// epoch: an answer read while no flag is set has every commit at or
/// below its epoch in the logs.
struct Toggles {
    logs: Mutex<Vec<ToggleLog>>,
    in_flight: Vec<AtomicBool>,
}

impl Toggles {
    fn new() -> Toggles {
        Toggles {
            logs: Mutex::new(vec![ToggleLog::default(); CLIENTS]),
            in_flight: (0..CLIENTS).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

struct Client {
    idx: usize,
    conn: Conn,
    gen: WireReadGen,
    tally: Tally,
    /// This client's copy of the model (its answer cache is per client).
    model: ReachModel,
    /// Goal answers read while a toggle was in flight, checked at the end.
    deferred: Vec<GoalRecord>,
    checked: u64,
    failures: Vec<String>,
    tracer: Tracer,
    next_op: u64,
    rendered_facts: u64,
}

/// The closed loop of one client until `until`.
fn client_loop(
    cl: &mut Client,
    toggles: &Toggles,
    tag_digest: Digest,
    until: Instant,
    twin: Option<&Twin>,
) {
    while Instant::now() < until {
        let op = cl.gen.next_op();
        let text = line(&cl.model, cl.idx, op);
        if let ReadOp::Toggle(_) = op {
            toggles.in_flight[cl.idx].store(true, Ordering::SeqCst);
        }
        let answer = cl.conn.call(&text);
        let Some((resp, t0, t1)) = answer else {
            toggles.in_flight[cl.idx].store(false, Ordering::SeqCst);
            continue;
        };
        let epoch = resp.epoch().unwrap_or(0);
        let class = match op {
            ReadOp::Goal(chain) => {
                let record = GoalRecord {
                    chain,
                    epoch,
                    digest: digest(payload(&resp)),
                };
                if toggles.in_flight.iter().any(|f| f.load(Ordering::SeqCst)) {
                    cl.deferred.push(record);
                } else {
                    let logs = toggles.logs.lock().expect("toggle logs");
                    cl.failures
                        .extend(check_goals(&mut cl.model, &logs, &[record]));
                    cl.checked += 1;
                }
                match status_field(&resp.status, "strategy") {
                    Some("tabled") => "query.tabled",
                    Some("magic") => "query.magic",
                    _ => "query.materialize",
                }
            }
            ReadOp::Scan => {
                if digest(payload(&resp)) != tag_digest {
                    cl.failures.push(format!(
                        "tag scan at epoch {epoch} differs from the seeded rows"
                    ));
                }
                "query.scan"
            }
            ReadOp::Toggle(present) => {
                toggles.logs.lock().expect("toggle logs")[cl.idx]
                    .0
                    .push((epoch, present));
                toggles.in_flight[cl.idx].store(false, Ordering::SeqCst);
                "commit"
            }
        };
        cl.tally.record(class, t0, t1);
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

/// Times the layers of `op` by replaying it on the twin (see `trace`).
fn replay(
    cl: &mut Client,
    twin: &Twin,
    op_id: u64,
    root: usize,
    class: &'static str,
    op: ReadOp,
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
    let (_, rest) = split_command(text).expect("generated commands parse");
    let (snap, _) = tr.time(op_id, class, "service.snapshot", Some(ex), || {
        twin.service.snapshot()
    });
    let (mut vocab, _) = tr.time(op_id, class, "data.vocab_clone", Some(ex), || {
        snap.vocab().clone()
    });
    match op {
        ReadOp::Toggle(_) => {
            let _ = tr.time(op_id, class, "command.parse", Some(ex), || {
                parse_fact_list(rest, &mut vocab)
            });
        }
        ReadOp::Scan | ReadOp::Goal(_) => {
            let _ = tr.time(op_id, class, "command.parse", Some(ex), || {
                parse_query(rest, &mut vocab)
            });
            let folded;
            let (rel, rows): (RelId, Vec<&[Const]>) = match op {
                ReadOp::Goal(chain) => (
                    twin.reach,
                    twin.rows[chain].iter().map(Vec::as_slice).collect(),
                ),
                _ => {
                    folded = tr
                        .time(op_id, class, "service.fold", Some(ex), || {
                            twin.service.certain(&snap, twin.tag)
                        })
                        .0;
                    (twin.tag, folded.iter().collect())
                }
            };
            let (rendered, _) = tr.time(op_id, class, "command.render", Some(ex), || {
                rows.iter()
                    .map(|row| render_fact(rel, row, &vocab))
                    .collect::<Vec<_>>()
            });
            cl.rendered_facts += rendered.len() as u64;
        }
    }
    tr.time(op_id, class, "net.encode", Some(root), || {
        encode_response(&resp, Some("t1"))
    });
}

struct Fixture {
    served: Served,
    conns: Vec<Conn>,
}

fn setup(m: &ReachModel) -> Fixture {
    let served = Served::start(seeded_service(m)).expect("starting the server");
    let conns = (0..CLIENTS)
        .map(|_| Conn::connect(served.addr).expect("connecting a client"))
        .collect();
    Fixture { served, conns }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut m = model(args.seed);
    let (fx, setups) = repeated_setup(|_| setup(&m), |f| drop(f.served.stop()));
    let Fixture { served, conns } = fx;
    let tag_digest = digest(tag_facts(&m).iter().map(String::as_str));
    let toggles = Toggles::new();
    let mut clients: Vec<Client> = conns
        .into_iter()
        .enumerate()
        .map(|(idx, conn)| Client {
            idx,
            conn,
            gen: WireReadGen::new(args.seed, idx),
            tally: Tally::default(),
            model: m.clone(),
            deferred: Vec::new(),
            checked: 0,
            failures: Vec::new(),
            tracer: Tracer::new(Instant::now()),
            next_op: 0,
            rendered_facts: 0,
        })
        .collect();

    if !args.trace {
        let tally = phase(&mut clients, args.seconds, |cl, until| {
            client_loop(cl, &toggles, tag_digest, until, None)
        });
        end_to_end(&mut report, &tally, &setups);
    } else {
        let mut control = Conn::connect(served.addr).expect("control connection");
        let twin = Twin::new(&m);
        let before = scrape_metrics(&mut control);
        let untraced = phase(&mut clients, args.seconds * UNTRACED_SHARE, |cl, until| {
            client_loop(cl, &toggles, tag_digest, until, None)
        });
        let after = scrape_metrics(&mut control);
        counter_layers(&mut report, &before, &after, untraced.attempted as f64);
        report.set(
            "net.response_bytes",
            crate::runner::ratio(untraced.response_bytes as f64, untraced.attempted as f64),
        );
        // bring the twin's bridge edges to the served state before replaying
        let logs = toggles.logs.lock().expect("toggle logs").clone();
        for (idx, log) in logs.iter().enumerate() {
            let present = log.0.last().is_some_and(|&(_, p)| p);
            twin.service
                .execute(&line(&m, idx, ReadOp::Toggle(present)))
                .expect("syncing the twin");
        }
        let traced = phase(
            &mut clients,
            args.seconds * (1.0 - UNTRACED_SHARE),
            |cl, until| client_loop(cl, &toggles, tag_digest, until, Some(&twin)),
        );
        trace_overhead(&mut report, untraced.ops_per_s(), traced.ops_per_s());
        let mut b = Breakdown::default();
        let mut rendered = 0;
        let mut spans: Vec<Vec<Span>> = Vec::new();
        for cl in &mut clients {
            b.absorb(&cl.tracer.spans);
            rendered += cl.rendered_facts;
            spans.push(std::mem::take(&mut cl.tracer.spans));
        }
        span_layers(&mut report, &b, rendered);
        report.attempted += untraced.attempted + traced.attempted;
        report.failed += untraced.failed + traced.failed;
        save_spans(&mut report, args, &spans);
    }
    data_layers(&mut report, &served.service.snapshot());

    drop(served.stop());
    let logs = toggles.logs.into_inner().expect("toggle logs");
    let mut checked = 0;
    for cl in &clients {
        checked += cl.checked + cl.deferred.len() as u64;
        for f in check_goals(&mut m, &logs, &cl.deferred) {
            report.check_failed(f);
        }
        for f in &cl.failures {
            report.check_failed(f.clone());
        }
    }
    report.line(format!(
        "checks           {checked} goal answers against the chain model, scans against {} seeded tag rows",
        m.chains
    ));
    report
}
