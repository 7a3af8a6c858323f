//! `what_if`: hypothetical queries — the paper's `τ_φ` over a two-world
//! KB — from one connection to an in-memory service at eval width 2.
//!
//! KB: two possible worlds (a disjunctive `DEFINE` + `APPLY`), 40 short
//! chains over 240 named constants, and a 6-node `node`/`adj` cycle.  Ops
//! cycle through three templates with seeded parameters, each projecting
//! onto a small relation:
//! (a) a ground disjunctive `τ`, a Horn closure into a fresh relation,
//!     then `glb` (QuantifierFree and Datalog strategies);
//! (b) a red/blue choice per node with ground Horn constraints
//!     (Grounding strategy and the SAT solver, 2^k worlds out);
//! (c) a nested counterfactual of two ground `τ`, then `lub`.

use std::collections::HashMap;
use std::time::Instant;

use kbt_core::{minimal_update, Transform, Transformer};
use kbt_data::Knowledgebase;
use kbt_service::command::{parse_query, render_fact, split_command};
use kbt_service::net::proto::encode_response;
use kbt_service::{QueryCmd, Service, ServiceConfig, WireResponse};

use crate::hist::Hist;
use crate::report::Report;
use crate::rng::Rng;
use crate::runner::{payload, ratio, scrape_metrics, status_field, Conn, Served};
use crate::trace::{Breakdown, Tracer};
use crate::workloads::{
    counter_layers, data_layers, end_to_end, phase, repeated_setup, save_spans, span_layers,
    trace_overhead, Args, ClientState, Tally, UNTRACED_SHARE,
};

pub const CHAINS: usize = 40;
pub const CHAIN_LEN: usize = 5;
pub const NODES: usize = 6;
pub const THREADS: usize = 2;
/// Chain offsets template (c) pairs a chain with.
pub const OFFSETS: [usize; 4] = [1, 7, 13, 19];

/// One generated op: a template and its parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hypo {
    /// (a) on chain `i`.
    Closure(usize),
    /// (b) with nodes `k` and `k + 3` forced not red.
    Colouring(usize),
    /// (c) on chains `i` and `j`.
    Counterfactual(usize, usize),
}

impl Hypo {
    pub fn template(self) -> usize {
        match self {
            Hypo::Closure(_) => 0,
            Hypo::Colouring(_) => 1,
            Hypo::Counterfactual(..) => 2,
        }
    }
}

fn cn(chain: usize, j: usize) -> String {
    format!("c{chain}_{j}")
}

/// Ops per cycle: one colouring (b), then a closure (a) at every 5th
/// position and counterfactuals (c) at the rest: 1, 16 and 63 ops.  (b),
/// about 90 times dearer than (c), takes about half of run time while
/// staying above 1% of ops.  (c), the cheapest, is 79% of ops and (a) the
/// next 20%, so p50 falls well inside (c) and p90 well inside (a), not on
/// the edge between two templates.
pub const CYCLE: u64 = 80;

/// Every how many positions of a cycle a closure (a) comes.
pub const CLOSURE_EVERY: u64 = 5;

/// The op stream: templates in a fixed cycle, parameters seeded.
#[derive(Clone, Debug)]
pub struct WhatIfGen {
    rng: Rng,
    n: u64,
}

impl WhatIfGen {
    pub fn new(seed: u64) -> WhatIfGen {
        WhatIfGen {
            rng: Rng::new(seed, 200),
            n: 0,
        }
    }

    pub fn next_op(&mut self) -> Hypo {
        let pos = self.n % CYCLE;
        self.n += 1;
        if pos == 0 {
            Hypo::Colouring(self.rng.below(NODES))
        } else if pos % CLOSURE_EVERY == 1 {
            Hypo::Closure(self.rng.below(CHAINS))
        } else {
            let i = self.rng.below(CHAINS);
            Hypo::Counterfactual(i, (i + OFFSETS[self.rng.below(OFFSETS.len())]) % CHAINS)
        }
    }
}

/// Every op the generator can produce.
pub fn all_ops() -> Vec<Hypo> {
    let mut ops: Vec<Hypo> = (0..CHAINS).map(Hypo::Closure).collect();
    ops.extend((0..NODES).map(Hypo::Colouring));
    for i in 0..CHAINS {
        ops.extend(
            OFFSETS
                .iter()
                .map(|o| Hypo::Counterfactual(i, (i + o) % CHAINS)),
        );
    }
    ops
}

pub fn line(op: Hypo) -> String {
    match op {
        Hypo::Closure(i) => format!(
            "QUERY tau[start('{}') | start('{}')]; \
             tau[(forall x0. start(x0) -> hit(x0)) & (forall x0 x1. hit(x0) & edge(x0, x1) -> hit(x1))]; \
             project[hit]; glb",
            cn(i, 0),
            cn(i, 2)
        ),
        Hypo::Colouring(k) => format!(
            "QUERY tau[(forall x0. node(x0) -> (red(x0) | blue(x0))) & \
             (red('g{}') -> blue('g{}')) & ~red('g{k}') & ~red('g{}')]; project[red]",
            (k + 1) % NODES,
            (k + 2) % NODES,
            (k + 3) % NODES
        ),
        Hypo::Counterfactual(i, j) => format!(
            "QUERY tau[mark('{}') | ~edge('{}', '{}')]; tau[mark('{}') | flag('w0')]; project[mark]; lub",
            cn(i, 1),
            cn(i, 0),
            cn(i, 1),
            cn(j, 1)
        ),
    }
}

pub fn seed_script() -> Vec<String> {
    let mut edges = Vec::new();
    for c in 0..CHAINS {
        for j in 0..CHAIN_LEN {
            edges.push(format!("edge('{}', '{}')", cn(c, j), cn(c, j + 1)));
        }
    }
    let mut graph: Vec<String> = (0..NODES).map(|k| format!("node('g{k}')")).collect();
    graph.extend((0..NODES).map(|k| format!("adj('g{k}', 'g{}')", (k + 1) % NODES)));
    vec![
        format!("ASSERT {}", edges.join(", ")),
        format!("ASSERT {}", graph.join(", ")),
        "DEFINE split := tau[flag('w0') | flag('w1')]".to_string(),
        "APPLY split".to_string(),
    ]
}

pub fn config() -> ServiceConfig {
    ServiceConfig::builder().threads(THREADS).build()
}

/// The expected wire answer of a query: `(data lines, worlds)`, computed
/// in-process with `Transformer::apply` on the same snapshot.
pub fn expected(service: &Service, text: &str) -> Result<(Vec<String>, usize), String> {
    let snap = service.snapshot();
    let mut vocab = snap.vocab().clone();
    let (_, rest) = split_command(text).map_err(|e| e.to_string())?;
    let QueryCmd::Transform(t) = parse_query(rest, &mut vocab).map_err(|e| e.to_string())? else {
        return Err(format!("{text:?} is not a transformation query"));
    };
    let kb = Transformer::with_options(service.config().eval_options())
        .apply(&t, snap.kb())
        .map_err(|e| e.to_string())?
        .kb;
    let lines = kb
        .iter()
        .enumerate()
        .map(|(i, db)| {
            let facts: Vec<String> = db
                .facts()
                .map(|(rel, t)| render_fact(rel, t.components(), &vocab))
                .collect();
            format!("world {i}: {{{}}}", facts.join(", "))
        })
        .collect();
    Ok((lines, kb.len()))
}

/// Checks a wire answer against the in-process one: the same data lines,
/// byte for byte, and the same world count in the status line.
pub fn check_answer(
    text: &str,
    resp: &WireResponse,
    want: &(Vec<String>, usize),
) -> Result<(), String> {
    let got: Vec<&str> = payload(resp).collect();
    let worlds = status_field(&resp.status, "worlds").and_then(|w| w.parse::<usize>().ok());
    if got == want.0 && worlds == Some(want.1) {
        Ok(())
    } else {
        Err(format!(
            "{text:?}: wire answered {} world(s) {:?}, in-process {} {:?}",
            worlds.unwrap_or(0),
            got.first(),
            want.1,
            want.0.first()
        ))
    }
}

/// Counters of the traced replays.
#[derive(Debug, Default)]
struct Replayed {
    rendered_facts: u64,
    candidate_atoms: u64,
    worlds_out: u64,
    ops: u64,
}

/// Times the layers of a hypothetical query by replaying it in-process on
/// the served service (reads change no state).
fn replay(
    tr: &mut Tracer,
    rep: &mut Replayed,
    service: &Service,
    op_id: u64,
    root: usize,
    class: &'static str,
    text: &str,
) -> Result<(), String> {
    let (resp, ex) = tr.time(op_id, class, "service.execute", Some(root), || {
        service.execute(text)
    });
    let resp = resp.map_err(|e| e.to_string())?;
    let (_, rest) = split_command(text).map_err(|e| e.to_string())?;
    let (snap, _) = tr.time(op_id, class, "service.snapshot", Some(ex), || {
        service.snapshot()
    });
    let (mut vocab, _) = tr.time(op_id, class, "data.vocab_clone", Some(ex), || {
        snap.vocab().clone()
    });
    let (cmd, _) = tr.time(op_id, class, "command.parse", Some(ex), || {
        parse_query(rest, &mut vocab)
    });
    let Ok(QueryCmd::Transform(t)) = cmd else {
        return Err(format!("{text:?} does not parse as a transformation"));
    };
    let transformer = Transformer::with_options(service.config().eval_options());
    let (result, apply) = tr.time(op_id, class, "core.apply", Some(ex), || {
        transformer.apply(&t, snap.kb())
    });
    let kb = result.map_err(|e| e.to_string())?.kb;
    // the update strategies, step by step, under core.apply
    let options = *transformer.options();
    let mut current = snap.kb().clone();
    for step in t.steps() {
        current = match step {
            Transform::Insert(phi) => {
                let mut out = Vec::new();
                for db in current.iter() {
                    let name = if kbt_core::update::datalog::applicable(phi, db) {
                        "core.update.datalog"
                    } else if kbt_logic::is_ground(phi.formula()) {
                        "core.update.quantifier_free"
                    } else {
                        "core.update.grounding"
                    };
                    let (outcome, _) = tr.time(op_id, class, name, Some(apply), || {
                        minimal_update(phi, db, &options)
                    });
                    let outcome = outcome.map_err(|e| e.to_string())?;
                    rep.candidate_atoms += outcome.candidate_atoms as u64;
                    out.extend(outcome.databases);
                }
                Knowledgebase::from_databases(out).map_err(|e| e.to_string())?
            }
            Transform::Glb => current.glb().map_err(|e| e.to_string())?,
            Transform::Lub => current.lub().map_err(|e| e.to_string())?,
            Transform::Project(rels) => current.project(rels),
            Transform::Identity | Transform::Seq(_) => current,
        };
    }
    let (rendered, _) = tr.time(op_id, class, "command.render", Some(ex), || {
        kb.iter()
            .flat_map(|db| {
                db.facts()
                    .map(|(rel, t)| render_fact(rel, t.components(), &vocab))
            })
            .collect::<Vec<_>>()
    });
    rep.rendered_facts += rendered.len() as u64;
    rep.worlds_out += kb.len() as u64;
    rep.ops += 1;
    tr.time(op_id, class, "net.encode", Some(root), || {
        encode_response(&resp, Some("t1"))
    });
    Ok(())
}

fn setup() -> (Served, Conn) {
    let service = Service::new(config());
    for l in seed_script() {
        service.execute(&l).expect("seeding what_if");
    }
    let served = Served::start(service).expect("starting the server");
    let conn = Conn::connect(served.addr).expect("connecting the client");
    (served, conn)
}

const CLASS: &str = "query.hypothetical";

/// The one client: its connection and what its loop records.
struct Client<'a> {
    conn: Conn,
    tally: Tally,
    gen: WhatIfGen,
    service: &'a Service,
    /// Every answer the loop can meet, computed before any timing.
    cache: &'a HashMap<String, (Vec<String>, usize)>,
    per_template: [Hist; 3],
    failures: Vec<String>,
    tracer: Tracer,
    rep: Replayed,
    next_op: u64,
}

impl ClientState for Client<'_> {
    fn conn(&self) -> &Conn {
        &self.conn
    }
    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

/// The closed loop of the client until `until`, replaying each op
/// in-process when `traced`.
fn client_loop(cl: &mut Client, until: Instant, traced: bool) {
    while Instant::now() < until {
        let op = cl.gen.next_op();
        let text = line(op);
        let Some((resp, t0, t1)) = cl.conn.call(&text) else {
            continue;
        };
        cl.tally.record(CLASS, t0, t1);
        cl.per_template[op.template()].record_ns(t1.duration_since(t0).as_nanos() as u64);
        // a query with no in-process answer was reported when the cache was filled
        let Some(want) = cl.cache.get(&text) else {
            continue;
        };
        if let Err(e) = check_answer(&text, &resp, want) {
            cl.failures.push(e);
        }
        if traced {
            let op_id = cl.next_op;
            cl.next_op += 1;
            let root = cl
                .tracer
                .record(op_id, CLASS, "client.roundtrip", None, t0, t1);
            if let Err(e) = replay(
                &mut cl.tracer,
                &mut cl.rep,
                cl.service,
                op_id,
                root,
                CLASS,
                &text,
            ) {
                cl.failures.push(format!("replay of {text:?} failed: {e}"));
            }
        }
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let ((served, conn), setups) = repeated_setup(
        |_| setup(),
        |(s, c)| {
            drop(c);
            drop(s.stop());
        },
    );
    let mut cache: HashMap<String, (Vec<String>, usize)> = HashMap::new();
    for op in all_ops() {
        let text = line(op);
        match expected(&served.service, &text) {
            Ok(w) => {
                cache.insert(text, w);
            }
            Err(e) => report.check_failed(format!("in-process {text:?} failed: {e}")),
        }
    }
    let mut client = Client {
        conn,
        tally: Tally::default(),
        gen: WhatIfGen::new(args.seed),
        service: &served.service,
        cache: &cache,
        per_template: [Hist::default(), Hist::default(), Hist::default()],
        failures: Vec::new(),
        tracer: Tracer::new(Instant::now()),
        rep: Replayed::default(),
        next_op: 0,
    };
    let clients = std::slice::from_mut(&mut client);

    if !args.trace {
        let tally = phase(clients, args.seconds, |cl, until| {
            client_loop(cl, until, false)
        });
        end_to_end(&mut report, &tally, &setups);
    } else {
        let mut control = Conn::connect(served.addr).expect("control connection");
        let before = scrape_metrics(&mut control);
        let untraced = phase(clients, args.seconds * UNTRACED_SHARE, |cl, until| {
            client_loop(cl, until, false)
        });
        let after = scrape_metrics(&mut control);
        counter_layers(&mut report, &before, &after, untraced.attempted as f64);
        report.set(
            "net.response_bytes",
            ratio(untraced.response_bytes as f64, untraced.attempted as f64),
        );
        let traced = phase(
            clients,
            args.seconds * (1.0 - UNTRACED_SHARE),
            |cl, until| client_loop(cl, until, true),
        );
        trace_overhead(&mut report, untraced.ops_per_s(), traced.ops_per_s());
        let rep = &client.rep;
        let mut b = Breakdown::default();
        b.absorb(&client.tracer.spans);
        span_layers(&mut report, &b, rep.rendered_facts);
        report.set("core.apply_us", b.mean_us("core.apply"));
        report.set("core.update_us.datalog", b.mean_us("core.update.datalog"));
        report.set(
            "core.update_us.quantifier_free",
            b.mean_us("core.update.quantifier_free"),
        );
        report.set(
            "core.update_us.grounding",
            b.mean_us("core.update.grounding"),
        );
        report.set(
            "core.candidate_atoms",
            ratio(rep.candidate_atoms as f64, rep.ops as f64),
        );
        report.set(
            "core.worlds_out",
            ratio(rep.worlds_out as f64, rep.ops as f64),
        );
        report.attempted += untraced.attempted + traced.attempted;
        report.failed += untraced.failed + traced.failed;
        save_spans(
            &mut report,
            args,
            &[std::mem::take(&mut client.tracer.spans)],
        );
    }
    for f in &client.failures {
        report.check_failed(f.clone());
    }
    let time = |h: &Hist| h.mean_us() * h.count() as f64;
    let total: f64 = client.per_template.iter().map(time).sum();
    for (name, h) in ["a closure", "b colouring", "c counterfactual"]
        .iter()
        .zip(&client.per_template)
    {
        report.line(format!(
            "template {name:<16} n={} p10={:.1} p50={:.1} p90={:.1} mean={:.1} us share of time={:.2}",
            h.count(),
            h.percentile_us(10.0),
            h.percentile_us(50.0),
            h.percentile_us(90.0),
            h.mean_us(),
            ratio(time(h), total)
        ));
    }
    report.line(format!(
        "checks           every answer against Transformer::apply in-process ({} distinct queries)",
        cache.len()
    ));
    data_layers(&mut report, &served.service.snapshot());
    drop(client);
    drop(served.stop());
    report
}
