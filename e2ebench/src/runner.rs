//! Shared machinery: the in-process server, client connections with
//! failure accounting, closed-loop client threads, and scrapes of the
//! counters the service exports over the wire.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use kbt_service::{Client, NetConfig, NetServer, Service, WireResponse};

/// A service behind an in-process [`NetServer`] on an ephemeral port.
pub struct Served {
    pub service: Arc<Service>,
    pub server: NetServer,
    pub addr: SocketAddr,
}

impl Served {
    pub fn start(service: Service) -> std::io::Result<Served> {
        let service = Arc::new(service);
        let server = NetServer::start(service.clone(), NetConfig::default())?;
        let addr = server.local_addr();
        Ok(Served {
            service,
            server,
            addr,
        })
    }

    /// Stops the server (joining every session thread) and hands back the
    /// service.
    pub fn stop(self) -> Arc<Service> {
        self.server.shutdown();
        self.service
    }
}

/// One client connection, counting what it attempts and what fails.
///
/// `ERR` responses (including `unavailable` refusals) and I/O errors all
/// count as failed ops; nothing is retried.  After an I/O error the next
/// call reconnects, and a failed reconnect is itself a failed op.
pub struct Conn {
    addr: SocketAddr,
    client: Option<Client>,
    pub attempted: u64,
    pub failed: u64,
    pub response_bytes: u64,
    pub first_error: Option<String>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        Ok(Conn {
            addr,
            client: Some(Client::connect(addr)?),
            attempted: 0,
            failed: 0,
            response_bytes: 0,
            first_error: None,
        })
    }

    fn note_error(&mut self, e: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(e);
        }
    }

    /// Sends `line` and waits for its response.  Returns the response when
    /// it is `OK`, with the instants around the round trip.
    pub fn call(&mut self, line: &str) -> Option<(WireResponse, Instant, Instant)> {
        self.attempted += 1;
        if self.client.is_none() {
            match Client::connect(self.addr) {
                Ok(c) => self.client = Some(c),
                Err(e) => {
                    self.note_error(format!("reconnect: {e}"));
                    return None;
                }
            }
        }
        let client = self.client.as_mut().expect("connected above");
        let start = Instant::now();
        let result = client.roundtrip(line);
        let end = Instant::now();
        match result {
            Ok(resp) => {
                self.response_bytes += wire_bytes(&resp);
                if resp.is_ok() {
                    Some((resp, start, end))
                } else {
                    self.note_error(format!("{line:?} -> {}", resp.status));
                    None
                }
            }
            Err(e) => {
                self.client = None;
                self.note_error(format!("{line:?} -> i/o: {e}"));
                None
            }
        }
    }
}

/// Bytes of a response on the wire (each line plus its newline).
pub fn wire_bytes(resp: &WireResponse) -> u64 {
    resp.data.iter().map(|l| l.len() as u64 + 1).sum::<u64>() + resp.status.len() as u64 + 1
}

/// The data lines of a response without their `= ` prefix.
pub fn payload(resp: &WireResponse) -> impl Iterator<Item = &str> {
    resp.data.iter().map(|l| l.strip_prefix("= ").unwrap_or(l))
}

/// The value of a `key=value` field of a status line.
pub fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .split_whitespace()
        .find_map(|f| f.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
}

/// Scrapes `METRICS` over `conn` into `series -> value`.
pub fn scrape_metrics(conn: &mut Conn) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some((resp, _, _)) = conn.call("METRICS") {
        for line in payload(&resp) {
            if line.starts_with('#') {
                continue;
            }
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    out.insert(name.to_string(), v);
                }
            }
        }
    }
    out
}

/// Scrapes the `WALSTAT` status line over `conn` into `key -> value`.
pub fn scrape_walstat(conn: &mut Conn) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some((resp, _, _)) = conn.call("WALSTAT") {
        for field in resp.status.split_whitespace() {
            if let Some((k, v)) = field.split_once('=') {
                if let Ok(v) = v.parse::<f64>() {
                    out.insert(k.to_string(), v);
                }
            }
        }
    }
    out
}

/// `after - before` for one series (0 when absent).
pub fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean of a histogram's new samples between two scrapes, in the
/// histogram's unit (`_sum` / `_count` deltas).
pub fn hist_mean(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, base: &str) -> f64 {
    ratio(
        delta(before, after, &format!("{base}_sum")),
        delta(before, after, &format!("{base}_count")),
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
