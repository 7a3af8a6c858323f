//! Output checks: order-insensitive answer digests and the model of the
//! `wire_read` graph the generator keeps.

use std::collections::HashMap;

/// `(count, hash)` of a set of answer lines, independent of their order.
pub type Digest = (usize, u64);

/// Digest of answer lines: FNV-1a over the sorted lines.
pub fn digest<'a>(lines: impl IntoIterator<Item = &'a str>) -> Digest {
    let mut v: Vec<&str> = lines.into_iter().collect();
    v.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in &v {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    (v.len(), h)
}

/// Name of `wire_read` graph node `i`.
pub fn node(i: usize) -> String {
    format!("n{i}")
}

/// The `wire_read` graph: `chains` chains of `len` edges over named nodes
/// (`n0`, `n1`, …), plus toggled bridge edges, and the expected answers of
/// bound `reach(head, x)` goals under any toggle state.
#[derive(Clone, Debug)]
pub struct ReachModel {
    pub chains: usize,
    pub len: usize,
    /// Bridge edges `(from, to)` that clients toggle, one per client.
    pub toggles: Vec<(usize, usize)>,
    cache: HashMap<(usize, u64), Digest>,
}

impl ReachModel {
    pub fn new(chains: usize, len: usize, toggles: Vec<(usize, usize)>) -> ReachModel {
        ReachModel {
            chains,
            len,
            toggles,
            cache: HashMap::new(),
        }
    }

    /// Nodes per chain.
    pub fn width(&self) -> usize {
        self.len + 1
    }

    pub fn head(&self, chain: usize) -> usize {
        chain * self.width()
    }

    pub fn tail(&self, chain: usize) -> usize {
        chain * self.width() + self.len
    }

    /// Nodes reachable from `from` in one or more steps when the toggles
    /// whose bit is set in `present` are asserted.
    pub fn reachable(&self, from: usize, present: u64) -> Vec<usize> {
        let width = self.width();
        let mut seen = vec![false; self.chains * width];
        let mut stack = vec![from];
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            let mut succ = Vec::new();
            if n % width != self.len {
                succ.push(n + 1);
            }
            for (bit, &(a, b)) in self.toggles.iter().enumerate() {
                if a == n && present & (1 << bit) != 0 {
                    succ.push(b);
                }
            }
            for s in succ {
                if !seen[s] {
                    seen[s] = true;
                    out.push(s);
                    stack.push(s);
                }
            }
        }
        out
    }

    /// The expected digest of `QUERY CERTAIN reach('n<head of chain>', x)`.
    pub fn expected(&mut self, chain: usize, present: u64) -> Digest {
        if let Some(d) = self.cache.get(&(chain, present)) {
            return *d;
        }
        let head = self.head(chain);
        let lines: Vec<String> = self
            .reachable(head, present)
            .into_iter()
            .map(|n| format!("reach('{}', '{}')", node(head), node(n)))
            .collect();
        let d = digest(lines.iter().map(String::as_str));
        self.cache.insert((chain, present), d);
        d
    }
}

/// Per-client log of toggle commits: `(epoch, present after the commit)`,
/// in epoch order.
#[derive(Clone, Debug, Default)]
pub struct ToggleLog(pub Vec<(u64, bool)>);

impl ToggleLog {
    /// Whether the toggle was present at `epoch` (absent before any
    /// commit).
    pub fn present_at(&self, epoch: u64) -> bool {
        let i = self.0.partition_point(|&(e, _)| e <= epoch);
        i > 0 && self.0[i - 1].1
    }
}

/// One bound-goal answer, checked once every client's commits are known.
#[derive(Clone, Copy, Debug)]
pub struct GoalRecord {
    pub chain: usize,
    pub epoch: u64,
    pub digest: Digest,
}

/// Checks every goal record against the model; returns the failures.
pub fn check_goals(
    model: &mut ReachModel,
    logs: &[ToggleLog],
    records: &[GoalRecord],
) -> Vec<String> {
    let mut failures = Vec::new();
    for r in records {
        let present = logs
            .iter()
            .enumerate()
            .filter(|(_, log)| log.present_at(r.epoch))
            .fold(0u64, |acc, (bit, _)| acc | 1 << bit);
        let want = model.expected(r.chain, present);
        if want != r.digest {
            failures.push(format!(
                "reach goal on chain {} at epoch {}: got {} facts (hash {:x}), want {} (hash {:x})",
                r.chain, r.epoch, r.digest.0, r.digest.1, want.0, want.1
            ));
        }
    }
    failures
}
