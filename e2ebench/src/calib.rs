//! A fixed reference kernel that tells how fast the host runs right now.
//!
//! On a shared host the speed of this kind of code moves with the load of
//! other tenants: on a 2-vCPU virtual machine, hash-map, sort and
//! allocation work was seen to slow by up to 1.8× for seconds at a time
//! while a plain ALU loop did not slow at all, so the slowdown lies in the
//! caches and the core's front end, not in lost CPU time.  The service's
//! own work (hashing, sorting, small allocations) slows with it.  Timing
//! this kernel between the slices of a timed phase gives each slice a
//! speed factor; the gated figures are divided by it (see
//! [`crate::workloads::end_to_end`]).
//!
//! The kernel is the benchmark's own code and calls only the standard
//! library, so no change to the program under test can change it.

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Seconds one kernel run takes on a quiet host; normalized figures read
/// as if every slice had run at this speed.
pub const NOMINAL_S: f64 = 0.3e-3;

/// Kernel runs per thread in one probe.
const REPS: usize = 5;

/// Threads a probe runs at once, one per vCPU the workloads use, so the
/// factor covers every CPU their threads may land on.
const THREADS: usize = 2;

/// One run of the reference kernel: string hashing, a sort and ordered
/// inserts over seeded data, all allocated afresh.
pub fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<String, u64> = HashMap::new();
    for i in 0..1_000u64 {
        *map.entry(format!("k{}", next() % 700)).or_default() += i;
    }
    let mut pairs: Vec<(u64, u32)> = (0..4_000u32).map(|i| (next() % 4_096, i)).collect();
    pairs.sort_unstable();
    let set: BTreeSet<u64> = pairs.iter().step_by(4).map(|p| p.0 ^ 0x55).collect();
    map.len() as u64 + pairs[2_000].0 + set.len() as u64
}

/// Times the kernel on [`THREADS`] threads at once, [`REPS`] runs each,
/// and returns the median run in seconds.
pub fn probe() -> f64 {
    let mut runs: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    (0..REPS)
                        .map(|r| {
                            let start = Instant::now();
                            black_box(kernel(black_box((t * REPS + r) as u64)));
                            start.elapsed().as_secs_f64()
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_the_probe_times_it() {
        assert_eq!(kernel(7), kernel(7));
        let p = probe();
        assert!(p > 0.0 && p < 1.0, "probe took {p} s");
    }
}
