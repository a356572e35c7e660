//! The probe kernel: a fixed ≈4.5 ms piece of work timed immediately before
//! every round. `round_pu` is the round's wall time divided by it.
//!
//! Why: on the shared 2-vCPU sandbox this benchmark was written on, CPU time
//! equals wall time and the vCPU's speed itself drifts by tens of percent
//! between identical runs. The probe drifts with it, so the ratio repeats
//! where milliseconds do not (measurements in README.md).
//!
//! FROZEN: changing anything here rescales every `round_pu` ever recorded.
//! The mix mirrors what the library's request path does: dependent random
//! loads over a buffer the size of L2, a floating-point dependency chain,
//! and small allocate/free pairs.

use std::hint::black_box;
use std::time::{Duration, Instant};

const BUF_WORDS: usize = 1 << 19; // 4 MiB of u64
const LOADS: usize = 1 << 14;
const FLOPS: usize = 1 << 19;
const CHURN: usize = 1 << 15;

pub struct Probe {
    /// One random cycle through all `BUF_WORDS` slots: `next[i]` is the slot
    /// visited after `i`.
    next: Vec<u64>,
}

impl Probe {
    pub fn new() -> Probe {
        // Sattolo's shuffle driven by a fixed splitmix64 stream: a single
        // cycle (so the walk below never falls into a short, cache-resident
        // loop) and the same address sequence in every process.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut random = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut next: Vec<u64> = (0..BUF_WORDS as u64).collect();
        for i in (1..BUF_WORDS).rev() {
            next.swap(i, (random() % i as u64) as usize);
        }
        Probe { next }
    }

    /// Runs the kernel once and returns its wall time.
    pub fn run(&self) -> Duration {
        let start = Instant::now();
        let mut slot = 0usize;
        for _ in 0..LOADS {
            // Each address depends on the value just loaded.
            slot = self.next[slot] as usize;
        }
        let mut acc = 1.0_f64;
        for _ in 0..FLOPS {
            acc = acc * 0.999_999_9 + 0.5;
        }
        let mut kept = 0usize;
        for i in 0..CHURN {
            let v: Vec<u64> = Vec::with_capacity(8 + (i & 63) * 8);
            kept += black_box(&v).capacity();
        }
        black_box((slot, acc, kept));
        start.elapsed()
    }
}

/// `round ÷ probe` — the unit of `round_pu`.
pub fn probe_units(round: Duration, probe: Duration) -> f64 {
    round.as_secs_f64() / probe.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_units_is_a_plain_ratio() {
        let pu = probe_units(Duration::from_micros(122_500), Duration::from_micros(3_500));
        assert!((pu - 35.0).abs() < 1e-9);
        // A machine running uniformly 1.4x slower leaves the ratio alone.
        let slow = probe_units(Duration::from_micros(171_500), Duration::from_micros(4_900));
        assert!((slow - pu).abs() < 1e-9);
    }

    #[test]
    fn probe_takes_measurable_time() {
        let probe = Probe::new();
        let t = probe.run();
        assert!(t > Duration::from_micros(200), "{t:?}");
        assert!(t < Duration::from_millis(500), "{t:?}");
    }
}
