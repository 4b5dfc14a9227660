//! The benchmark's only wall-clock read.
//!
//! Everything that times host work goes through this file: rep phases
//! and the micro-probes through [`now`], so the tree carries exactly
//! one D001 suppression for the whole benchmark, and spy spans through
//! [`ticks`].

use std::time::Instant;

/// Host time now.
#[inline(always)]
pub fn now() -> Instant {
    Instant::now() // punch-lint: allow(D001) the benchmark exists to measure host time; it never feeds sim behaviour or a pinned artifact
}

/// Nanoseconds of host time since `t`.
#[inline(always)]
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(now().duration_since(t).as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds of host time since `t`.
pub fn secs_since(t: Instant) -> f64 {
    ns_since(t) as f64 / 1e9
}

/// A cheap monotonic counter for spy spans, in ticks of unknown length
/// ([`TickScale`] measures it). A span is two reads, millions of times
/// a rep; on the benchmark's host [`now`] costs 34 ns a read in a tight
/// loop and about twice that between cache-cold device calls, which put
/// the traced `fleet_churn` 70 % over the untraced one. The time-stamp
/// counter costs half. Elsewhere, ticks are [`now`] in nanoseconds.
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC only reads a counter register; it accesses no
        // memory and every x86_64 processor implements it.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        ns_since(*EPOCH.get_or_init(now))
    }
}

/// Measures how long a tick is, over the interval it is alive for.
pub struct TickScale {
    at: Instant,
    ticks: u64,
}

impl TickScale {
    pub fn start() -> Self {
        TickScale {
            at: now(),
            ticks: ticks(),
        }
    }

    pub fn ns_per_tick(&self) -> f64 {
        let elapsed = ticks().wrapping_sub(self.ticks).max(1);
        ns_since(self.at) as f64 / elapsed as f64
    }
}

/// What one spy span costs, in ticks: the median, over many trials, of
/// a back-to-back pair of [`ticks`] reads. Roughly half of it lands
/// inside the span it brackets and half outside; the trace corrects for
/// both (see `trace::reduce`).
pub fn pair_cost_ticks() -> f64 {
    const TRIALS: usize = 101;
    const PAIRS: u32 = 10_000;
    let mut per_pair = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let t = ticks();
        let mut sink = 0u64;
        for _ in 0..PAIRS {
            let inner = ticks();
            sink = sink.wrapping_add(ticks().wrapping_sub(inner));
        }
        std::hint::black_box(sink);
        // The outer pair is one more pair among PAIRS + 1.
        per_pair.push(ticks().wrapping_sub(t) as f64 / f64::from(PAIRS + 1));
    }
    per_pair.sort_by(f64::total_cmp);
    per_pair[TRIALS / 2]
}
