//! Host-speed calibration: a fixed piece of work that uses nothing from
//! the simulator, run in short ticks between the steps of a metered run
//! ([`Drive::Metered`](crate::workload::Drive::Metered)).
//!
//! The benchmark runs on shared hosts whose speed swings by a factor of
//! two or more within seconds, mostly from other tenants contending for
//! the core's caches. A tick is a burst of random read-modify-writes over
//! a table the size of half the L2 cache, which the simulator's step
//! before it has mostly evicted; of the probes tried between `host_read`
//! steps (pure ALU, random updates over 1, 8 and 32 MiB, pointer chases
//! over 8 and 64 MiB, a heap-driven event loop) its slowdown tracked the
//! simulator's most closely. It tracks `gc_write` less well (see the
//! package README). A phase's host time divided by the slowdown its ticks saw
//! cancels that drift, while a change to the simulator's own cost still
//! shows in full, because the ticks run none of the simulator's code.
//!
//! With one contiguous table, about one run in ten came out 20% off the
//! others, its ticks faster while the simulator ran as usual. The likely
//! cause: how much of the table survives in L2 depends on which cache
//! sets its physical pages map to, and the allocator hands a process the
//! same pages over and over. So each meter scatters its table over pages
//! drawn afresh from a buffer four times its size, and a run's median
//! over its repetitions averages the placements out.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::host;

/// Words per 4 KiB page.
const PAGE_WORDS: usize = 512;

/// Words in the tick's table: 1 MiB.
const TABLE_WORDS: usize = 1 << 17;

/// Pages of the buffer a meter draws its table's pages from.
const BUFFER_PAGES: usize = 4 * TABLE_WORDS / PAGE_WORDS;

/// Meters made so far in this process; seeds each one's page draw.
static MADE: AtomicU64 = AtomicU64::new(0);

/// Read-modify-writes per tick.
const TICK_OPS: u32 = 4096;

/// Wall seconds a tick takes at the reference speed: roughly a tick
/// between simulator steps on a 2-core share of an Intel Xeon with a
/// 2 MiB L2 and a 105 MiB shared L3 in a quiet period, when the table
/// comes back from L3. Dividing a tick's measured time by this
/// gives the host's slowdown; the benchmark's times are reported at the
/// reference speed.
pub const REFERENCE_TICK_S: f64 = 80e-6;

/// The calibration table and the tick time measured so far.
pub struct Meter {
    buffer: Vec<u64>,
    /// The buffer pages that hold the table, in table order.
    pages: Vec<usize>,
    rng: u64,
    ticks: u64,
    wall_s: f64,
    cpu_s: f64,
}

/// Ticks run, and their wall and CPU seconds, over some stretch of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lap {
    /// Ticks run.
    pub ticks: u64,
    /// Their wall seconds.
    pub wall_s: f64,
    /// Their process CPU seconds.
    pub cpu_s: f64,
}

impl Lap {
    /// How much slower than the reference host the ticks ran; 1 when no
    /// tick ran.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        if self.ticks == 0 {
            1.0
        } else {
            self.wall_s / (self.ticks as f64 * REFERENCE_TICK_S)
        }
    }

    /// The ticks run since `earlier`, a lap of the same meter.
    #[must_use]
    pub fn since(&self, earlier: Lap) -> Lap {
        Lap {
            ticks: self.ticks - earlier.ticks,
            wall_s: self.wall_s - earlier.wall_s,
            cpu_s: self.cpu_s - earlier.cpu_s,
        }
    }
}

impl Default for Meter {
    fn default() -> Self {
        Meter::new()
    }
}

impl Meter {
    /// A meter with its buffer allocated and touched, and its table's
    /// pages drawn from it.
    #[must_use]
    pub fn new() -> Meter {
        let made = MADE.fetch_add(1, Ordering::Relaxed);
        let mut rng = 0x9e37_79b9_7f4a_7c15 ^ made.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let mut pages: Vec<usize> = (0..BUFFER_PAGES).collect();
        for i in (1..BUFFER_PAGES).rev() {
            pages.swap(i, (xorshift(&mut rng) % (i as u64 + 1)) as usize);
        }
        pages.truncate(TABLE_WORDS / PAGE_WORDS);
        Meter {
            buffer: vec![1; BUFFER_PAGES * PAGE_WORDS],
            pages,
            rng,
            ticks: 0,
            wall_s: 0.0,
            cpu_s: 0.0,
        }
    }

    /// Runs one tick and adds its wall and CPU time to the meter.
    pub fn tick(&mut self) {
        let (t0, c0) = (Instant::now(), host::cpu_s());
        let mut sum = 0_u64;
        for _ in 0..TICK_OPS {
            let r = xorshift(&mut self.rng);
            let word = r as usize & (TABLE_WORDS - 1);
            let page = self.pages[word / PAGE_WORDS];
            let slot = &mut self.buffer[page * PAGE_WORDS + word % PAGE_WORDS];
            *slot = slot.wrapping_add(r);
            sum = sum.wrapping_add(*slot);
        }
        black_box(sum);
        self.wall_s += t0.elapsed().as_secs_f64();
        self.cpu_s += host::cpu_s() - c0;
        self.ticks += 1;
    }

    /// Everything the meter has measured so far; subtract two laps with
    /// [`Lap::since`] to get the ticks between them.
    #[must_use]
    pub fn lap(&self) -> Lap {
        Lap {
            ticks: self.ticks,
            wall_s: self.wall_s,
            cpu_s: self.cpu_s,
        }
    }
}

/// Advances a xorshift64 generator and returns its new state.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_count_ticks_and_time() {
        let mut m = Meter::new();
        let a = m.lap();
        assert_eq!(a.slowdown(), 1.0);
        (0..3).for_each(|_| m.tick());
        let lap = m.lap().since(a);
        assert_eq!(lap.ticks, 3);
        assert!(lap.wall_s > 0.0 && lap.slowdown() > 0.0);
    }

    #[test]
    fn each_meter_draws_distinct_pages_of_its_buffer() {
        let (a, b) = (Meter::new(), Meter::new());
        assert_ne!(a.pages, b.pages);
        let mut p = a.pages.clone();
        p.sort_unstable();
        p.dedup();
        assert_eq!(p.len(), TABLE_WORDS / PAGE_WORDS);
        assert!(p.iter().all(|&i| i < BUFFER_PAGES));
    }
}
