//! Layer replays: each drives one crate's public API in isolation on
//! inputs derived from the measured run, so a layer's host cost per call
//! can be priced without instrumenting the simulator.
//!
//! Inputs are generated before the timed loop, so generator cost stays
//! out of the per-call figures. Results pass through `black_box`.

use std::hint::black_box;
use std::time::Instant;

use dssd_kernel::{BandwidthServer, EventQueue, Rng, SimSpan, SimTime, ARRIVAL_RANK, DEFAULT_RANK};
use dssd_noc::{Network, NocConfig, NocEvent, Packet, Step};
use dssd_ssd::{SsdConfig, TraceConfig, Tracer};
use dssd_telemetry::{Class, Stage, Track};
use dssd_workload::Request;

/// Host ns per event of a standalone fNoC carrying `packets` page-size
/// packets between random terminal pairs, with Poisson injections at
/// `packets_per_sec`. Events are queue pops plus express-path events, as
/// the simulator counts them.
#[must_use]
pub fn noc(config: NocConfig, packets_per_sec: f64, packets: usize, bytes: u64, seed: u64) -> f64 {
    enum Ev {
        Inject(Packet),
        Noc(NocEvent),
    }
    let mut rng = Rng::new(seed ^ 0x4E6F_4352);
    let k = config.terminals;
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut t = 0.0f64;
    for id in 0..packets as u64 {
        t += rng.exponential(1e9 / packets_per_sec.max(1.0));
        let src = rng.index(k);
        let dst = (src + 1 + rng.index(k - 1)) % k;
        queue.push(
            SimTime::from_ns(t as u64),
            Ev::Inject(Packet::new(id, src, dst, bytes)),
        );
    }
    let mut net = Network::new(config);
    let mut step = Step::default();
    let t0 = Instant::now();
    while let Some((now, ev)) = queue.pop() {
        step.clear();
        match ev {
            Ev::Inject(p) => net.inject_into(now, p, &mut step),
            Ev::Noc(e) => net.handle_into(now, e, &mut step),
        }
        for &(at, e) in &step.schedule {
            queue.push(at, Ev::Noc(e));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        net.stats().delivered,
        packets as u64,
        "replay left packets in flight"
    );
    let events = queue.delivered() + net.express_events();
    secs * 1e9 / events.max(1) as f64
}

/// Host ns per FTL call on a standalone prefilled FTL fed `requests`.
#[derive(Debug, Clone, Copy)]
pub struct FtlCosts {
    /// Per `write_pages` call.
    pub write_pages_ns: f64,
    /// Per `start_gc_round` call (greedy victim selection).
    pub gc_victim_ns: f64,
    /// Per copied page: `alloc_gc_group` share plus `complete_copy`.
    pub copy_ns: f64,
    /// Per `translate` call.
    pub translate_ns: f64,
}

/// Replays `requests`' logical pages against a standalone FTL prefilled
/// like the simulator's: every request is written (a GC round runs
/// whenever the FTL asks for one or refuses a write), then every page is
/// translated. Reads are written too, so each FTL entry point is priced
/// on every workload's address stream.
///
/// # Panics
///
/// Panics if GC cannot make room for a write.
#[must_use]
pub fn ftl(cfg: &SsdConfig, requests: &[Request]) -> FtlCosts {
    let mut ftl = dssd_ftl::Ftl::new(cfg.geometry, cfg.ftl);
    ftl.prefill_with(
        &mut Rng::new(cfg.seed).fork(0xF111),
        cfg.prefill_target_free,
        cfg.prefill_invalid_fraction,
    );
    let lpns: Vec<Vec<u64>> = requests.iter().map(|r| r.lpns().collect()).collect();
    let (mut gc_s, mut victim_s, mut copy_s) = (0.0, 0.0, 0.0);
    let (mut rounds, mut copies, mut writes) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for l in &lpns {
        let mut tries = 0;
        loop {
            if !ftl.needs_gc() {
                if let Some(groups) = ftl.write_pages(l) {
                    black_box(groups);
                    writes += 1;
                    break;
                }
            }
            tries += 1;
            assert!(tries < 64, "GC made no room for a write");
            let g0 = Instant::now();
            let round = ftl
                .start_gc_round()
                .expect("a sealed superblock to collect");
            let v = g0.elapsed().as_secs_f64();
            let c0 = Instant::now();
            for group in &round.groups {
                // A destination group may hold fewer pages than asked.
                let mut rest = &group.pages[..];
                while !rest.is_empty() {
                    let dst = ftl.alloc_gc_group(rest.len() as u32);
                    for (&(lpn, src), &to) in rest.iter().zip(&dst.addrs) {
                        black_box(ftl.complete_copy(lpn, src, to));
                    }
                    rest = &rest[dst.len()..];
                }
                copies += group.pages.len() as u64;
            }
            copy_s += c0.elapsed().as_secs_f64();
            ftl.finish_gc_round(&round);
            victim_s += v;
            gc_s += g0.elapsed().as_secs_f64();
            rounds += 1;
        }
    }
    let write_s = t0.elapsed().as_secs_f64() - gc_s;
    let t1 = Instant::now();
    for l in &lpns {
        for &lpn in l {
            black_box(ftl.translate(lpn));
        }
    }
    let translate_s = t1.elapsed().as_secs_f64();
    let pages: usize = lpns.iter().map(Vec::len).sum();
    let per = |s: f64, n: u64| s * 1e9 / n.max(1) as f64;
    FtlCosts {
        write_pages_ns: per(write_s, writes),
        gc_victim_ns: per(victim_s, rounds),
        copy_ns: per(copy_s, copies),
        translate_ns: per(translate_s, pages as u64),
    }
}

/// Host ns per pop-plus-push pair of the kernel event queue under the
/// classic hold model: `hold` pending events; each step pops the minimum
/// and pushes a successor an exponential gap of mean `gap_ns` later, at
/// arrival rank with probability `arrival_share`.
#[must_use]
pub fn queue(hold: usize, gap_ns: f64, arrival_share: f64, steps: usize, seed: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0x486F_6C64);
    let draws: Vec<(u64, u8)> = (0..steps + hold)
        .map(|_| {
            let rank = if rng.chance(arrival_share) {
                ARRIVAL_RANK
            } else {
                DEFAULT_RANK
            };
            (rng.exponential(gap_ns) as u64, rank)
        })
        .collect();
    let mut q: EventQueue<u32> = EventQueue::new();
    for (i, &(gap, rank)) in draws[..hold].iter().enumerate() {
        q.push_ranked(SimTime::from_ns(gap), rank, i as u32);
    }
    let t0 = Instant::now();
    for &(gap, rank) in &draws[hold..] {
        let (t, ev) = q.pop().expect("hold model keeps the queue non-empty");
        q.push_ranked(t + SimSpan::from_ns(gap), rank, black_box(ev));
    }
    t0.elapsed().as_secs_f64() * 1e9 / steps as f64
}

/// Host ns per `BandwidthServer::enqueue` of `bytes`-sized transfers
/// arriving with exponential gaps of mean `gap_ns`, alternating host and
/// GC classes.
#[must_use]
pub fn server(
    bytes_per_sec: u64,
    overhead: SimSpan,
    bytes: u64,
    gap_ns: f64,
    n: usize,
    seed: u64,
) -> f64 {
    let mut rng = Rng::new(seed ^ 0x5365_7276);
    let mut t = 0.0f64;
    let arrivals: Vec<SimTime> = (0..n)
        .map(|_| {
            t += rng.exponential(gap_ns);
            SimTime::from_ns(t as u64)
        })
        .collect();
    let mut srv = BandwidthServer::new(bytes_per_sec, overhead);
    let t0 = Instant::now();
    for (i, &at) in arrivals.iter().enumerate() {
        black_box(srv.enqueue(at, bytes, i & 1));
    }
    t0.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// Host ns per `Tracer` call for `requests` request lifecycles of
/// `begin`, one `span` per stage with the run's mean stage times, and
/// `end`; `None` replays a disabled tracer.
#[must_use]
pub fn tracer(config: Option<TraceConfig>, stage_ns: [u64; 6], requests: u64, gap_ns: u64) -> f64 {
    let mut tr = config.map_or_else(Tracer::disabled, Tracer::enabled);
    let tracks = [
        Track::Requests,
        Track::Requests,
        Track::SysBus,
        Track::Dram,
        Track::Requests,
        Track::Requests,
    ];
    let mut totals = [SimSpan::ZERO; 6];
    let t0 = Instant::now();
    for id in 0..requests {
        let start = SimTime::from_ns(id * gap_ns);
        tr.begin(Class::Io, id, "read", start);
        let mut t = start;
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            let dur = SimSpan::from_ns(stage_ns[i]);
            tr.span(Class::Io, id, tracks[i], stage, t, dur);
            totals[i] = dur;
            t += dur;
        }
        tr.end(Class::Io, id, "read", t, false, black_box(&totals));
    }
    let calls = requests * (Stage::ALL.len() as u64 + 2);
    let secs = t0.elapsed().as_secs_f64();
    black_box(tr.events_recorded());
    secs * 1e9 / calls.max(1) as f64
}
