//! The three workloads, their set-up, and the calibrated replay loop.

use crate::calib::{xorshift, Kernel};
use crate::oracle::{self, Expect, Tally};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use strip_core::{MaintenanceMode, Strip};
use strip_finance::{CompVariant, OptionVariant, Pta, PtaConfig};
use strip_obs::ObsSink;
use strip_storage::Value;

/// The base update each quote applies.
pub const UPDATE_SQL: &str = "update stocks set price = ? where symbol = ?";
/// The three keyed probes of a quote screen.
pub const READ_STOCK_SQL: &str = "select price from stocks where symbol = ?";
pub const READ_OPTION_SQL: &str = "select price from option_prices where option_symbol = ?";
pub const READ_COMP_SQL: &str = "select price from comp_prices where comp = ?";
/// The engine's composite recompute query, timed on its own by the traced
/// run (the same text the delta checkpoint runs).
pub const COMP_RECOMPUTE_SQL: &str = "select sum(price * weight) as price \
    from stocks, comps_list \
    where stocks.symbol = comps_list.symbol and comp = ?";

/// Wall time between two calibration points. Long enough that the kernel
/// costs a few percent of a run, short enough to follow host drift.
const SLICE: Duration = Duration::from_millis(20);

/// `rss_peak_mb` is read after this many quotes (or at the end of a shorter
/// replay): a fixed amount of work, so a faster engine that replays more
/// quotes in a run, and grows its in-memory log further, does not read as
/// using more memory.
const RSS_AT_QUOTES: u64 = 10_000;

/// Which composite rule a workload installs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompRule {
    None,
    /// `compute_comps2 unique after 1 seconds` (Figure 6).
    Unique,
    /// `compute_comps_full unique after 1 seconds`, applied as a delta.
    FullDelta,
}

/// Database sizing for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 6 600 stocks, 80 000 `comps_list` rows, 50 000 options, ~60k quotes.
    Paper,
    /// 2 000 stocks, 10 000 `comps_list` rows, 10 000 options, ~12k quotes.
    Medium,
    /// 100 stocks, 200 `comps_list` rows, 500 options (self-test only).
    #[cfg(test)]
    Small,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub scale: Scale,
    pub durable: bool,
    pub comp: CompRule,
    /// `compute_options_by_stock unique on stock_symbol after 1 seconds`.
    pub options: bool,
    /// Quote-screen reads issued after every `read_every`-th quote.
    pub reads: u32,
    pub read_every: u32,
    /// An end-to-end run replays whole rounds of this many quotes; 0 means
    /// whole passes over the trace. A run that stopped mid-round would
    /// count a long maintenance stall in some runs and not in others.
    pub round_quotes: u64,
    /// Quotes the traced run replays per second of `--seconds`: about
    /// half the rate at reference speed, so the run takes about half the
    /// run length. A fixed count, so the traced run's counters repeat
    /// exactly for a seed.
    pub traced_quotes_per_s: u64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "feed_snapshot",
        scale: Scale::Paper,
        durable: true,
        comp: CompRule::None,
        options: false,
        reads: 2,
        read_every: 1,
        round_quotes: 0,
        traced_quotes_per_s: 8_000,
    },
    Workload {
        name: "pta_unique",
        scale: Scale::Paper,
        durable: false,
        comp: CompRule::Unique,
        options: true,
        reads: 1,
        read_every: 10,
        round_quotes: 3_000,
        traced_quotes_per_s: 750,
    },
    Workload {
        name: "comp_delta",
        scale: Scale::Medium,
        durable: false,
        comp: CompRule::FullDelta,
        options: false,
        reads: 1,
        read_every: 1,
        round_quotes: 0,
        traced_quotes_per_s: 800,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One `StripBuilder` switch flipped against the workload's own set-up,
/// for the per-layer twin runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Twin {
    /// The write-ahead log switched the other way: off where the workload
    /// keeps one, on where it does not.
    FlipDurable,
    /// No rules installed.
    NoRules,
    /// `ObsSink::disabled()`.
    NoObs,
}

/// splitmix64: derives independent seeds from the one `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// Trace and table population for `seed`.
    pub fn config(&self, seed: u64) -> PtaConfig {
        let mut cfg = PtaConfig::paper();
        match self.scale {
            Scale::Paper => {}
            Scale::Medium => {
                cfg.trace.n_stocks = 2000;
                cfg.trace.target_updates = 12_000;
                cfg.trace.duration_s = 360.0;
                cfg.n_composites = 100;
                cfg.stocks_per_composite = 100;
                cfg.n_options = 10_000;
            }
            #[cfg(test)]
            Scale::Small => cfg = PtaConfig::small(),
        }
        cfg.trace.seed = mix(seed, 1);
        cfg.seed = mix(seed, 2);
        cfg
    }

    /// Create, load and index the tables and install the rules: the work
    /// `setup_s` times.
    pub fn build(&self, seed: u64, twin: Option<Twin>) -> Pta {
        let mut b = Strip::builder().maintenance_mode(MaintenanceMode::Delta);
        if self.durable != (twin == Some(Twin::FlipDurable)) {
            b = b.durable();
        }
        if twin == Some(Twin::NoObs) {
            b = b.observability(ObsSink::disabled());
        }
        let pta = Pta::build(self.config(seed), b.build()).expect("PTA set-up");
        if twin != Some(Twin::NoRules) {
            match self.comp {
                CompRule::None => Ok(()),
                CompRule::Unique => pta.install_comp_rule(CompVariant::Unique, 1.0),
                CompRule::FullDelta => pta.install_comp_rule_full(1.0),
            }
            .expect("composite rule");
            if self.options {
                pta.install_option_rule(OptionVariant::UniqueOnStock, 1.0)
                    .expect("option rule");
            }
        }
        pta
    }
}

/// When a replay stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the first whole round that ends `seconds` of raw wall time in.
    Seconds(f64),
    /// After exactly this many quotes.
    Quotes(u64),
}

/// A planted fault for the oracle self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// The first quote-screen read is answered with the price its stock
    /// had before the latest quote.
    StaleRead,
    /// One composite is altered through the catalog after the drain.
    AlteredComposite,
}

/// What one replay measured. Raw totals are integer nanoseconds, so the
/// span split adds up exactly; calibrated figures are µs at reference speed.
#[derive(Debug, Default)]
pub struct Replay {
    pub quotes: u64,
    pub reads: u64,
    pub tally: Tally,
    /// Calibrated latency of every base update and every read, µs.
    pub update_us: Vec<f64>,
    pub read_us: Vec<f64>,
    /// The same latencies as measured, µs.
    pub update_raw_us: Vec<f64>,
    pub read_raw_us: Vec<f64>,
    /// Raw span totals, ns: the timed wall time and its parts.
    pub wall_ns: u64,
    pub update_ns: u64,
    pub read_ns: u64,
    pub action_ns: u64,
    /// The same totals at reference speed, µs.
    pub wall_cal_us: f64,
    pub update_cal_us: f64,
    pub read_cal_us: f64,
    pub action_cal_us: f64,
    /// Peak resident set through set-up and the first `RSS_AT_QUOTES`
    /// quotes, MB.
    pub rss_peak_mb: f64,
}

impl Replay {
    /// Timed wall time not covered by an update, read or action span:
    /// the loop itself, its clock reads and its per-read checks.
    pub fn unattributed_ns(&self) -> u64 {
        self.wall_ns - self.update_ns - self.read_ns - self.action_ns
    }

    pub fn unattributed_cal_us(&self) -> f64 {
        self.wall_cal_us - self.update_cal_us - self.read_cal_us - self.action_cal_us
    }

    pub fn quotes_per_s(&self) -> f64 {
        self.quotes as f64 / (self.wall_cal_us * 1e-6)
    }

    pub fn raw_quotes_per_s(&self) -> f64 {
        self.quotes as f64 / (self.wall_ns as f64 * 1e-9)
    }
}

/// Raw samples of the slice in progress, scaled when the slice closes.
#[derive(Default)]
struct Slice {
    update_ns: Vec<u64>,
    read_ns: Vec<u64>,
    action_ns: u64,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Replay the trace as a closed loop with one client: per quote, release
/// the rule actions due by its time, apply it, and issue the workload's
/// quote-screen reads; then drain. Checks every read and the final state.
pub fn replay(
    w: &Workload,
    pta: &Pta,
    read_seed: u64,
    stop: Stop,
    kernel: &mut Kernel,
    fault: Fault,
) -> Replay {
    let db = &pta.db;
    let quotes = &pta.trace.quotes;
    let n = quotes.len() as u64;
    // Later passes over the trace run at later virtual times, a second
    // apart, so virtual time only moves forward.
    let period = pta.trace.duration_us + 1_000_000;
    let round = if w.round_quotes == 0 {
        n
    } else {
        w.round_quotes
    };
    let syms: Vec<Value> = pta.symbols.iter().map(|s| Value::Str(s.clone())).collect();
    let options: Vec<Value> = (0..pta.cfg.n_options)
        .map(|o| Value::Str(Arc::from(format!("O{o:06}"))))
        .collect();
    let comps: Vec<Value> = (0..pta.cfg.n_composites)
        .map(|c| Value::Str(Arc::from(format!("C{c:04}"))))
        .collect();
    let mut shadow = pta.trace.initial_prices.clone();
    let mut rng = read_seed | 1;
    let mut last: Option<(usize, f64)> = None;

    let mut out = Replay::default();
    let mut before = kernel.point();
    let mut i = 0u64;
    let mut done = n == 0;
    while !done {
        let mut sl = Slice::default();
        let start = Instant::now();
        loop {
            let q = &quotes[(i % n) as usize];
            let sym = q.symbol as usize;
            let t0 = Instant::now();
            db.advance_to(q.time_us + (i / n) * period);
            let t1 = Instant::now();
            let r = db.txn_named("update", |t| {
                t.exec(UPDATE_SQL, &[q.price.into(), syms[sym].clone()])
            });
            let t2 = Instant::now();
            sl.action_ns += ns(t1 - t0);
            sl.update_ns.push(ns(t2 - t1));
            out.tally.check(matches!(r, Ok(1)), || {
                format!("update of {:?} to {}: {r:?}", syms[sym], q.price)
            });
            if matches!(r, Ok(1)) {
                last = Some((sym, shadow[sym]));
                shadow[sym] = q.price;
            }
            i += 1;
            if i == RSS_AT_QUOTES {
                out.rss_peak_mb = rss_peak_mb();
            }
            if i.is_multiple_of(w.read_every as u64) {
                for _ in 0..w.reads {
                    let stale = fault == Fault::StaleRead && out.reads == 0;
                    let s = match (stale, last) {
                        (true, Some((s, _))) => s,
                        _ => (xorshift(&mut rng) % syms.len() as u64) as usize,
                    };
                    let o = &options[(xorshift(&mut rng) % options.len() as u64) as usize];
                    let c = &comps[(xorshift(&mut rng) % comps.len() as u64) as usize];
                    let r0 = Instant::now();
                    let r = db.read_txn(|t| {
                        Ok((
                            t.query(READ_STOCK_SQL, std::slice::from_ref(&syms[s]))?,
                            t.query(READ_OPTION_SQL, std::slice::from_ref(o))?,
                            t.query(READ_COMP_SQL, std::slice::from_ref(c))?,
                        ))
                    });
                    sl.read_ns.push(ns(r0.elapsed()));
                    out.reads += 1;
                    let ok = match &r {
                        Ok((sr, or, cr)) => {
                            let seen = match (stale, last) {
                                (true, Some((_, before))) => Some(before),
                                _ => sr.single("price").ok().and_then(Value::as_f64),
                            };
                            sr.len() == 1
                                && seen == Some(shadow[s])
                                && or.len() == 1
                                && cr.len() == 1
                        }
                        Err(_) => false,
                    };
                    out.tally.check(ok, || {
                        format!("quote screen {:?}/{o:?}/{c:?}: {r:?}", syms[s])
                    });
                }
            }
            done = match stop {
                Stop::Quotes(k) => i >= k,
                Stop::Seconds(s) => {
                    i.is_multiple_of(round)
                        && (out.wall_ns + ns(start.elapsed())) as f64 * 1e-9 >= s
                }
            };
            if done || start.elapsed() >= SLICE {
                break;
            }
        }
        let wall = ns(start.elapsed());
        let after = kernel.point();
        close_slice(&mut out, sl, wall, Kernel::factor(before, after));
        before = after;
    }
    out.quotes = i;
    if i < RSS_AT_QUOTES {
        out.rss_peak_mb = rss_peak_mb();
    }

    // The final drain runs every action still pending: its own slice.
    let start = Instant::now();
    db.drain();
    let wall = ns(start.elapsed());
    let after = kernel.point();
    let sl = Slice {
        action_ns: wall,
        ..Slice::default()
    };
    close_slice(&mut out, sl, wall, Kernel::factor(before, after));

    if fault == Fault::AlteredComposite {
        alter_first_composite(db);
    }
    let symbol_ids: HashMap<String, usize> = pta
        .symbols
        .iter()
        .enumerate()
        .map(|(i, s)| (s.to_string(), i))
        .collect();
    let has_rules = !db.rule_names().is_empty();
    let fin = oracle::check_final(
        db,
        &Expect {
            symbol_ids: &symbol_ids,
            shadow: &shadow,
            initial: &pta.trace.initial_prices,
            comps_maintained: has_rules && w.comp != CompRule::None,
            options_maintained: has_rules && w.options,
        },
    );
    out.tally.add(fin);
    out
}

fn close_slice(out: &mut Replay, sl: Slice, wall_ns: u64, factor: f64) {
    let cal = |v: u64| v as f64 * 1e-3 * factor;
    let upd: u64 = sl.update_ns.iter().sum();
    let rd: u64 = sl.read_ns.iter().sum();
    out.wall_ns += wall_ns;
    out.update_ns += upd;
    out.read_ns += rd;
    out.action_ns += sl.action_ns;
    out.wall_cal_us += cal(wall_ns);
    out.update_cal_us += cal(upd);
    out.read_cal_us += cal(rd);
    out.action_cal_us += cal(sl.action_ns);
    out.update_us.extend(sl.update_ns.iter().map(|&v| cal(v)));
    out.read_us.extend(sl.read_ns.iter().map(|&v| cal(v)));
    out.update_raw_us
        .extend(sl.update_ns.iter().map(|&v| v as f64 * 1e-3));
    out.read_raw_us
        .extend(sl.read_ns.iter().map(|&v| v as f64 * 1e-3));
}

/// Peak resident set of this process, MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The self-test's planted fault: bump one composite behind the engine's
/// back, straight through the storage catalog.
fn alter_first_composite(db: &Strip) {
    let t = db.catalog().table("comp_prices").expect("comp_prices");
    let (id, rec) = t.scan().into_iter().next().expect("a composite");
    let mut row = rec.values().to_vec();
    row[1] = (row[1].as_f64().unwrap_or(0.0) + 1.0).into();
    t.update(id, row).expect("altered composite");
}

/// The oracle self-test: a clean replay passes every check, and each
/// planted fault is reported as exactly one failed operation.
#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Workload = Workload {
        name: "selftest",
        scale: Scale::Small,
        durable: true,
        comp: CompRule::Unique,
        options: true,
        reads: 1,
        read_every: 1,
        round_quotes: 0,
        traced_quotes_per_s: 0,
    };

    fn run(w: Workload, fault: Fault) -> Tally {
        let mut kernel = Kernel::new();
        let pta = w.build(7, None);
        replay(&w, &pta, 9, Stop::Quotes(3_000), &mut kernel, fault).tally
    }

    #[test]
    fn clean_replays_pass() {
        for comp in [CompRule::None, CompRule::Unique, CompRule::FullDelta] {
            let t = run(Workload { comp, ..SMALL }, Fault::None);
            assert_eq!(t.failed, 0, "{comp:?}: {:?}", t.notes);
            assert!(t.attempted > 3_000);
        }
    }

    #[test]
    fn stale_read_is_caught() {
        let t = run(SMALL, Fault::StaleRead);
        assert_eq!(t.failed, 1, "{:?}", t.notes);
        assert!(t.notes[0].starts_with("quote screen"), "{:?}", t.notes);
    }

    #[test]
    fn altered_composite_is_caught() {
        let t = run(SMALL, Fault::AlteredComposite);
        assert_eq!(t.failed, 1, "{:?}", t.notes);
        assert!(t.notes[0].starts_with("comp_prices"), "{:?}", t.notes);
    }
}
