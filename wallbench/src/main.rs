//! Calibrated wall-clock benchmark of STRIP's program-trading workloads.
//!
//! ```text
//! wallbench --workload <feed_snapshot|pta_unique|comp_delta> --seed N \
//!           --seconds S --trace <0|1>
//! ```
//!
//! One single-threaded process on the simulated executor replays a quote
//! trace as a closed loop with one client, checks every output against
//! plain-Rust recomputation, and prints its metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`, the end-to-end metrics with `--trace 0` and the per-layer
//! metrics (from a separate traced run with twin runs) with `--trace 1`.
//! See README.md for what each metric means and which layer moves it.

mod calib;
mod oracle;
mod stats;
mod workload;

use calib::Kernel;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use strip_obs::MEM_CLASS_NAMES;
use workload::{Fault, Replay, Stop, Twin, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in print order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut kernel = Kernel::new();
    let w = args.workload;
    let read_seed = workload::mix(args.seed, 3);
    let (main, metrics, extra) = if args.trace {
        traced(&w, &args, read_seed, &mut kernel)
    } else {
        end_to_end(&w, &args, read_seed, &mut kernel)
    };

    let mut tally = main.tally;
    tally.add(extra);
    for n in &tally.notes {
        println!("check failed: {n}");
    }
    for (name, v, unit) in &metrics {
        println!("{name:<34} {v:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Time `f` between two calibration points; returns its result with the
/// raw and the calibrated seconds.
fn timed<R>(kernel: &mut Kernel, f: impl FnOnce() -> R) -> (R, f64, f64) {
    let before = kernel.point();
    let t = Instant::now();
    let r = f();
    let raw = t.elapsed().as_secs_f64();
    let after = kernel.point();
    (r, raw, raw * Kernel::factor(before, after))
}

/// The end-to-end run: `SETUPS` set-ups, then one replay of the last.
fn end_to_end(
    w: &Workload,
    args: &Args,
    read_seed: u64,
    kernel: &mut Kernel,
) -> (Replay, Metrics, oracle::Tally) {
    let mut setup_cal = Vec::new();
    let mut setup_raw = Vec::new();
    let mut pta = None;
    for _ in 0..SETUPS {
        // Drop the previous database first, so set-ups do not stack up in
        // the resident set.
        drop(pta.take());
        let (p, raw, cal) = timed(kernel, || w.build(args.seed, None));
        setup_raw.push(raw);
        setup_cal.push(cal);
        pta = Some(p);
    }
    let pta = pta.expect("at least one set-up");
    let r = workload::replay(
        w,
        &pta,
        read_seed,
        Stop::Seconds(args.seconds),
        kernel,
        Fault::None,
    );
    // The raw figures, for the steadiness report (not gated).
    println!(
        "raw: {{\"setup_s\": {}, \"quotes_per_s\": {}, \"update_p50_us\": {}, \"update_p90_us\": {}, \"read_p50_us\": {}, \"calib_ms\": {}}}",
        stats::median(&setup_raw),
        r.raw_quotes_per_s(),
        stats::median(&r.update_raw_us),
        stats::quantile(&r.update_raw_us, 0.9),
        stats::median(&r.read_raw_us),
        kernel.median_ms(),
    );
    println!(
        "{}: {} quotes, {} reads, {:.3} s wall, seed {}",
        w.name,
        r.quotes,
        r.reads,
        r.wall_ns as f64 * 1e-9,
        args.seed
    );
    let metrics = vec![
        ("setup_s", stats::median(&setup_cal), "s"),
        ("quotes_per_s", r.quotes_per_s(), "1/s"),
        ("update_p50_us", stats::median(&r.update_us), "us"),
        ("update_p90_us", stats::quantile(&r.update_us, 0.9), "us"),
        ("read_p50_us", stats::median(&r.read_us), "us"),
        ("rss_peak_mb", r.rss_peak_mb, "MB"),
    ];
    (r, metrics, oracle::Tally::default())
}

/// The traced run: a fixed number of quotes replayed with spans, public
/// stats and counters, then one twin run per `StripBuilder` switch the
/// workload has, each replaying the same quotes.
fn traced(
    w: &Workload,
    args: &Args,
    read_seed: u64,
    kernel: &mut Kernel,
) -> (Replay, Metrics, oracle::Tally) {
    let pta = w.build(args.seed, None);
    // About half the run length: the twins replay the same quotes again,
    // so the whole traced run stays near one and a half run lengths.
    let quotes = (args.seconds * w.traced_quotes_per_s as f64).ceil() as u64;
    let r = workload::replay(
        w,
        &pta,
        read_seed,
        Stop::Quotes(quotes),
        kernel,
        Fault::None,
    );
    let db = &pta.db;
    let st = db.stats();
    let obs = db.obs().snapshot();
    let mem = db.memory_snapshot();
    let maint = |prefix: &str| -> (u64, u64) {
        st.by_kind
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .fold((0, 0), |(n, m), (_, s)| (n + s.count, m.max(s.max_us)))
    };
    let (rc_n, rc_max) = maint("recompute:");
    let (dl_n, dl_max) = maint("delta:");
    let maint_tasks = rc_n + dl_n;
    let stale_p99_ms = |table: &str| {
        obs.staleness
            .iter()
            .find(|(t, _)| t == table)
            .map_or(0.0, |(_, h)| h.p99 as f64 / 1e3)
    };
    // Zero unless a rule runs the delta-maintained function.
    let delta = db.delta_stats("compute_comps_full").unwrap_or_default();
    let class_bytes = |name: &str| {
        let i = MEM_CLASS_NAMES.iter().position(|c| *c == name);
        i.map_or(0.0, |i| mem.class_bytes[i] as f64)
    };
    let wal_bytes = db.wal_bytes().map_or(0, |b| b.len());
    let q = r.quotes as f64;

    // Statement parsing on its own, over the workload's statement texts.
    let texts = [
        workload::UPDATE_SQL,
        workload::READ_STOCK_SQL,
        workload::READ_OPTION_SQL,
        workload::READ_COMP_SQL,
    ];
    const PARSES: usize = 5_000;
    let (_, _, parse_s) = timed(kernel, || {
        for _ in 0..PARSES {
            for t in texts {
                black_box(strip_sql::parse_statement(black_box(t)).expect("parses"));
            }
        }
    });
    // The composite recompute join for a few fixed composites.
    let comps = ["C0000", "C0001", "C0002", "C0003"];
    let (recomputed, _, recompute_s) = timed(kernel, || {
        comps.map(|c| {
            let rows = db
                .execute_with(workload::COMP_RECOMPUTE_SQL, &[c.into()])
                .ok()
                .and_then(|o| o.rows());
            rows.is_some_and(|rs| rs.len() == 1)
        })
    });
    let mut extra = oracle::Tally::default();
    for (c, ok) in comps.iter().zip(recomputed) {
        extra.check(ok, || {
            format!("{c}: recompute query did not return one row")
        });
    }
    // Black-Scholes alone.
    const BS_CALLS: usize = 200_000;
    let (_, _, bs_s) = timed(kernel, || {
        let mut acc = 0.0;
        for i in 0..BS_CALLS {
            let x = i as f64 * 1e-5;
            acc += strip_finance::bs_call_default(
                black_box(40.0 + x),
                black_box(42.0),
                black_box(0.3 + x),
                black_box(0.25),
            );
        }
        black_box(acc)
    });

    // Twins: same seed, same quotes, one switch flipped.
    let mut twin = |t: Twin| -> Replay {
        let p = w.build(args.seed, Some(t));
        let tr = workload::replay(
            w,
            &p,
            read_seed,
            Stop::Quotes(r.quotes),
            kernel,
            Fault::None,
        );
        extra.add(tr.tally.clone());
        tr
    };
    // Every twin runs on every workload, so each difference is measured
    // everywhere. Where the workload keeps no log, the twin adds one; where
    // it has no rules, the no-rules twin is the same set-up and the
    // difference is run-to-run noise.
    let main_update = stats::mean(&r.update_us);
    let flipped = stats::mean(&twin(Twin::FlipDurable).update_us);
    let wal_us = if w.durable {
        main_update - flipped
    } else {
        flipped - main_update
    };
    let commit_us = main_update - stats::mean(&twin(Twin::NoRules).update_us);
    let no_obs = twin(Twin::NoObs);
    let obs_us = (r.wall_cal_us - no_obs.wall_cal_us) / q;

    println!(
        "spans, raw ns: update {} + read {} + action {} + unattributed {} = wall {}",
        r.update_ns,
        r.read_ns,
        r.action_ns,
        r.unattributed_ns(),
        r.wall_ns
    );
    let metrics = vec![
        (
            "core.update_p99_us",
            stats::quantile(&r.update_us, 0.99),
            "us",
        ),
        ("core.read_p99_us", stats::quantile(&r.read_us, 0.99), "us"),
        ("core.update_us_per_quote", r.update_cal_us / q, "us"),
        ("core.read_us_per_quote", r.read_cal_us / q, "us"),
        ("core.snapshot_txns", obs.snap.txns as f64, "count"),
        ("core.gc_runs", obs.snap.gc_runs as f64, "count"),
        ("core.gc_pruned", obs.snap.gc_pruned as f64, "count"),
        ("txn.wal_bytes", wal_bytes as f64, "bytes"),
        ("txn.wal_us_per_update", wal_us, "us"),
        ("txn.tasks_run", st.tasks_run as f64, "count"),
        ("txn.maint_tasks", maint_tasks as f64, "count"),
        (
            "txn.maint_virtual_max_us",
            rc_max.max(dl_max) as f64,
            "virtual_us",
        ),
        ("rules.action_us_per_quote", r.action_cal_us / q, "us"),
        (
            "rules.quotes_per_action",
            if maint_tasks == 0 {
                0.0
            } else {
                q / maint_tasks as f64
            },
            "quotes",
        ),
        ("rules.commit_us_per_update", commit_us, "us"),
        (
            "rules.comp_prices_stale_p99_ms",
            stale_p99_ms("comp_prices"),
            "virtual_ms",
        ),
        (
            "rules.option_prices_stale_p99_ms",
            stale_p99_ms("option_prices"),
            "virtual_ms",
        ),
        (
            "sql.parse_us",
            parse_s * 1e6 / (PARSES * texts.len()) as f64,
            "us",
        ),
        ("sql.plan_cache_hits", st.plan_cache_hits as f64, "count"),
        (
            "sql.plan_cache_misses",
            st.plan_cache_misses as f64,
            "count",
        ),
        (
            "sql.comp_recompute_us",
            recompute_s * 1e6 / comps.len() as f64,
            "us",
        ),
        ("sql.card_est_rows", st.card_est_sum as f64, "rows"),
        ("sql.card_actual_rows", st.card_actual_sum as f64, "rows"),
        ("sql.delta_checkpoints", delta.checkpoints as f64, "count"),
        ("sql.delta_rebases", delta.rebases as f64, "count"),
        ("sql.delta_keys_applied", delta.keys_applied as f64, "count"),
        ("storage.row_bytes", class_bytes("table_rows"), "bytes"),
        ("storage.index_bytes", class_bytes("table_index"), "bytes"),
        (
            "storage.version_chain_bytes",
            class_bytes("version_chains"),
            "bytes",
        ),
        ("storage.temp_hwm_bytes", mem.temp_hwm_bytes as f64, "bytes"),
        ("obs.overhead_us_per_quote", obs_us, "us"),
        ("obs.events_traced", obs.events_traced as f64, "count"),
        ("obs.trace_ring_bytes", class_bytes("trace_ring"), "bytes"),
        ("finance.bs_call_ns", bs_s * 1e9 / BS_CALLS as f64, "ns"),
        ("bench.calib_ms", kernel.median_ms(), "ms"),
        ("bench.raw_quotes_per_s", r.raw_quotes_per_s(), "1/s"),
        ("bench.wall_us_per_quote", r.wall_cal_us / q, "us"),
        (
            "bench.unattributed_us_per_quote",
            r.unattributed_cal_us() / q,
            "us",
        ),
    ];
    (r, metrics, extra)
}
