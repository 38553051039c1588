//! Correctness checks computed apart from the engine.
//!
//! Everything here reads the engine's tables back as plain rows and
//! recomputes the expected contents in plain Rust: prices from the quotes
//! the replay loop applied, composites as Σ weight × price, options with a
//! Black-Scholes of our own (a different `erf` from the engine's). Each row
//! that disagrees, each background error and each consistency violation
//! counts as one failed operation.

use std::collections::HashMap;
use strip_core::Strip;
use strip_storage::Value;

/// Absolute tolerance for option prices: the engine's `erf` is accurate to
/// about 1.5e-7, which moves a price of at most a few hundred dollars by
/// well under 1e-4; a fault moves it by far more.
const OPTION_TOL: f64 = 1e-3;
/// Relative tolerance for composites: in-place maintenance accumulates
/// float sums over tens of thousands of updates.
const COMP_REL_TOL: f64 = 1e-7;

/// Tally of one set of checks.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(note());
            }
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// What the final state must be derived from.
pub struct Expect<'a> {
    /// Symbol → id, as the replay loop numbered them.
    pub symbol_ids: &'a HashMap<String, usize>,
    /// Last price the replay loop applied per symbol id (the load price
    /// for a symbol that never traded).
    pub shadow: &'a [f64],
    /// Prices at load time per symbol id.
    pub initial: &'a [f64],
    /// Whether a rule keeps `comp_prices` fresh. If not, composites must
    /// still hold their load-time values.
    pub comps_maintained: bool,
    /// Whether a rule keeps `option_prices` fresh.
    pub options_maintained: bool,
}

fn str_of(v: &Value) -> String {
    v.as_str().unwrap_or_default().to_string()
}

fn f64_of(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

/// Check the drained database against `exp`.
pub fn check_final(db: &Strip, exp: &Expect<'_>) -> Tally {
    let mut t = Tally::default();
    let rows = |name: &str| db.table_rows(name).unwrap_or_default();

    // Stocks: exactly one row per symbol, holding the last applied quote.
    let mut price = vec![f64::NAN; exp.shadow.len()];
    let mut seen = vec![0u32; exp.shadow.len()];
    for r in rows("stocks") {
        let sym = str_of(&r[0]);
        let p = f64_of(&r[1]);
        match exp.symbol_ids.get(&sym) {
            Some(&id) => {
                seen[id] += 1;
                price[id] = p;
                t.check(p == exp.shadow[id], || {
                    format!("stocks {sym}: price {p}, last quote {}", exp.shadow[id])
                });
            }
            None => t.check(false, || format!("stocks: unknown symbol {sym}")),
        }
    }
    for (id, n) in seen.iter().enumerate() {
        if *n != 1 {
            t.check(false, || format!("stocks: symbol id {id} has {n} rows"));
        }
    }
    let base: &[f64] = &price;

    // Composites: Σ weight × price over the comps_list rows.
    let mut members: HashMap<String, Vec<(usize, f64)>> = HashMap::new();
    for r in rows("comps_list") {
        let id = exp.symbol_ids.get(&str_of(&r[1])).copied();
        match id {
            Some(id) => members
                .entry(str_of(&r[0]))
                .or_default()
                .push((id, f64_of(&r[2]))),
            None => t.check(false, || format!("comps_list: unknown symbol {:?}", r[1])),
        }
    }
    let comp_base = if exp.comps_maintained {
        base
    } else {
        exp.initial
    };
    let mut comp_rows: HashMap<String, u32> = HashMap::new();
    for r in rows("comp_prices") {
        let comp = str_of(&r[0]);
        let got = f64_of(&r[1]);
        *comp_rows.entry(comp.clone()).or_default() += 1;
        let want: f64 = members
            .get(&comp)
            .map(|m| m.iter().map(|&(id, w)| w * comp_base[id]).sum())
            .unwrap_or(f64::NAN);
        t.check(
            (got - want).abs() <= COMP_REL_TOL * want.abs().max(1.0),
            || format!("comp_prices {comp}: {got}, Σ weight × price = {want}"),
        );
    }
    for comp in members.keys() {
        let n = comp_rows.get(comp).copied().unwrap_or(0);
        if n != 1 {
            t.check(false, || format!("comp_prices: {comp} has {n} rows"));
        }
    }

    // Options: Black-Scholes at the underlying's price.
    let stdev: HashMap<String, f64> = rows("stock_stdev")
        .iter()
        .map(|r| (str_of(&r[0]), f64_of(&r[1])))
        .collect();
    let mut listing: HashMap<String, (String, f64, f64)> = HashMap::new();
    for r in rows("options_list") {
        listing.insert(str_of(&r[0]), (str_of(&r[1]), f64_of(&r[2]), f64_of(&r[3])));
    }
    let opt_base = if exp.options_maintained {
        base
    } else {
        exp.initial
    };
    let mut priced = 0usize;
    for r in rows("option_prices") {
        let osym = str_of(&r[0]);
        let got = f64_of(&r[1]);
        priced += 1;
        let want = listing.get(&osym).and_then(|(stock, strike, expiry)| {
            let id = *exp.symbol_ids.get(stock)?;
            Some(bs_call(opt_base[id], *strike, *expiry, *stdev.get(stock)?))
        });
        t.check(want.is_some_and(|w| (got - w).abs() <= OPTION_TOL), || {
            format!("option_prices {osym}: {got}, Black-Scholes {want:?}")
        });
    }
    t.check(priced == listing.len(), || {
        format!(
            "option_prices: {priced} rows for {} listings",
            listing.len()
        )
    });

    // The engine's own health: background task errors and invariants.
    let errors = db.take_errors();
    t.check(errors.is_empty(), || format!("task errors: {errors:?}"));
    let problems = db.check_consistency();
    t.check(problems.is_empty(), || format!("consistency: {problems:?}"));
    t
}

/// Black-Scholes call price (r = 5%), with Φ from a Chebyshev fit of
/// `erfc` (Numerical Recipes `erfcc`, |error| < 1.2e-7).
pub fn bs_call(s: f64, k: f64, t: f64, sigma: f64) -> f64 {
    const R: f64 = 0.05;
    if s <= 0.0 || k <= 0.0 {
        return 0.0;
    }
    let disc = (-R * t).exp();
    if t <= 0.0 || sigma <= 0.0 {
        return (s - k * disc).max(0.0);
    }
    let vol = sigma * t.sqrt();
    let d1 = ((s / k).ln() + (R + 0.5 * sigma * sigma) * t) / vol;
    let d2 = d1 - vol;
    s * norm_cdf(d1) - k * disc * norm_cdf(d2)
}

fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let r = t * poly.exp();
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn black_scholes_reference_value() {
        // Hull's example at r = 5%: S=42, K=40, σ=20%, t=0.5 ⇒ 4.08.
        let p = bs_call(42.0, 40.0, 0.5, 0.2);
        assert!((p - 4.083).abs() < 0.01, "{p}");
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-7);
    }
}
